"""REP008 known-bad: raw result dicts of two runs compared directly."""

from repro.io.experiments_io import resultset_to_dict


def same_bits(serial, parallel):
    return resultset_to_dict(serial) == resultset_to_dict(parallel)


def drifted(first, second):
    return first.to_dict() != second.to_dict()


def via_names(serial, sharded):
    expected = resultset_to_dict(serial)
    merged = sharded.to_dict()
    assert merged == expected
