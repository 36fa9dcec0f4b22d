"""REP008 known-good: identity through canonical_dict(), raw dicts alone."""

from repro.io.experiments_io import resultset_to_dict


def same_bits(serial, parallel):
    return serial.canonical_dict() == parallel.canonical_dict()


def stable(resultset):
    return resultset_to_dict(resultset) == resultset_to_dict(resultset)


def rows_match(first, second):
    payload = resultset_to_dict(first)
    payload = {"rows": payload["rows"]}
    return payload == resultset_to_dict(second) or len(payload) == 1
