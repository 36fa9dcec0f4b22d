"""Committed benchmark recordings carry no false acceptance flag.

Every ``BENCH_*.json`` at the repository root is a claim about the
code that recorded it.  A recording whose ``acceptance.passed`` or any
``deterministic*`` flag is false is a failing gate that was committed
anyway; this test makes such a recording fail tier-1 instead of sitting
unread.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Iterator, Tuple

import pytest

ROOT = Path(__file__).resolve().parents[2]
RECORDINGS = sorted(ROOT.glob("BENCH_*.json"))


def _false_flags(node: Any, path: str = "") -> Iterator[Tuple[str, Any]]:
    """Every gate flag under ``node`` whose value is not ``True``."""
    if isinstance(node, dict):
        for key, value in node.items():
            where = f"{path}/{key}"
            if key.startswith("deterministic") and value is not True:
                yield where, value
            if key == "acceptance" and isinstance(value, dict):
                if "passed" in value and value["passed"] is not True:
                    yield f"{where}/passed", value["passed"]
            yield from _false_flags(value, where)
    elif isinstance(node, list):
        for index, value in enumerate(node):
            yield from _false_flags(value, f"{path}/{index}")


def test_recordings_exist():
    assert RECORDINGS, f"no BENCH_*.json recordings under {ROOT}"


@pytest.mark.parametrize("recording", RECORDINGS, ids=lambda path: path.name)
def test_recording_flags_hold(recording):
    flags = list(_false_flags(json.loads(recording.read_text())))
    assert not flags, f"{recording.name} records failing gates: {flags}"
