"""Predicted cache keys agree with the rows a work unit records.

:func:`repro.service.requests.predicted_run_keys` decides whether a unit
is served from the cache before anything runs; the rows are stored under
:func:`repro.service.cache.row_cache_key` of what the unit actually
recorded.  If the two ever disagree, a repeated query silently misses
the cache, so they are compared over every scenario, both paths, and
every request spelling that changes the realized provenance.
"""

from __future__ import annotations

import pytest

from repro.experiments.runner import plan_runs, run_variant
from repro.io.experiments_io import result_row_to_dict
from repro.service.cache import row_cache_key
from repro.service.requests import build_experiment, predicted_run_keys
from repro.systems.scenario import available_scenarios, get_scenario


def _unique_task_prefix(scenario: str) -> str:
    """A strict prefix of a default-point task name no other task shares."""
    names = [task.name for task in get_scenario(scenario).bind().tasks()]
    for name in names:
        for length in range(1, len(name)):
            prefix = name[:length]
            if sum(other.startswith(prefix) for other in names) == 1:
                return prefix
    raise AssertionError(f"scenario {scenario!r} has no unique task prefix")


SPELLINGS = {
    "defaults": lambda scenario: {},
    "rounds": lambda scenario: {"params": {"rounds": 2}},
    "matrix-rng": lambda scenario: {"params": {"rng_mode": "matrix"}},
    "task-prefix": lambda scenario: {"task": _unique_task_prefix(scenario)},
}


@pytest.mark.parametrize("spelling", sorted(SPELLINGS))
@pytest.mark.parametrize("path", ["analyze", "simulate"])
@pytest.mark.parametrize("scenario", available_scenarios())
def test_predicted_keys_match_recorded_rows(scenario, path, spelling):
    body = {"scenario": scenario, "n_receivers": 40, "seed": 3, "paths": [path]}
    body.update(SPELLINGS[spelling](scenario))
    (run,) = plan_runs(build_experiment(body, default_name="keys"))
    recorded = [row_cache_key(result_row_to_dict(row)) for row in run_variant(run)]
    assert predicted_run_keys(run) == recorded

