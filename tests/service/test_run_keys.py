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
from repro.service import requests
from repro.service.requests import build_experiment, predicted_run_keys
from repro.systems.scenario import Scenario, available_scenarios, get_scenario


@pytest.fixture
def cold_memo():
    requests._task_memo.clear()
    yield
    requests._task_memo.clear()


def forbid_binding(monkeypatch) -> None:
    def bind(self, **overrides):
        raise AssertionError(f"{self.name} was bound on a memoized path")

    monkeypatch.setattr(Scenario, "bind", bind)


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
def test_predicted_keys_match_recorded_rows(
    scenario, path, spelling, cold_memo, monkeypatch
):
    body = {"scenario": scenario, "n_receivers": 40, "seed": 3, "paths": [path]}
    body.update(SPELLINGS[spelling](scenario))
    (run,) = plan_runs(build_experiment(body, default_name="keys"))
    recorded = [row_cache_key(result_row_to_dict(row)) for row in run_variant(run)]
    assert predicted_run_keys(run) == recorded  # cold: binds and fills the memo
    forbid_binding(monkeypatch)
    assert predicted_run_keys(run) == recorded  # warm: no build at all


def test_each_requested_task_of_a_point_is_memoized_apart(cold_memo):
    names = [task.name for task in get_scenario("passwords").bind().tasks()]
    for task in [None, *names]:
        body = {"scenario": "passwords", "paths": ["analyze"]}
        if task is not None:
            body["task"] = task
        (run,) = plan_runs(build_experiment(body, default_name="keys"))
        recorded = [row_cache_key(result_row_to_dict(r)) for r in run_variant(run)]
        assert predicted_run_keys(run) == recorded
        assert predicted_run_keys(run) == recorded


class TestCachedRequestsBuildNothing:
    def test_repeated_cached_requests_never_bind(self, app, cold_memo, monkeypatch):
        requests_ = [  # (path, body, the payload field carrying the rows)
            ("/simulate", {"scenario": "passwords", "n_receivers": 50, "seed": 2},
             "resultset"),
            ("/analyze", {"scenario": "antiphishing", "params": {"activeness": 0.4}},
             "row"),
        ]
        primed = [app.handle("POST", path, body=body) for path, body, _ in requests_]
        forbid_binding(monkeypatch)
        for _ in range(2):
            for (path, body, field), (_, first) in zip(requests_, primed):
                status, payload = app.handle("POST", path, body=body)
                assert status == 200
                assert payload["cache"] == {"served": 1, "computed": 0}
                assert payload[field] == first[field]
        assert app.state.cache.stats()["hits"] == 4

    @pytest.mark.parametrize(
        "body",
        [
            {
                "scenario": "antiphishing",
                "params": {"variant": "no_warning", "activeness": 0.5},
                "n_receivers": 50,
            },
            {"scenario": "passwords", "task": "no-such-task", "n_receivers": 50},
        ],
        ids=["rejected-binding", "unknown-task"],
    )
    def test_rejected_request_is_rejected_again(self, app, cold_memo, body):
        for _ in range(2):
            status, payload = app.handle("POST", "/simulate", body=body)
            assert status == 422
            assert payload["error"] == "validation"
        assert requests._task_memo == {}

