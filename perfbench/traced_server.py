"""Traced server bootstrap: the service CLI with spans around each layer.

Usage (as the server subprocess)::

    python -u perfbench/traced_server.py SPANS_OUT serve --port 0 ...

Wraps the public functions of each layer from outside the program, then
runs ``repro.service.cli.main`` in this process, so client and server
stay separate processes exactly as in an untraced run.  Each call
records a span ``(id, name, start, end, parent_id, request_id, extra)``
in a per-thread list kept in memory; ids number a thread's spans in the
order they open.  The lists are written to ``SPANS_OUT`` as JSON when
the server shuts down.  A request's id comes from its
``X-Bench-Request`` header; a job's spans carry ``job:<job_id>``.
Spans are flat tuples of atoms, which the cyclic garbage collector
stops tracking, so a long traced run does not slow the server's GC.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Tuple


class Tracer:
    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self.threads: List[List[tuple]] = []

    def _state(self) -> Any:
        local = self._local
        if not hasattr(local, "spans"):
            local.spans = []
            local.stack = []  # (id, request id) of each open span
            local.opened = 0
            with self._lock:
                self.threads.append(local.spans)
        return local

    def wrap(
        self,
        name: str,
        fn: Callable[..., Any],
        request_id: Optional[Callable[[tuple], Optional[str]]] = None,
        annotate: Optional[Callable[[Any], Any]] = None,
    ) -> Callable[..., Any]:
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            local = self._state()
            stack = local.stack
            if stack:
                parent, rid = stack[-1]
            else:
                parent = -1
                rid = request_id(args) if request_id is not None else None
            span_id = local.opened
            local.opened += 1
            stack.append((span_id, rid))
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
            extra = annotate(result) if annotate is not None else None
            local.spans.append((span_id, name, start, end, parent, rid, extra))
            return result

        return traced


def _header_id(args: tuple) -> Optional[str]:
    environ = args[1]
    return environ.get("HTTP_X_BENCH_REQUEST")


def _job_id(args: tuple) -> Optional[str]:
    return f"job:{args[1]}"


def _engine_counts(result: Any) -> Tuple[int, int]:
    return int(result.receiver_rounds), int(result.chunks)


#: (module, qualified attribute, span name[, request id, annotate]).
TRACED = [
    ("repro.service.app", "ServiceApp.__call__", "service.app.call", _header_id),
    ("repro.service.app", "ServiceApp.handle", "service.app.handle"),
    ("repro.service.requests", "build_experiment", "service.requests.build_experiment"),
    ("repro.service.requests", "predicted_run_keys", "service.requests.predicted_run_keys"),
    ("repro.service.cache", "ResultCache.__init__", "service.cache.replay"),
    ("repro.service.cache", "ResultCache.serve", "service.cache.serve"),
    ("repro.service.cache", "ResultCache.store", "service.cache.store"),
    ("repro.service.state", "ServiceState._execute_job", "service.jobs.execute", _job_id),
    ("repro.systems.scenario", "Scenario.bind", "systems.scenario.bind"),
    ("repro.systems.scenario", "ScenarioVariant.system", "systems.scenario.system"),
    ("repro.experiments.runner", "run_variant", "experiments.runner.run_variant"),
    ("repro.experiments.backends", "ShardBackend.execute", "experiments.backends.shard_execute"),
    ("repro.io.shards", "ShardLogWriter.append", "io.shards.append"),
    ("repro.io.shards", "load_checkpoint", "io.shards.load_checkpoint"),
    ("repro.experiments.results", "ResultSet.merge", "experiments.results.merge"),
    ("repro.io.experiments_io", "result_row_to_dict", "io.experiments_io.to_dict"),
    ("repro.io.experiments_io", "resultset_to_dict", "io.experiments_io.to_dict"),
    ("repro.simulation.engine", "HumanLoopSimulator.simulate_task",
     "simulation.engine.simulate_task", None, _engine_counts),
    ("repro.simulation.rng", "CounterDraws.clipped_normal_block", "simulation.rng.fill"),
    ("repro.simulation.rng", "CounterDraws.fill_uniforms", "simulation.rng.fill"),
    ("repro.simulation.rng", "CounterDraws.uniforms", "simulation.rng.fill"),
    ("repro.core.pipeline", "PipelinePlan.walk_batch", "core.pipeline.walk_batch"),
    ("repro.simulation.metrics", "SimulationTally.add_batch", "simulation.metrics.fold"),
    ("repro.simulation.metrics", "FunnelTally.add_counts", "simulation.metrics.fold"),
]


def _patch_method(tracer: Tracer, cls: type, attr: str, name: str, *extra: Any) -> None:
    # Look the attribute up through the MRO so an inherited method is
    # wrapped on this class alone; keep classmethods classmethods.
    raw = next(klass.__dict__[attr] for klass in cls.__mro__ if attr in klass.__dict__)
    if isinstance(raw, classmethod):
        setattr(cls, attr, classmethod(tracer.wrap(name, raw.__func__, *extra)))
    else:
        setattr(cls, attr, tracer.wrap(name, raw, *extra))


def _patch_function(tracer: Tracer, module: Any, attr: str, name: str, *extra: Any) -> None:
    # Modules that imported the function by name hold their own binding;
    # rebind it everywhere it appears.
    original = getattr(module, attr)
    wrapped = tracer.wrap(name, original, *extra)
    for loaded in list(sys.modules.values()):
        if getattr(loaded, "__name__", "").startswith("repro"):
            for key, value in list(vars(loaded).items()):
                if value is original:
                    setattr(loaded, key, wrapped)


def install(tracer: Tracer) -> None:
    # Import every module that may bind a traced name before patching.
    for module in (
        "repro.service.cli", "repro.service.router_analyze", "repro.service.router_health",
        "repro.service.router_results", "repro.service.router_scenarios",
        "repro.service.router_simulate", "repro.experiments.backends",
    ):
        importlib.import_module(module)
    for module_name, attr, name, *extra in TRACED:
        module = importlib.import_module(module_name)
        if "." in attr:
            class_name, method = attr.split(".")
            _patch_method(tracer, getattr(module, class_name), method, name, *extra)
        else:
            _patch_function(tracer, module, attr, name, *extra)


def main(argv: List[str]) -> int:
    spans_out, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    install(tracer)
    from repro.service.cli import main as service_main

    try:
        return service_main(cli_args)
    finally:
        payload: Dict[str, Any] = {"threads": tracer.threads}
        with open(spans_out, "w") as handle:
            json.dump(payload, handle)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
