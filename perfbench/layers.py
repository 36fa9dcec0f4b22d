"""Per-layer metrics of a traced phase, from the bootstrap's spans.

A layer's inclusive time counts only its outermost spans (a layer that
calls itself is not counted twice); its self time is each span's
duration minus the direct child spans it covers.  Times are per timed
operation (a request, or a job for ``sweep_jobs``); ``*.self_share`` is
a layer's self time over the client-measured operation latency, which
stays readable when the host's speed drifts.
"""

from __future__ import annotations

import collections
import json
from pathlib import Path
from typing import Any, Dict, List

#: Span layers whose self time is reported as a share of the operation.
SHARE_LAYERS = (
    "service.app.call",
    "service.app.handle",
    "service.requests.build_experiment",
    "service.requests.predicted_run_keys",
    "service.cache.serve",
    "service.cache.store",
    "service.jobs.execute",
    "systems.scenario.bind",
    "systems.scenario.system",
    "experiments.runner.run_variant",
    "experiments.backends.shard_execute",
    "io.shards.append",
    "io.shards.load_checkpoint",
    "experiments.results.merge",
    "io.experiments_io.to_dict",
    "simulation.engine.simulate_task",
    "simulation.rng.fill",
    "core.pipeline.walk_batch",
    "simulation.metrics.fold",
)

#: Span layers whose inclusive time per operation is reported as ``<layer>_ms``.
TIMED_LAYERS = (
    "service.requests.build_experiment",
    "service.requests.predicted_run_keys",
    "service.cache.serve",
    "service.cache.store",
    "experiments.runner.run_variant",
    "experiments.backends.shard_execute",
    "io.shards.append",
    "io.shards.load_checkpoint",
    "experiments.results.merge",
    "io.experiments_io.to_dict",
    "simulation.engine.simulate_task",
    "simulation.rng.fill",
    "core.pipeline.walk_batch",
    "simulation.metrics.fold",
)

LAYER_UNITS: Dict[str, str] = {
    "service.transport.ms_per_req": "ms",
    "service.transport.connections_per_req": "count",
    "service.transport.share": "ratio",
    "service.app.encode_ms": "ms",
    "service.app.response_bytes": "bytes",
    "service.requests.system_builds_per_req": "count",
    "service.cache.hit_ratio": "ratio",
    "service.cache.stream_bytes_per_row": "bytes",
    "service.cache.replay_s": "s",
    "service.jobs.queue_wait_ms": "ms",
    "service.jobs.run_ms": "ms",
    "service.jobs.polls_per_job": "count",
    "io.shards.bytes_per_row": "bytes",
    "simulation.engine.receiver_rounds_per_s": "1/s",
    "simulation.engine.self_ms": "ms",
    "simulation.engine.chunks_per_run": "count",
    "simulation.rng.fill_calls_per_chunk": "count",
    **{f"{layer}_ms": "ms" for layer in TIMED_LAYERS},
    **{f"{layer}.self_share": "ratio" for layer in SHARE_LAYERS},
    **{
        f"trace.overhead.{name}": unit
        for name, unit in (
            ("latency_p50_ms", "ms"),
            ("latency_p90_ms", "ms"),
            ("ops_per_s", "1/s"),
            ("server_cpu_ms_per_op", "ms"),
        )
    },
}


def _mean(values: List[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def _jsonl_bytes_per_line(paths: List[Path], headers: int = 0) -> float:
    size = sum(path.stat().st_size for path in paths)
    lines = sum(path.read_bytes().count(b"\n") for path in paths) - headers
    return size / lines if lines > 0 else 0.0


def layer_metrics(spans_path: Path, phase: Any) -> Dict[str, float]:
    """Every per-layer metric of one traced phase (zero where a layer is idle)."""
    with open(spans_path) as handle:
        threads = json.load(handle)["threads"]
    samples = phase.session.samples
    results = phase.results
    n_ops, n_req = len(results), len(samples)
    op_of = {sample.request_id: sample.op_index for sample in samples}
    op_of.update({f"job:{r.job_id}": r.op.index for r in results if r.job_id})

    inclusive: Dict[str, float] = collections.defaultdict(float)
    own: Dict[str, float] = collections.defaultdict(float)
    calls: Dict[str, int] = collections.Counter()
    engine = [0, 0]  # receiver-rounds, chunks
    replay_s = 0.0
    for thread in threads:
        spans = {span[0]: span for span in thread}
        children: Dict[int, float] = collections.defaultdict(float)
        for _, _, start, end, parent, _, _ in thread:
            children[parent] += end - start
        for span_id, name, start, end, parent, rid, extra in thread:
            if name == "service.cache.replay":
                replay_s += end - start
            if rid not in op_of:
                continue
            calls[name] += 1
            own[name] += end - start - children[span_id]
            ancestor = parent
            while ancestor in spans and spans[ancestor][1] != name:
                ancestor = spans[ancestor][4]
            if ancestor not in spans:
                inclusive[name] += end - start
            if name == "simulation.engine.simulate_task":
                engine[0] += extra[0]
                engine[1] += extra[1]

    latency_s = sum(r.latency for r in results)
    rtt_s = sum(sample.rtt for sample in samples)
    transport_s = rtt_s - inclusive["service.app.call"]
    lookups = phase.hits + phase.misses
    job_dirs = sorted((phase.data_dir / "jobs").glob("job-*"))
    shard_files = [
        path for job in job_dirs for path in job.glob("*.jsonl")
        if not path.name.startswith("service-")
    ]
    metrics: Dict[str, float] = {
        "service.transport.ms_per_req": transport_s * 1e3 / n_req,
        "service.transport.connections_per_req": sum(s.opened for s in samples) / n_req,
        "service.transport.share": transport_s / latency_s,
        "service.app.encode_ms": (
            inclusive["service.app.call"] - inclusive["service.app.handle"]
        ) * 1e3 / n_req,
        "service.app.response_bytes": _mean([sample.nbytes for sample in samples]),
        "service.requests.system_builds_per_req": (
            calls["systems.scenario.bind"] + calls["systems.scenario.system"]
        ) / n_req,
        "service.cache.hit_ratio": phase.hits / lookups if lookups else 0.0,
        "service.cache.stream_bytes_per_row": _jsonl_bytes_per_line(
            [phase.data_dir / "service-cache.jsonl"]
        ),
        "service.cache.replay_s": replay_s,
        "service.jobs.queue_wait_ms": _mean([
            (r.stamps["running"] - r.stamps["submitted"]) * 1e3
            for r in results if {"running", "submitted"} <= r.stamps.keys()
        ]),
        "service.jobs.run_ms": _mean([
            (r.stamps["done"] - r.stamps["running"]) * 1e3
            for r in results if {"running", "done"} <= r.stamps.keys()
        ]),
        "service.jobs.polls_per_job": _mean([r.polls for r in results if r.job_id]),
        "io.shards.bytes_per_row": _jsonl_bytes_per_line(shard_files, len(shard_files)),
        "simulation.engine.receiver_rounds_per_s": (
            engine[0] / inclusive["simulation.engine.simulate_task"]
            if engine[0] else 0.0
        ),
        "simulation.engine.self_ms": own["simulation.engine.simulate_task"] * 1e3 / n_ops,
        "simulation.engine.chunks_per_run": (
            engine[1] / calls["simulation.engine.simulate_task"]
            if engine[1] else 0.0
        ),
        "simulation.rng.fill_calls_per_chunk": (
            calls["simulation.rng.fill"] / engine[1] if engine[1] else 0.0
        ),
    }
    for layer in TIMED_LAYERS:
        metrics[f"{layer}_ms"] = inclusive[layer] * 1e3 / n_ops
    for layer in SHARE_LAYERS:
        metrics[f"{layer}.self_share"] = own[layer] / latency_s
    return metrics
