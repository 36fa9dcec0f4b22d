"""Service benchmark: one workload against a real ``repro.service`` server.

Usage (from the repository root)::

    python3 perfbench/run.py --workload cached_queries --seed 1 --seconds 20 --trace 0

One client process drives one server subprocess in a closed loop (one
connection at a time, the next request only after the reply).  Timed
work is cut into short segments with a host-speed probe before and
after each, taken while the server is idle; every duration in a
segment is scaled by ``P_NOM / mean(probe_before, probe_after)`` so the
numbers survive the host's CPU-speed drift.  ``--trace 1`` runs the
workload twice, untraced and then on the traced server bootstrap, and
reports per-layer metrics plus the tracing overhead.

The last line of stdout is the result object; the line before it is
the recording envelope (machine, seed, raw and adjusted metrics, probe
statistics).  The exit code is 0 only when every correctness check
passed.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import http.client
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

from harness import CLK_TCK, BenchError, Calibrator, Server, percentile  # noqa: E402
from layers import LAYER_UNITS, layer_metrics  # noqa: E402
from workloads import WORKLOADS, OpResult, Session, Workload, import_program  # noqa: E402

#: Cold starts per run; ``setup_s`` is their median.
SETUP_STARTS = 9
#: A run that cannot reach ``min_ops`` gives up this long after ``--seconds``.
MAX_OVERRUN_S = 60.0

E2E_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "receiver_rounds_per_s": "1/s",
    "server_cpu_ms_per_op": "ms",
    "server_peak_rss_mb": "MB",
    "success_rate": "ratio",
}


@dataclasses.dataclass
class Segment:
    results: List[OpResult]
    duration: float
    cpu_ticks: int
    factor: float


@dataclasses.dataclass
class Phase:
    """One server's timed phase: per-op results and per-segment timings."""

    results: List[OpResult]
    segments: List[Segment]
    session: Session
    hits: int
    misses: int
    peak_rss_mb: float
    data_dir: Path
    failures: List[str]


class Run:
    def __init__(self, workload: Workload, work: Path) -> None:
        self.workload = workload
        self.work = work
        self.cal = Calibrator()
        self._dirs = 0

    def new_data_dir(self) -> Path:
        self._dirs += 1
        path = self.work / f"data-{self._dirs}"
        path.mkdir(parents=True)
        return path

    def start_server(self, data_dir: Path, traced: bool) -> Server:
        bootstrap = None
        if traced:
            bootstrap = [str(HERE / "traced_server.py"), str(self.work / "spans.json")]
        server = Server(ROOT, data_dir, self.work / "server.log", bootstrap)
        try:
            server.start()
        except BaseException:
            server.stop()
            raise
        return server

    def setup(self, data_dir: Optional[Path], starts: int) -> Tuple[Server, List[Tuple[float, float]]]:
        """``starts`` cold starts, each bracketed by probes; the last stays up."""
        samples: List[Tuple[float, float]] = []
        server: Optional[Server] = None
        for index in range(starts):
            directory = data_dir or self.new_data_dir()
            before = self.cal.measure()
            server = Server(ROOT, directory, self.work / "server.log")
            try:
                elapsed = server.start()
                after = self.cal.measure(server)
            except BaseException:
                server.stop()
                raise
            samples.append((elapsed, Calibrator.factor(before, after)))
            if index < starts - 1:
                server.stop()
        assert server is not None
        return server, samples

    def timed_phase(
        self, server: Server, ops: Iterator[Any], tag: str, seconds: float
    ) -> Phase:
        workload = self.workload
        session = Session(server.port)
        failures: List[str] = []
        for op in workload.warmup():
            result = workload.run_op(session, op, "w" + tag)
            if not result.ok:
                failures.append(f"warm-up op {op.index}: {result.error}")
        session.samples.clear()
        health = server.health()["cache"]
        # The client's cyclic GC would pause inside timed requests, and its
        # passes grow with the results kept; it is off while timing.
        gc.collect()
        gc.disable()
        try:
            results, segments = self._segments(server, ops, tag, seconds, session)
        finally:
            gc.enable()
        after_health = server.health()["cache"]
        return Phase(
            results=results,
            segments=segments,
            session=session,
            hits=after_health["hits"] - health["hits"],
            misses=after_health["misses"] - health["misses"],
            peak_rss_mb=server.peak_rss_mb(),
            data_dir=server.data_dir,
            failures=failures,
        )

    def _segments(
        self, server: Server, ops: Iterator[Any], tag: str, seconds: float,
        session: Session,
    ) -> Tuple[List[OpResult], List[Segment]]:
        """Timed segments of ``segment_ops`` ops, each followed by a probe."""
        workload = self.workload
        results: List[OpResult] = []
        segments: List[Segment] = []
        before = self.cal.measure(server)
        started = time.perf_counter()
        while True:
            elapsed = time.perf_counter() - started
            if elapsed >= seconds and len(results) >= workload.min_ops:
                break
            if elapsed >= seconds + MAX_OVERRUN_S:
                break
            cpu0 = server.cpu_ticks()
            t0 = time.perf_counter()
            batch = []
            for _ in range(workload.segment_ops):
                op = next(ops)
                try:
                    batch.append(workload.run_op(session, op, tag))
                except (OSError, http.client.HTTPException, ValueError, KeyError) as error:
                    batch.append(OpResult(op, math.inf, False, repr(error)))
            duration = time.perf_counter() - t0
            cpu1 = server.cpu_ticks()
            after = self.cal.measure(server)
            segments.append(
                Segment(batch, duration, cpu1 - cpu0, Calibrator.factor(before, after))
            )
            results.extend(batch)
            before = after
        return results, segments


def end_to_end(phase: Phase, adjusted: bool) -> Dict[str, float]:
    """The timed metrics of one phase, drift-adjusted or raw."""

    def scale(segment: Segment) -> float:
        return segment.factor if adjusted else 1.0

    segments = phase.segments
    latencies_ms = [
        (r.latency * scale(s) if r.ok else math.inf) * 1e3
        for s in segments for r in s.results
    ]
    busy_s = sum(s.duration * scale(s) for s in segments)
    cpu_s = sum(s.cpu_ticks * scale(s) for s in segments) / CLK_TCK
    receiver_rounds = sum(r.op.receiver_rounds for r in phase.results)
    return {
        "ops_per_s": len(latencies_ms) / busy_s,
        "latency_p50_ms": percentile(latencies_ms, 0.50),
        "latency_p90_ms": percentile(latencies_ms, 0.90),
        "receiver_rounds_per_s": receiver_rounds / busy_s,
        "server_cpu_ms_per_op": cpu_s * 1e3 / len(latencies_ms),
        "server_peak_rss_mb": phase.peak_rss_mb,
    }


def setup_metric(samples: List[Tuple[float, float]], adjusted: bool) -> float:
    return statistics.median(t * (f if adjusted else 1.0) for t, f in samples)


def git_sha() -> Optional[str]:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=str(ROOT),
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() or None


def finite(value: float) -> Optional[float]:
    return value if math.isfinite(value) else None


def run_workload(args: argparse.Namespace, work: Path) -> Tuple[Dict[str, Any], Dict[str, Any]]:
    workload: Workload = WORKLOADS[args.workload](args.seed)
    run = Run(workload, work)
    shared_dir: Optional[Path] = None
    if not workload.fresh_data_dir:
        shared_dir = run.new_data_dir()
        workload.prime(run.start_server, shared_dir)
    ops = workload.ops()
    envelope: Dict[str, Any] = {}
    failures: List[str] = []

    starts = 1 if args.trace else SETUP_STARTS
    server, setup_samples = run.setup(shared_dir, starts)
    try:
        phase = run.timed_phase(server, ops, "u", args.seconds / (2 if args.trace else 1))
        failures += phase.failures
        failures += workload.check_health(phase.hits, phase.misses, len(phase.results))
        failures += workload.verify(phase.session, phase.results)
    finally:
        phase_stop = server.stop()
    if phase_stop != 0:
        failures.append(f"server exited with {phase_stop}")

    adjusted = end_to_end(phase, adjusted=True)
    raw = end_to_end(phase, adjusted=False)
    adjusted["setup_s"] = setup_metric(setup_samples, adjusted=True)
    raw["setup_s"] = setup_metric(setup_samples, adjusted=False)
    envelope["raw"] = raw
    envelope["adjusted"] = adjusted
    envelope["setup_starts"] = [
        {"raw_s": t, "factor": f} for t, f in setup_samples
    ]
    attempted = len(phase.results)
    failed_ops = [r for r in phase.results if not r.ok]

    if args.trace:
        traced_dir = shared_dir or run.new_data_dir()
        traced_server = run.start_server(traced_dir, traced=True)
        try:
            traced = run.timed_phase(traced_server, ops, "t", args.seconds / 2)
            failures += traced.failures
            failures += workload.check_health(traced.hits, traced.misses, len(traced.results))
        finally:
            traced_stop = traced_server.stop()
        if traced_stop != 0:
            failures.append(f"traced server exited with {traced_stop}")
        traced_e2e = end_to_end(traced, adjusted=True)
        metrics = layer_metrics(work / "spans.json", traced)
        for name in ("latency_p50_ms", "latency_p90_ms", "ops_per_s", "server_cpu_ms_per_op"):
            metrics[f"trace.overhead.{name}"] = traced_e2e[name] - adjusted[name]
        envelope["traced_adjusted"] = traced_e2e
        attempted += len(traced.results)
        failed_ops += [r for r in traced.results if not r.ok]
    else:
        metrics = adjusted
    if not run.cal.check_guard():
        failures.append(
            f"server used {run.cal.guard_ticks} CPU ticks during host-speed probes "
            f"(limit {run.cal.guard_limit_ticks():.1f})"
        )

    # A failed check counts as one failed operation on top of failed ops.
    failed = len(failed_ops) + len(failures)
    failures += [f"op {r.op.index}: {r.error}" for r in failed_ops[:10]]
    for values in (raw, adjusted):
        values["success_rate"] = 1.0 - failed / attempted
    envelope.update({
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": bool(args.trace),
        "ops": len(phase.results),
        "segments": len(phase.segments),
        "connections_per_request": (
            sum(s.opened for s in phase.session.samples) / len(phase.session.samples)
        ),
        "error_rate": failed / attempted,
        "failures": failures,
        "probe": run.cal.stats(),
        "machine": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "git_sha": git_sha(),
        },
    })
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": finite(value), "unit": unit_of(name)}
            for name, value in metrics.items()
        },
    }
    return result, envelope


def unit_of(name: str) -> str:
    return E2E_UNITS.get(name) or LAYER_UNITS[name]


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "service" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    import_program(ROOT)
    work = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    started = time.perf_counter()
    try:
        result, envelope = run_workload(args, work)
        envelope["run_s"] = time.perf_counter() - started
    except BenchError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        log = work / "server.log"
        if log.exists():
            sys.stderr.write(log.read_text(errors="replace")[-4000:])
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass
    for failure in envelope["failures"]:
        print(f"# FAILED: {failure}")
    for name, metric in result["metrics"].items():
        raw = envelope["raw"].get(name)
        note = "" if raw is None else f"  (raw {raw:.6g})"
        print(f"# {name:45s} {metric['value']!s:>22} {metric['unit']}{note}")
    print(json.dumps({"perfbench_envelope": envelope}, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
