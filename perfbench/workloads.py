"""The three traffic mixes, generated from a workload seed.

Each workload yields :class:`Op` values (the server sees only their
request bodies), runs one op as a closed-loop client would, and checks
the outputs it got back.  Ops are generated lazily from one
``random.Random(seed)``, so the same seed always gives the same inputs
in the same order.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import random
import sys
import time
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Tuple

from harness import BenchError, Client

SCENARIOS = (
    "antiphishing",
    "email-attachments",
    "file-permissions",
    "graphical-passwords",
    "passwords",
    "smartcard",
    "ssl-indicator",
)


@dataclasses.dataclass
class Op:
    index: int
    path: str
    body: Dict[str, Any]
    receiver_rounds: int
    point: int = -1  # cached_queries: index of the working-set entry


@dataclasses.dataclass
class OpResult:
    op: Op
    latency: float
    ok: bool
    error: Optional[str] = None
    body: bytes = b""
    polls: int = 0
    job_id: Optional[str] = None
    stamps: Dict[str, float] = dataclasses.field(default_factory=dict)


@dataclasses.dataclass
class RequestSample:
    """One HTTP round trip made for a timed op (traced runs attribute it)."""

    request_id: str
    op_index: int
    rtt: float
    nbytes: int
    opened: int  # TCP connections the round trip opened


class Session:
    """A :class:`Client` that records every round trip of a timed op."""

    def __init__(self, port: int) -> None:
        self.client = Client(port)
        self.samples: List[RequestSample] = []
        self._counter = itertools.count()

    def request(
        self, op: Op, tag: str, method: str, path: str,
        body: Optional[Dict[str, Any]] = None,
    ) -> Tuple[int, bytes]:
        request_id = f"{tag}-{op.index}-{next(self._counter)}"
        connections = self.client.connections
        started = time.perf_counter()
        status, payload = self.client.request(method, path, body, request_id)
        self.samples.append(RequestSample(
            request_id, op.index, time.perf_counter() - started, len(payload),
            self.client.connections - connections,
        ))
        return status, payload


def _timed(session: Session, op: Op, tag: str) -> Tuple[float, int, bytes]:
    started = time.perf_counter()
    status, payload = session.request(op, tag, "POST", op.path, op.body)
    return time.perf_counter() - started, status, payload


def _in_process_canonical(body: Dict[str, Any], name: str) -> Dict[str, Any]:
    """An in-process serial ``Experiment.run`` of a request body, canonical form."""
    from repro.service.requests import build_experiment

    experiment = build_experiment(body, default_name=name)
    return experiment.run().canonical_dict()


def _served_canonical(resultset: Dict[str, Any]) -> Dict[str, Any]:
    from repro.io.experiments_io import resultset_from_dict

    return resultset_from_dict(resultset).canonical_dict()


class Workload:
    name = ""
    #: Ops per timed segment: short against host drift, long against probe cost.
    segment_ops = 1
    #: A run keeps going past ``--seconds`` until it has this many ops, so
    #: at least ten samples lie beyond p90.
    min_ops = 110
    #: Whether every server start gets an empty data directory.
    fresh_data_dir = True

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.rng = random.Random(seed)

    def prime(self, start_server: Any, data_dir: Path) -> None:
        """Prepare a data directory before any timed server starts."""

    def warmup(self) -> Iterator[Op]:
        return iter(())

    def ops(self) -> Iterator[Op]:
        raise NotImplementedError

    def run_op(self, session: Session, op: Op, tag: str) -> OpResult:
        raise NotImplementedError

    def verify(self, session: Session, results: List[OpResult]) -> List[str]:
        """End-of-run correctness checks; returns one message per failure."""
        return []

    def check_health(self, delta_hits: int, delta_misses: int, n_ops: int) -> List[str]:
        return []


class CachedQueries(Workload):
    """Repeated /simulate and /analyze requests over a primed working set."""

    name = "cached_queries"
    segment_ops = 80
    min_ops = 200
    fresh_data_dir = False
    SIMULATE_POINTS = 480
    ANALYZE_POINTS = 160

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.points: List[Tuple[str, Dict[str, Any]]] = []
        for i in range(self.SIMULATE_POINTS):
            self.points.append(("/simulate", {
                "scenario": SCENARIOS[i % len(SCENARIOS)],
                "params": {"training_fraction": round(self.rng.uniform(0.05, 0.95), 4)},
                "n_receivers": 300,
                "seed": self.rng.randrange(1_000_000),
            }))
        for i in range(self.ANALYZE_POINTS):
            self.points.append(("/analyze", {
                "scenario": SCENARIOS[i % len(SCENARIOS)],
                "params": {"training_fraction": round(self.rng.uniform(0.05, 0.95), 4)},
            }))
        self.reference: List[bytes] = []

    def _op(self, index: int, point: int) -> Op:
        path, body = self.points[point]
        rr = body.get("n_receivers", 0)
        return Op(index, path, body, rr, point)

    def prime(self, start_server: Any, data_dir: Path) -> None:
        """First server: compute every point, keep the bytes of its first hit."""
        server = start_server(data_dir, traced=False)
        try:
            client = Client(server.port)
            for point, (path, body) in enumerate(self.points):
                status, computed = client.request("POST", path, body)
                if status != 200:
                    raise BenchError(f"priming {path} answered {status}")
                status, hit = client.request("POST", path, body)
                first, again = json.loads(computed), json.loads(hit)
                if status != 200 or again["cache"] != {"served": 1, "computed": 0}:
                    raise BenchError(f"priming replay of point {point} was not served")
                key = "resultset" if path == "/simulate" else "row"
                if first[key] != again[key]:
                    raise BenchError(f"point {point}: a hit differs from its computation")
                self.reference.append(hit)
            client.close()
        finally:
            server.stop()

    def _draw(self, counter: Iterator[int]) -> Iterator[Op]:
        # One /analyze in every block of four, at a random place in it.
        analyze_at = 0
        for index in counter:
            if index % 4 == 0:
                analyze_at = self.rng.randrange(4)
            if index % 4 == analyze_at:
                point = self.SIMULATE_POINTS + self.rng.randrange(self.ANALYZE_POINTS)
            else:
                point = self.rng.randrange(self.SIMULATE_POINTS)
            yield self._op(index, point)

    def warmup(self) -> Iterator[Op]:
        return itertools.islice(self._draw(itertools.count(-1, -1)), 50)

    def ops(self) -> Iterator[Op]:
        return self._draw(itertools.count())

    def run_op(self, session: Session, op: Op, tag: str) -> OpResult:
        latency, status, payload = _timed(session, op, tag)
        if status != 200:
            return OpResult(op, latency, False, f"status {status}")
        if payload != self.reference[op.point]:
            return OpResult(op, latency, False, "response differs from its priming bytes")
        return OpResult(op, latency, True)

    def check_health(self, delta_hits: int, delta_misses: int, n_ops: int) -> List[str]:
        if delta_hits != n_ops or delta_misses != 0:
            return [f"/health counted {delta_hits} hits, {delta_misses} misses "
                    f"for {n_ops} cached requests"]
        return []


class FreshSimulate(Workload):
    """Every request a new (scenario, seed) point, inline, a cache miss."""

    name = "fresh_simulate"
    segment_ops = 2
    SAMPLE = 8

    def _sizes(self) -> Iterator[Tuple[int, int]]:
        # Stratified per block of 8: one receiver count from each eighth of
        # [20k, 50k) and rounds=2 on two of them, so every seed gets the
        # same size distribution and p90 does not swing with the seed.
        while True:
            counts = [
                20_000 + int((k + self.rng.random()) * 30_000 / 8) for k in range(8)
            ]
            self.rng.shuffle(counts)
            doubled = set(self.rng.sample(range(8), 2))
            for k, n in enumerate(counts):
                yield min(n, 49_999), 2 if k in doubled else 1

    def _draw(self, counter: Iterator[int], seeds: range) -> Iterator[Op]:
        used = set()
        offset = self.rng.randrange(len(SCENARIOS))
        sizes = self._sizes()
        for index in counter:
            seed = self.rng.choice(seeds)
            while seed in used:
                seed = self.rng.choice(seeds)
            used.add(seed)
            n, rounds = next(sizes)
            body = {
                "scenario": SCENARIOS[(offset + index) % len(SCENARIOS)],
                "params": {"rounds": 2} if rounds == 2 else {},
                "n_receivers": n,
                "seed": seed,
            }
            yield Op(index, "/simulate", body, n * rounds)

    def warmup(self) -> Iterator[Op]:
        # Seeds disjoint from the timed ones, so warm-up never primes a point.
        return self._draw(iter(range(-len(SCENARIOS), 0)), range(2_000_000, 3_000_000))

    def ops(self) -> Iterator[Op]:
        return self._draw(itertools.count(), range(0, 2_000_000))

    def run_op(self, session: Session, op: Op, tag: str) -> OpResult:
        latency, status, payload = _timed(session, op, tag)
        if status != 200:
            return OpResult(op, latency, False, f"status {status}")
        reply = json.loads(payload)
        if reply.get("cache") != {"served": 0, "computed": 1}:
            return OpResult(op, latency, False, f"not a fresh computation: {reply.get('cache')}")
        if len(reply["resultset"]["rows"]) != 1:
            return OpResult(op, latency, False, "expected exactly one row")
        return OpResult(op, latency, True, body=payload)

    def check_health(self, delta_hits: int, delta_misses: int, n_ops: int) -> List[str]:
        if delta_hits != 0 or delta_misses != n_ops:
            return [f"/health counted {delta_hits} hits, {delta_misses} misses "
                    f"for {n_ops} fresh requests"]
        return []

    def verify(self, session: Session, results: List[OpResult]) -> List[str]:
        """Replay a seeded sample (served byte-identically, no computation) and
        compare it with an in-process serial run of the same bodies."""
        failures: List[str] = []
        done = [result for result in results if result.ok]
        sample = random.Random(self.seed ^ 0x5EED).sample(done, min(self.SAMPLE, len(done)))
        for result in sample:
            status, payload = session.client.request("POST", "/simulate", result.op.body)
            original = json.loads(result.body)
            replay = json.loads(payload) if status == 200 else {}
            if replay.get("cache") != {"served": 1, "computed": 0}:
                failures.append(f"op {result.op.index}: replay was not served from cache")
                continue
            if json.dumps(replay["resultset"], sort_keys=True) != json.dumps(
                original["resultset"], sort_keys=True
            ):
                failures.append(f"op {result.op.index}: replay bytes differ")
            expected = _in_process_canonical(result.op.body, "simulate")
            if _served_canonical(original["resultset"]) != expected:
                failures.append(f"op {result.op.index}: differs from in-process Experiment.run")
        return failures


class SweepJobs(Workload):
    """Sequential detached /sweep jobs, polled to done, results fetched."""

    name = "sweep_jobs"
    segment_ops = 1
    POLL_S = 0.01
    JOB_TIMEOUT_S = 60.0
    VARIANTS = 2
    #: Twice the engine's 25k ``batch_size``: every variant-round runs as
    #: two full chunks, the shape that in-call chunk parallelism splits.
    N_RECEIVERS = 50_000
    ROUNDS = 2

    def _draw(self, counter: Iterator[int]) -> Iterator[Op]:
        offset = self.rng.randrange(len(SCENARIOS))
        for index in counter:
            # Distinct to three decimals: variant labels must not collide.
            values = sorted(v / 1000 for v in self.rng.sample(range(20, 981), self.VARIANTS))
            body = {
                "scenario": SCENARIOS[(offset + index) % len(SCENARIOS)],
                "grid": {"training_fraction": values},
                "base": {"rounds": self.ROUNDS, "recovery_rate": 0.1},
                "n_receivers": self.N_RECEIVERS,
                "seed": self.rng.randrange(1_000_000),
                "detach": True,
            }
            rr = self.VARIANTS * self.N_RECEIVERS * self.ROUNDS
            yield Op(index, "/sweep", body, rr)

    def warmup(self) -> Iterator[Op]:
        return self._draw(iter(range(-3, 0)))

    def ops(self) -> Iterator[Op]:
        return self._draw(itertools.count())

    def run_op(self, session: Session, op: Op, tag: str) -> OpResult:
        started = time.perf_counter()
        status, payload = session.request(op, tag, "POST", "/sweep", op.body)
        if status != 202:
            return OpResult(op, time.perf_counter() - started, False,
                            f"submit {status}: {payload[:200]!r}")
        job_id = json.loads(payload)["job"]["job_id"]
        polls = 0
        while True:
            time.sleep(self.POLL_S)
            status, payload = session.request(op, tag, "GET", f"/jobs/{job_id}")
            polls += 1
            state = json.loads(payload)["job"]["status"] if status == 200 else "?"
            if state in ("done", "failed"):
                break
            if time.perf_counter() - started > self.JOB_TIMEOUT_S:
                state = "timeout"
                break
        if state != "done":
            return OpResult(op, time.perf_counter() - started, False,
                            f"job {job_id} {state}", polls=polls, job_id=job_id)
        status, payload = session.request(op, tag, "GET", f"/results/{job_id}")
        latency = time.perf_counter() - started
        result = OpResult(op, latency, status == 200, None if status == 200 else
                          f"results {status}", body=payload, polls=polls, job_id=job_id)
        if result.ok and len(json.loads(payload)["resultset"]["rows"]) != self.VARIANTS:
            result.ok, result.error = False, "wrong row count"
        # Phase stamps come from the job's own event ledger (outside the latency).
        status, events = session.client.request("GET", f"/jobs/{job_id}/events")
        if status == 200:
            for event in json.loads(events)["events"]:
                result.stamps.setdefault(event["event"], event["time"])
        return result

    def check_health(self, delta_hits: int, delta_misses: int, n_ops: int) -> List[str]:
        if delta_hits != 0 or delta_misses != n_ops * self.VARIANTS:
            return [f"/health counted {delta_hits} hits, {delta_misses} misses "
                    f"for {n_ops} sweep jobs"]
        return []

    def verify(self, session: Session, results: List[OpResult]) -> List[str]:
        """One seeded job per run equals an in-process serial run of its body."""
        done = [result for result in results if result.ok]
        if not done:
            return ["no completed job to verify"]
        result = random.Random(self.seed ^ 0x5EED).choice(done)
        body = {key: value for key, value in result.op.body.items() if key != "detach"}
        expected = _in_process_canonical(body, str(result.job_id))
        served = _served_canonical(json.loads(result.body)["resultset"])
        if served != expected:
            return [f"job {result.job_id}: differs from in-process Experiment.run"]
        return []


WORKLOADS = {cls.name: cls for cls in (CachedQueries, FreshSimulate, SweepJobs)}


def import_program(root: Path) -> None:
    """Make the program's sources importable for the in-process checks."""
    src = str(root / "src")
    if src not in sys.path:
        sys.path.insert(0, src)
