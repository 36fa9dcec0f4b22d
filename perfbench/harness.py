"""Measurement plumbing: host-speed probe, server subprocess, HTTP client.

Nothing here imports ``repro``: the probe must not change when the
program under test does, and the client must not share an interpreter
with the server it measures.
"""

from __future__ import annotations

import http.client
import json
import os
import select
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

#: Nominal probe duration (seconds).  Drift-adjusted times are expressed
#: as if every probe had taken exactly this long; it is a fixed constant
#: of the benchmark, so adjusted numbers compare across runs and commits.
P_NOM = 0.0009

#: Server CPU during probe windows above this share of the probes' wall
#: time (with a floor of a few clock ticks) fails the run: a server that
#: burns CPU in the background would slow the probe and flatter itself.
GUARD_SHARE = 0.10
GUARD_MIN_TICKS = 5
#: Pause before each probe, so a reply's trailing work (socket close,
#: freeing its buffers) is over before the host is measured.
SETTLE_S = 0.002

CLK_TCK = os.sysconf("SC_CLK_TCK")

# The numpy part writes into a preallocated buffer: a probe that
# allocated its arrays would read ~40 % slower or faster depending on
# glibc's dynamic mmap threshold, i.e. on what the client freed before.
_PROBE_X = np.arange(60_000, dtype=np.float64)
_PROBE_BUF = np.empty_like(_PROBE_X)


def _probe_once() -> float:
    started = time.perf_counter()
    acc = 0
    for i in range(4_000):
        acc = (acc * 31 + i) % 1_000_003
    table = {str(i): i for i in range(1_000)}
    acc += sum(table.values())
    np.multiply(_PROBE_X, 1.5, out=_PROBE_BUF)
    np.add(_PROBE_BUF, 1.0, out=_PROBE_BUF)
    np.sqrt(_PROBE_BUF, out=_PROBE_BUF)
    acc += int(_PROBE_BUF.sum())
    return time.perf_counter() - started


def _probe_cpus() -> List[int]:
    """Up to four CPUs, evenly spread over those this process may use."""
    cpus = sorted(os.sched_getaffinity(0))
    step = max(1, len(cpus) // 4)
    return cpus[::step][:4]


PROBE_CPUS = _probe_cpus()


def probe() -> float:
    """One host-speed reading: the mean over CPUs of three ~1 ms probes' median.

    Each CPU's speed drifts on its own, and the server may run on any of
    them, so the probe runs pinned to each in turn.  A first, discarded
    pass per CPU warms the caches, so the reading does not depend on how
    much memory the server touched just before.
    """
    allowed = os.sched_getaffinity(0)
    readings = []
    try:
        for cpu in PROBE_CPUS:
            os.sched_setaffinity(0, {cpu})
            _probe_once()
            readings.append(statistics.median(_probe_once() for _ in range(3)))
    finally:
        os.sched_setaffinity(0, allowed)
    return sum(readings) / len(readings)


def quantiles(values: List[float]) -> Tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(n=4)`` gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def percentile(values: List[float], share: float) -> float:
    """Nearest-rank percentile (``share`` in (0, 1])."""
    ordered = sorted(values)
    rank = max(1, int(np.ceil(share * len(ordered))))
    return ordered[rank - 1]


class BenchError(RuntimeError):
    """The benchmark could not run (as opposed to a failed check)."""


class Calibrator:
    """Host-speed probes taken while the server is idle.

    Every probe also reads the server's CPU ticks before and after, so
    :meth:`check_guard` can prove the server stayed idle while the host
    was being measured.
    """

    def __init__(self) -> None:
        self.readings: List[float] = []
        self.guard_ticks = 0
        self.window_s = 0.0

    def measure(self, server: Optional["Server"] = None) -> float:
        time.sleep(SETTLE_S)
        before = server.cpu_ticks() if server is not None else 0
        started = time.perf_counter()
        reading = probe()
        if server is not None:
            self.guard_ticks += server.cpu_ticks() - before
            self.window_s += time.perf_counter() - started
        self.readings.append(reading)
        return reading

    @staticmethod
    def factor(before: float, after: float) -> float:
        """Multiplier turning a raw duration into a drift-adjusted one."""
        return P_NOM / ((before + after) / 2.0)

    def guard_limit_ticks(self) -> float:
        return max(GUARD_MIN_TICKS, GUARD_SHARE * self.window_s * CLK_TCK)

    def check_guard(self) -> bool:
        return self.guard_ticks <= self.guard_limit_ticks()

    def stats(self) -> Dict[str, Any]:
        q1, med, q3 = quantiles(self.readings)
        return {
            "probes": len(self.readings),
            "median_ms": med * 1e3,
            "iqr_ms": (q3 - q1) * 1e3,
            "p_nom_ms": P_NOM * 1e3,
            "server_ticks_during_probes": self.guard_ticks,
            "guard_limit_ticks": self.guard_limit_ticks(),
        }


class Server:
    """One ``repro.service`` server subprocess over a data directory.

    ``bootstrap`` replaces ``-m repro.service`` with a script that takes
    the same CLI arguments (the traced bootstrap).
    """

    def __init__(
        self,
        root: Path,
        data_dir: Path,
        log_path: Path,
        bootstrap: Optional[List[str]] = None,
    ) -> None:
        self.root = root
        self.data_dir = data_dir
        self.log_path = log_path
        self.bootstrap = bootstrap
        self.proc: Optional[subprocess.Popen] = None
        self.port = 0

    def start(self, timeout: float = 60.0) -> float:
        """Spawn the server; seconds from spawn to the first 200 from /health."""
        env = dict(os.environ)
        # A deployed server reuses its bytecode cache; so does this one.
        env.pop("PYTHONDONTWRITEBYTECODE", None)
        # One malloc arena: with a thread per connection, glibc otherwise
        # hands each handler thread whichever arena is free, and the peak
        # RSS swings by a quarter from run to run with that assignment.
        env["MALLOC_ARENA_MAX"] = "1"
        src = str(self.root / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        entry = self.bootstrap or ["-m", "repro.service"]
        argv = [
            sys.executable, "-u", *entry, "serve",
            "--host", "127.0.0.1", "--port", "0",
            "--data-dir", str(self.data_dir),
        ]
        log = open(self.log_path, "ab")
        started = time.perf_counter()
        try:
            self.proc = subprocess.Popen(
                argv, cwd=str(self.root), env=env,
                stdout=subprocess.PIPE, stderr=log, stdin=subprocess.DEVNULL,
            )
        finally:
            log.close()
        self.port = self._read_port(started + timeout)
        status, _ = Client(self.port).request("GET", "/health")
        elapsed = time.perf_counter() - started
        if status != 200:
            raise BenchError(f"/health answered {status}")
        return elapsed

    def _read_port(self, deadline: float) -> int:
        assert self.proc is not None and self.proc.stdout is not None
        fd = self.proc.stdout.fileno()
        line = b""
        while not line.endswith(b"\n"):
            remaining = deadline - time.perf_counter()
            if remaining <= 0 or self.proc.poll() is not None:
                raise BenchError(
                    f"server did not announce its port; see {self.log_path}"
                )
            ready, _, _ = select.select([fd], [], [], remaining)
            if ready:
                chunk = os.read(fd, 1)
                if not chunk:
                    raise BenchError(f"server exited; see {self.log_path}")
                line += chunk
        # "repro.service listening on http://127.0.0.1:PORT (data: ...)"
        text = line.decode("utf-8", "replace")
        try:
            return int(text.split("http://", 1)[1].split(" ", 1)[0].rsplit(":", 1)[1])
        except (IndexError, ValueError) as error:
            raise BenchError(f"unexpected server banner {text!r}") from error

    def _proc_file(self, name: str) -> str:
        assert self.proc is not None
        with open(f"/proc/{self.proc.pid}/{name}", "r") as handle:
            return handle.read()

    def cpu_ticks(self) -> int:
        """Server utime + stime, in clock ticks, all threads."""
        fields = self._proc_file("stat").rsplit(")", 1)[1].split()
        return int(fields[11]) + int(fields[12])

    def peak_rss_mb(self) -> float:
        for line in self._proc_file("status").splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise BenchError("VmHWM missing from /proc status")

    def health(self) -> Dict[str, Any]:
        status, body = Client(self.port).request("GET", "/health")
        if status != 200:
            raise BenchError(f"/health answered {status}")
        return json.loads(body)

    def stop(self, timeout: float = 30.0) -> int:
        """Interrupt the server (a clean shutdown) and wait for it."""
        if self.proc is None:
            return 0
        proc, self.proc = self.proc, None
        try:
            if proc.poll() is None:
                proc.send_signal(signal.SIGINT)
            try:
                return proc.wait(timeout=timeout)
            except subprocess.TimeoutExpired:
                proc.kill()
                return proc.wait(timeout=timeout)
        finally:
            if proc.stdout is not None:
                proc.stdout.close()


class _CountingConnection(http.client.HTTPConnection):
    opened = 0

    def connect(self) -> None:
        super().connect()
        self.opened += 1


class Client:
    """One connection at a time, reused whenever the server keeps it open.

    ``connections`` counts TCP connections opened, so a keep-alive
    transport shows as fewer connections per request.
    """

    def __init__(self, port: int, timeout: float = 60.0) -> None:
        self._conn = _CountingConnection("127.0.0.1", port, timeout=timeout)
        self._retired = 0

    @property
    def connections(self) -> int:
        return self._retired + self._conn.opened

    def request(
        self,
        method: str,
        path: str,
        body: Optional[Dict[str, Any]] = None,
        request_id: Optional[str] = None,
    ) -> Tuple[int, bytes]:
        """One round trip; raises ``OSError``/``HTTPException`` on transport failure."""
        headers = {}
        data = None
        if body is not None:
            data = json.dumps(body).encode("utf-8")
            headers["Content-Type"] = "application/json"
        if request_id is not None:
            headers["X-Bench-Request"] = request_id
        try:
            self._conn.request(method, path, body=data, headers=headers)
            response = self._conn.getresponse()
            payload = response.read()
        except (OSError, http.client.HTTPException):
            self._reset()
            raise
        if response.will_close:
            self._conn.close()
        return response.status, payload

    def _reset(self) -> None:
        self._retired += self._conn.opened
        self._conn.close()
        self._conn = _CountingConnection(
            self._conn.host, self._conn.port, timeout=self._conn.timeout
        )

    def close(self) -> None:
        self._conn.close()
