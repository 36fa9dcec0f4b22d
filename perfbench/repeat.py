"""Repeat the benchmark over seeds and record median and IQR per metric.

Usage (from the repository root)::

    python3 perfbench/repeat.py --workloads cached_queries fresh_simulate \\
        --seeds 1 2 3 4 5 --out recording.json

Runs ``perfbench/run.py`` once per (workload, seed), one after another,
and prints, for every end-to-end metric, the median and the spread
(interquartile range over median, as ``statistics.quantiles(n=4)``
gives it) of the drift-adjusted values beside those of the raw ones.
The recording keeps every run's envelope (machine, seed, probe
statistics, raw and adjusted metrics) next to the summary.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def summarize(values: List[float]) -> Dict[str, float]:
    q1, median, q3 = (
        statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
    )
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else 0.0,
        "min": min(values),
        "max": max(values),
    }


def run_once(workload: str, seed: int, seconds: int) -> Dict[str, Any]:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=str(ROOT), capture_output=True, text=True, timeout=600,
    )
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or len(lines) < 2:
        raise SystemExit(
            f"{workload} seed {seed} exited {done.returncode}:\n"
            f"{done.stdout[-2000:]}\n{done.stderr[-2000:]}"
        )
    envelope = json.loads(lines[-2])["perfbench_envelope"]
    result = json.loads(lines[-1])
    return {"envelope": envelope, "result": result}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", nargs="+", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=None,
                        help="defaults to run_seconds from BENCHMARK.json")
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    bounds = {metric["name"]: metric["bound"] for metric in spec["end_to_end"]}
    recording: Dict[str, Any] = {"seconds": seconds, "workloads": {}}
    for workload in args.workloads:
        runs = []
        for seed in args.seeds:
            runs.append(run_once(workload, seed, seconds))
            print(f"# {workload} seed {seed} done", file=sys.stderr, flush=True)
        summary = {
            name: {
                "adjusted": summarize([r["envelope"]["adjusted"][name] for r in runs]),
                "raw": summarize([r["envelope"]["raw"][name] for r in runs]),
                "bound": bounds.get(name),
            }
            for name in runs[0]["envelope"]["adjusted"]
        }
        recording["workloads"][workload] = {
            "seeds": args.seeds,
            "summary": summary,
            "runs": [run["envelope"] for run in runs],
        }
        print(f"\n{workload} ({len(runs)} runs, {seconds} s each)")
        print(f"  {'metric':24s} {'adj median':>12s} {'adj spread':>10s} "
              f"{'raw median':>12s} {'raw spread':>10s} {'bound':>6s}")
        for name, stats in summary.items():
            adjusted, raw = stats["adjusted"], stats["raw"]
            bound = stats["bound"]
            flag = "" if bound is None or adjusted["spread"] < bound / 3 else "  <-- over bound/3"
            print(f"  {name:24s} {adjusted['median']:12.5g} {adjusted['spread']:10.4f} "
                  f"{raw['median']:12.5g} {raw['spread']:10.4f} "
                  f"{bound if bound is not None else '-':>6}{flag}")
    recording["machine"] = recording["workloads"][args.workloads[0]]["runs"][0]["machine"]
    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(recording, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
