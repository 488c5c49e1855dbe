"""Derive the end-to-end bounds in BENCHMARK.json from measured spread.

    python3 benchmarks/e2e/calibrate.py [--runs 10] [--first-seed 1] \\
        [--workload NAME ...] [--results PATH] [--compare PATH] [--write]

Runs ``run.py`` once per (workload, seed) for ``--runs`` consecutive
seeds, and reports for every end-to-end metric and workload the spread
of its values: the distance between the first and third quartile
(``statistics.quantiles(values, n=4)``) as a share of the median.
Every run of a workload must read the same count metrics, whatever
its seed.

A timing's or memory's bound is three times its largest spread over
the workloads, at least 5% and at most 25%; ``setup_s`` gets the
largest bound of all.  A count metric's bound is 0.1%: counts repeat
exactly, so any change to one is caught.  ``--compare``
takes an earlier ``--results`` file: the bounds then cover both sets'
spreads, and the two sets' medians must agree within them.  ``--write``
regenerates BENCHMARK.json from the bounds and the tables in
``workloads.py``.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))

from run import DEFAULT_SECONDS  # noqa: E402
from workloads import (  # noqa: E402
    BY_NAME, COUNT_METRICS, END_TO_END, PER_LAYER, WORKLOADS,
)

MAX_BOUND = 0.25
MIN_TIMING_BOUND = 0.05
#: The bound of a count metric, which repeats exactly from run to run.
COUNT_BOUND = 0.001
#: Spread multiple: a bound at three spreads leaves room for the
#: run-to-run noise of a second set of runs.
SPREAD_FACTOR = 3.0


def spread(values: Sequence[float]) -> float:
    """Quartile distance over the median (0 for constant samples)."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median if median else 0.0


def run_once(workload: str, seed: int) -> Dict[str, float]:
    """One ``run.py`` invocation's metrics, plus its duration as ``_took_s``."""
    started = time.monotonic()
    proc = subprocess.run(
        [
            sys.executable, str(HERE / "run.py"), "--workload", workload,
            "--seed", str(seed),
        ],
        cwd=ROOT, capture_output=True, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(
            f"{workload} seed {seed} failed ({proc.returncode}):\n"
            f"{proc.stdout[-2000:]}\n{proc.stderr[-2000:]}"
        )
    doc = json.loads(lines[-1])
    values = {name: m["value"] for name, m in doc["metrics"].items()}
    values["_took_s"] = time.monotonic() - started
    return values


def derive_bounds(
    spreads: Dict[str, Dict[str, float]]
) -> Dict[str, float]:
    """Per-metric bounds from per-(metric, workload) spreads."""
    bounds: Dict[str, float] = {}
    for name, _, _ in END_TO_END:
        if name in COUNT_METRICS:
            continue
        raw = max(MIN_TIMING_BOUND, SPREAD_FACTOR * max(spreads[name].values()))
        bounds[name] = min(MAX_BOUND, math.ceil(raw * 100) / 100)
    bounds["setup_s"] = max(bounds.values())
    bounds.update((name, COUNT_BOUND) for name in COUNT_METRICS)
    return bounds


def benchmark_document(bounds: Dict[str, float]) -> dict:
    """The whole BENCHMARK.json, from the workload and metric tables."""
    return {
        "command": ["python3", "benchmarks/e2e/run.py"],
        "paths": ["benchmarks/e2e"],
        "run_seconds": DEFAULT_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS],
        "end_to_end": [
            {"name": name, "unit": unit, "better": better,
             "bound": bounds[name]}
            for name, unit, better in END_TO_END
        ],
        "per_layer": [
            {"name": name, "unit": unit, "better": better}
            for name, unit, better in PER_LAYER
        ],
    }


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument(
        "--workload", action="append", choices=sorted(BY_NAME),
        help="calibrate only these workloads (repeatable; default all)",
    )
    parser.add_argument("--write", action="store_true",
                        help="regenerate BENCHMARK.json with the bounds")
    parser.add_argument("--results", help="also save raw values here (JSON)")
    parser.add_argument(
        "--compare", help="an earlier --results file to hold this set against"
    )
    args = parser.parse_args(argv)
    if args.runs < 5:
        parser.error("--runs must be at least 5")

    names = args.workload or [w.name for w in WORKLOADS]
    seeds = list(range(args.first_seed, args.first_seed + args.runs))
    values: Dict[str, Dict[str, List[float]]] = {}
    errors: List[str] = []
    for name in names:
        runs = []
        for seed in seeds:
            runs.append(run_once(name, seed))
            print(f"{name} seed {seed}: " + ", ".join(
                f"{k}={v:.6g}" for k, v in runs[-1].items()), flush=True)
        for metric in COUNT_METRICS:
            seen = sorted({run[metric] for run in runs})
            if len(seen) > 1:
                errors.append(f"{name}: {metric} differs between runs {seen}")
        values[name] = {
            metric: [run[metric] for run in runs] for metric, _, _ in END_TO_END
        }

    spreads = {
        metric: {name: spread(values[name][metric]) for name in names}
        for metric, _, _ in END_TO_END
    }
    earlier: Dict[str, Dict[str, List[float]]] = {}
    if args.compare:
        with open(args.compare) as handle:
            earlier = json.load(handle)["values"]
        for metric in spreads:
            for name in names:
                if name in earlier:
                    spreads[metric][name] = max(
                        spreads[metric][name], spread(earlier[name][metric])
                    )
    bounds = derive_bounds(spreads)
    for name in names:
        if name not in earlier:
            continue
        for metric, _, _ in END_TO_END:
            before = statistics.median(earlier[name][metric])
            now = statistics.median(values[name][metric])
            shift = abs(now - before) / before
            print(f"{name} {metric}: median {before:.6g} -> {now:.6g} "
                  f"({shift:.3f} vs bound {bounds[metric]})")
            if shift > bounds[metric]:
                errors.append(
                    f"{name}: {metric} median moved {shift:.3f} between the "
                    f"two sets, beyond its bound {bounds[metric]}"
                )
    print(f"\n{'metric':<22}" + "".join(f"{n[:18]:>20}" for n in names)
          + f"{'bound':>8}")
    for metric, _, _ in END_TO_END:
        print(f"{metric:<22}" + "".join(
            f"{spreads[metric][n]:>20.4f}" for n in names)
            + f"{bounds[metric]:>8.3f}")
    if args.results:
        with open(args.results, "w") as handle:
            json.dump({"seeds": seeds, "values": values,
                       "spreads": spreads, "bounds": bounds}, handle, indent=1)
    for error in errors:
        print(f"CHECK FAILED: {error}", file=sys.stderr)
    if errors:
        return 1
    if args.write:
        with open(ROOT / "BENCHMARK.json", "w") as handle:
            json.dump(benchmark_document(bounds), handle, indent=2)
            handle.write("\n")
        print("wrote BENCHMARK.json")
    return 0


if __name__ == "__main__":
    sys.exit(main())
