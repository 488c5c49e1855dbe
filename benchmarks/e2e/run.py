"""End-to-end benchmark of the King-Saia reproduction: one command.

    python3 benchmarks/e2e/run.py --seed S [--workload NAME] \\
        [--seconds T] [--trace [0|1]]

Runs each workload (all four without ``--workload``) in fresh
interpreters, one at a time, checks the outputs, and prints every
metric by name with its unit.  The last line of stdout is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics`` (the
end-to-end metrics, or with ``--trace 1`` the per-layer metrics of a
traced run, whose spans and counters go to ``benchmarks/e2e/trace.json``).
Exits 1 when a check fails (``"correct": false``), and 2, printing no
result, when the repository's ``src/repro`` package is missing.

``--seconds`` is part of the benchmark's calling convention, which
passes ``run_seconds`` from BENCHMARK.json; its default is that value.

Per workload, without ``--trace``: two set-up-only interpreters, then
the measured run (whose set-up is the third sample; ``setup_s`` is the
median).  See README.md for the metrics and for how timings are
normalised by a CPU probe.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

# Leave no byte-code beside the benchmark; the workload interpreters
# get PYTHONDONTWRITEBYTECODE for the same reason.
sys.dont_write_bytecode = True

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
TRACE_OUT = HERE / "trace.json"
sys.path.insert(0, str(HERE))

from workloads import BY_NAME, END_TO_END, PER_LAYER, WORKLOADS  # noqa: E402

DEFAULT_SECONDS = 10
SETUP_SAMPLES = 3
#: Every interpreter of one workload ends within this many seconds of
#: the workload's start, or is killed (the run then fails).
WORKLOAD_DEADLINE_S = 160.0


def child_env() -> Dict[str, str]:
    """The workload interpreters' environment: this tree's ``src``,
    a fixed hash seed, and one thread per native math library."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    for var in (
        "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
        "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
    ):
        env[var] = "1"
    return env


def run_child(
    workload: str, seed: int, seconds: float, mode: str, deadline: float
) -> Dict[str, Any]:
    """One workload interpreter; returns its JSON document.

    The child gets its own process group, so a timeout also stops the
    worker processes it started.
    """
    cmd = [
        sys.executable, str(HERE / "workloads.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--mode", mode,
        "--t0", repr(time.time()),
        "--trace-out", str(TRACE_OUT),
    ]
    proc = subprocess.Popen(
        cmd,
        cwd=ROOT,
        env=child_env(),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        stdout, stderr = proc.communicate(
            timeout=max(1.0, deadline - time.monotonic())
        )
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RuntimeError(f"{workload} ({mode}) timed out") from None
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(
            f"{workload} ({mode}) exited {proc.returncode}:\n{stderr[-4000:]}"
        )
    return json.loads(lines[-1])


def measure(
    workload: str, seed: int, seconds: float, trace: bool
) -> Dict[str, Any]:
    """All interpreters of one workload; the measured run's document."""
    deadline = time.monotonic() + WORKLOAD_DEADLINE_S
    setups: List[float] = []
    if not trace:
        for _ in range(SETUP_SAMPLES - 1):
            out = run_child(workload, seed, seconds, "setup", deadline)
            setups.append(out["setup_s"])
    out = run_child(
        workload, seed, seconds, "trace" if trace else "run", deadline
    )
    if not trace:
        setups.append(out["setup_s"])
        out["metrics"]["setup_s"] = statistics.median(setups)
        out["setup_samples"] = setups
    return out


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="End-to-end benchmark (see benchmarks/e2e/README.md)."
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument(
        "--workload", choices=sorted(BY_NAME),
        help="run one workload (default: all, one after another)",
    )
    parser.add_argument(
        "--seconds", type=float, default=DEFAULT_SECONDS,
        help="measured seconds per run (default %(default)s)",
    )
    parser.add_argument(
        "--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
        help="1: traced run, per-layer metrics, benchmarks/e2e/trace.json",
    )
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: {SRC / 'repro'} not found; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2

    names = [args.workload] if args.workload else [w.name for w in WORKLOADS]
    table = PER_LAYER if args.trace else END_TO_END
    combined: Dict[str, Any] = {}
    traces: Dict[str, Any] = {}
    errors: List[str] = []
    attempted = failed = 0
    for name in names:
        try:
            out = measure(name, args.seed, args.seconds, bool(args.trace))
        except RuntimeError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        attempted += out["attempted"]
        failed += out["failed"]
        errors.extend(out["errors"])
        print(
            f"[{name}] seed={args.seed} attempted={out['attempted']} "
            f"failed={out['failed']} batches={out['batches']} "
            f"wall_s={out['wall_s']:.2f} "
            f"latency_samples={out['latency_samples']} "
            "probe_ms(min/median/max)="
            + "/".join(
                f"{p:.1f}" for p in (
                    min(out["probe_ms"]), statistics.median(out["probe_ms"]),
                    max(out["probe_ms"]),
                )
            )
        )
        for metric, unit, _ in table:
            value = out["metrics"][metric]
            print(f"  {metric:<34} {value:>16.6g} {unit}")
            key = metric if len(names) == 1 else f"{name}.{metric}"
            combined[key] = {"value": value, "unit": unit}
        if args.trace:
            with open(TRACE_OUT) as handle:
                traces[name] = json.load(handle)
    if args.trace:
        with open(TRACE_OUT, "w") as handle:
            json.dump(traces, handle)
    for error in errors:
        print(f"CHECK FAILED: {error}", file=sys.stderr)
    correct = not errors and not failed
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": combined,
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
