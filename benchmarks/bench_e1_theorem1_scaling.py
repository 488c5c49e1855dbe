"""E1 — Theorem 1: everywhere BA in O~(sqrt(n)) bits/processor, polylog time.

Reproduces the paper's headline claim as three series, all driven
through :mod:`repro.engine` (the ``--engine-backend`` option flips the
execution backend suite-wide):

* measured: full message-level runs at simulation scale (fault-free and
  at 10% adaptive corruption), reporting max bits per good processor,
  rounds, agreement, and validity;
* modelled: the closed-form cost curves at large n, showing the
  sqrt-shaped growth against the quadratic baselines (who wins, and by
  roughly what factor);
* engine scaling: the same experiment spec sharded over a process pool —
  serial vs 4-worker wall clock on a 32-trial sweep.
"""

import math
import os
import time

import pytest

from conftest import print_table
from repro.analysis.costmodel import (
    everywhere_ba_bits_simulation,
    phase_king_bits_per_processor,
    rabin_bits_per_processor,
)
from repro.engine import (
    Engine,
    ExperimentSpec,
    ProcessPoolBackend,
    SerialBackend,
)


def _spec(n, corrupt, seed, trials=1):
    return ExperimentSpec(
        runner="everywhere-ba",
        n=n,
        trials=trials,
        seed=seed,
        params={"corrupt": corrupt, "inputs": "split"},
    )


def test_e1_theorem1_scaling(benchmark, capsys, engine):
    measured_rows = []
    for n in (27, 54):
        clean = engine.run(_spec(n, corrupt=0.0, seed=41))
        attacked = engine.run(_spec(n, corrupt=0.1, seed=42))
        measured_rows.append(
            (
                n,
                f"{clean.summary('max_bits_per_processor').mean:,.0f}",
                f"{attacked.summary('max_bits_per_processor').mean:,.0f}",
                f"{clean.summary('rounds').mean:.0f}",
                f"{attacked.summary('agreement').mean:.2f}",
                attacked.summary("valid").mean == 1.0,
            )
        )
        assert clean.failure_count == 0
        assert attacked.failure_count == 0
    benchmark.pedantic(
        lambda: Engine("serial").run(_spec(27, corrupt=0.07, seed=43)),
        rounds=1,
        iterations=1,
    )
    print_table(
        capsys,
        "E1a measured: everywhere BA (message-level simulation, "
        "repro.engine)",
        ["n", "bits/proc (clean)", "bits/proc (10% adv)", "rounds",
         "agreement", "valid"],
        measured_rows,
        note="Theorem 1: agreement+validity hold; rounds stay polylog.",
    )

    model_rows = []
    for exp in (8, 12, 16, 20, 24):
        n = 1 << exp
        ours = everywhere_ba_bits_simulation(n)
        pk = phase_king_bits_per_processor(n)
        rb = rabin_bits_per_processor(n)
        model_rows.append(
            (
                f"2^{exp}",
                f"{ours:.3g}",
                f"{pk:.3g}",
                f"{rb:.3g}",
                f"{pk / ours:.1f}x" if ours < pk else "baseline wins",
            )
        )
    print_table(
        capsys,
        "E1b modelled: bits/processor at scale (simulation constants)",
        ["n", "this paper", "phase king (n^2)", "rabin (n)", "advantage"],
        model_rows,
        note="Shape check: ours ~ sqrt(n) polylog; baselines ~ n^2 / n.",
    )

    # Sanity: the sqrt-shaped curve must win asymptotically.  Against
    # quadratic Phase King the crossover is early; against linear Rabin
    # the sqrt curve's polylog constants push it to ~2x10^8 (E12 locates
    # it exactly), so the check runs above that.
    assert everywhere_ba_bits_simulation(1 << 24) < (
        phase_king_bits_per_processor(1 << 24)
    )
    assert everywhere_ba_bits_simulation(1 << 34) < (
        rabin_bits_per_processor(1 << 34)
    )


def _usable_cores() -> int:
    """Cores this process may actually run on.

    ``sched_getaffinity`` respects cpuset restrictions (containers, CI
    runners pinned to a slice of a big host), where ``cpu_count`` would
    over-report and turn the speedup assertion into a timing flake.
    """
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # non-Linux
        return os.cpu_count() or 1


def test_e1c_engine_sharding_speedup(capsys):
    """One spec, two backends: 32 trials serial vs a 4-worker pool.

    The trials are bit-identical by construction (seeds derive from the
    spec, never the backend); only the wall clock may differ.  The >= 2x
    speedup assertion applies where 4 workers can actually run in
    parallel — on fewer cores the comparison is still printed so the
    dispatch overhead stays visible.
    """
    trials = 32
    workers = 4
    spec = _spec(9, corrupt=0.1, seed=7, trials=trials)

    start = time.perf_counter()
    serial = Engine(SerialBackend()).run(spec)
    serial_s = time.perf_counter() - start

    start = time.perf_counter()
    with Engine(ProcessPoolBackend(workers=workers)) as engine:
        sharded = engine.run(spec)
    sharded_s = time.perf_counter() - start

    assert serial.trials == sharded.trials  # bit-identical shard merge
    speedup = serial_s / sharded_s if sharded_s else float("inf")
    cores = _usable_cores()
    print_table(
        capsys,
        f"E1c engine sharding: {trials} trials of everywhere-ba(n=9, "
        f"10% adv) on {cores} core(s)",
        ["backend", "wall clock", "speedup", "failures"],
        [
            ("serial", f"{serial_s:.2f}s", "1.0x", serial.failure_count),
            (
                f"process x{workers}",
                f"{sharded_s:.2f}s",
                f"{speedup:.2f}x",
                sharded.failure_count,
            ),
        ],
        note=(
            "Per-trial seeds derive from the spec, so the shard merge is "
            "bit-identical to the serial run; with >= 4 cores the pool "
            "must cut wall clock by >= 2x."
        ),
    )
    assert serial.failure_count == 0
    # The hard floor needs `workers` genuinely parallel cores; loaded or
    # throttled hosts can export REPRO_RELAX_TIMING=1 to keep the
    # measurement without the assertion (sched_getaffinity sees cpusets
    # but not cgroup CPU quotas or co-tenants).
    if cores >= workers and not os.environ.get("REPRO_RELAX_TIMING"):
        assert speedup >= 2.0, (
            f"expected >= 2x speedup with {workers} workers on {cores} "
            f"cores, measured {speedup:.2f}x (set REPRO_RELAX_TIMING=1 "
            f"on oversubscribed hosts)"
        )
