#!/usr/bin/env python
"""Asynchronous agreement, engine edition: the open problem as scenarios.

King & Saia close with: "Can we adapt our results to the asynchronous
communication model?"  The library's asynchronous substrate now runs
behind the same engine seam as everything else: each protocol is a
registered *scenario* (``bracha-broadcast``, ``async-benor``,
``common-coin-ba``) whose trials execute on the ``batch`` backend —
many independent :class:`~repro.asynchrony.scheduler.AsyncNetwork`
instances multiplexed breadth-first over delivery steps, with each
trial's scheduler and coins forked deterministically from the spec's
master seed.

The experiment itself is the paper's point in miniature:

1. Bracha reliable broadcast — already Theta(n^2) messages per use.
2. Ben-Or agreement with *local* coins — safe, but slow on split inputs.
3. The same skeleton with a *common* coin — fast, which is exactly what
   the paper's global coin subsequence provides synchronously.
   Generating such a coin asynchronously in o(n^2) bits is the open
   problem.
4. The process backend: the same common-coin sweep at 64 trials,
   sharded across pool workers (each worker rebuilds the scenario by
   name) — bit-identical results, with both wall clocks printed.

Run:  python examples/async_agreement.py
"""

import os

from repro.engine import Engine, ExperimentSpec, ProcessPoolBackend


def run(name: str, n: int, trials: int = 8, **params):
    """One scenario on the batch backend, checked against serial."""
    spec = ExperimentSpec(
        runner=name, n=n, trials=trials, seed=4, params=params
    )
    stepped = Engine("batch").run(spec)
    serial = Engine("serial").run(spec)
    assert stepped.trials == serial.trials, f"{name} diverged from serial"
    return stepped


def main():
    n = 8
    print(f"Asynchronous model as engine scenarios, n = {n}")
    print("(every result below is bit-identical on the serial backend)\n")

    print("1) bracha-broadcast — dealer 0 sends 42, 8 seeds")
    bracha = run("bracha-broadcast", n)
    print(bracha.to_table().to_text())

    print("\n2) async-benor — local coins, split inputs")
    benor = run("async-benor", n, inputs="split", scheduler="random")
    print(benor.to_table().to_text())

    print("\n3) common-coin-ba — same skeleton, common coin oracle")
    coin = run("common-coin-ba", n, inputs="split", scheduler="random")
    print(coin.to_table().to_text())

    benor_steps = benor.summary("steps").mean
    coin_steps = coin.summary("steps").mean
    speedup = benor_steps / max(1.0, coin_steps)
    print(
        f"\nmean deliveries: {benor_steps:.0f} (local coins) vs "
        f"{coin_steps:.0f} (common coin)"
    )
    print(f"speedup        : {speedup:.1f}x fewer deliveries")
    print(
        "safety holds under any fair schedule; the common coin buys "
        "liveness — asynchronously it still costs Omega(n^2) bits, "
        "which is the open problem."
    )

    print("\n4) process backend — the same sweep, 64 trials, sharded "
          "across process workers")
    sweep = ExperimentSpec(
        runner="common-coin-ba", n=n, trials=64, seed=4,
        params={"inputs": "split", "scheduler": "random"},
    )
    serial = Engine("serial").run(sweep)
    with Engine(ProcessPoolBackend(workers=2, unit_size=16)) as engine:
        sharded = engine.run(sweep)
    assert sharded.trials == serial.trials, "process diverged from serial"
    ratio = serial.elapsed_seconds / max(sharded.elapsed_seconds, 1e-9)
    cores = os.cpu_count() or 1
    print(f"  serial : {serial.elapsed_seconds:.3f}s")
    print(f"  process: {sharded.elapsed_seconds:.3f}s "
          "(2 workers, units of 16)")
    print(f"  serial/process wall clock: {ratio:.2f} on {cores} core(s)")
    print("  results are bit-identical either way: workers rebuild the "
          "scenario by name, so backend choice is pure scheduling. In a "
          "sweep this small, pool start-up and per-unit dispatch "
          "outweigh the ~4 ms trials, so the pool can be the slower side.")


if __name__ == "__main__":
    main()
