"""Machine-readable perf baseline: the repo's reconstruction fast paths.

The ROADMAP's north star is "as fast as the hardware allows", but until
this harness existed no speedup was ever *recorded* — so none was ever
*protected*.  ``run_suites`` times the reconstruction-heavy workloads
(the shapes of benches E9, E17 and E19) on both the naive reference
kernels (:mod:`repro.crypto.polynomial`) and the cached plan kernels
(:mod:`repro.crypto.kernels`), plus a simulator round-loop micro-bench,
and emits one JSON document — ``BENCH_core.json`` — that seeds the
repo's perf trajectory.

Gating: :func:`compare` checks a fresh run against the committed
baseline.  Because absolute wall-clock is machine-bound, the gate
compares the **dimensionless speedups** (plan vs naive on identical
inputs — the suites that emit a ``speedup`` field); a suite whose
speedup drops by more than ``--max-regression`` (default 25%)
soft-fails with exit code 3, which CI surfaces via a
``continue-on-error`` job.  Wall-clock fields, the simulator
``null_vs_tracked`` ratio and the engine ``dispatch_overhead`` /
``telemetry_overhead`` micro-benches are recorded for trend reading,
not gated.

Entry points:

* ``python benchmarks/perf_gate.py [--quick] [--out F] [--baseline F]``
* ``python -m repro bench --json [--quick] [--out F] [--baseline F]``

Every suite also asserts bit-exact parity between the naive and plan
results before timing is trusted — a gate that records a speedup for a
wrong answer would be worse than no gate.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time
from typing import Any, Dict, List, Optional, Sequence

SCHEMA = "repro-perf-gate/1"

#: Exit code for a soft regression (CI marks the step continue-on-error).
EXIT_REGRESSION = 3


def _time(fn, reps: int) -> float:
    start = time.perf_counter()
    for _ in range(reps):
        fn()
    return time.perf_counter() - start


def _suite_e9_reconstruct(quick: bool) -> Dict[str, Any]:
    """E9 shape: iterated-sharing reconstruction at n=64 (threshold 33).

    Reconstruct-at-0 over the fixed player grid — the exact call
    ``sendDown`` and ``ShareTree.reconstruct_from`` bottom out in.
    """
    from repro.crypto import kernels
    from repro.crypto.field import DEFAULT_FIELD as field
    from repro.crypto.polynomial import interpolate_constant
    from repro.crypto.shamir import ShamirScheme, paper_threshold

    threshold = paper_threshold(64)
    scheme = ShamirScheme(n_players=64, threshold=threshold)
    rng = random.Random(0xE9)
    pools = []
    for _ in range(16):
        shares = scheme.deal(rng.randrange(field.modulus), rng)
        pools.append([(s.x, s.value) for s in shares[:threshold]])

    for pool in pools:  # parity before speed
        assert kernels.interpolate_constant(field, pool) == (
            interpolate_constant(field, pool)
        )

    reps = 40 if quick else 400

    def naive() -> None:
        for pool in pools:
            interpolate_constant(field, pool)

    def plan() -> None:
        for pool in pools:
            kernels.interpolate_constant(field, pool)

    naive_s = _time(naive, reps)
    plan_s = _time(plan, reps)
    ops = reps * len(pools)
    return {
        "desc": "reconstruct-at-0, grid 1..33 (n=64 iterated sharing)",
        "ops": ops,
        "naive_s": round(naive_s, 6),
        "plan_s": round(plan_s, 6),
        "plan_us_per_op": round(plan_s / ops * 1e6, 3),
        "speedup": round(naive_s / plan_s, 2) if plan_s else float("inf"),
        "parity": True,
    }


def _suite_e17_row_check(quick: bool) -> Dict[str, Any]:
    """E17 shape: bivariate VSS row-degree verification at n=64.

    Predict every off-basis point of a dealt row from the first
    ``threshold`` points — the echo-phase hot loop of the VSS ablation.
    """
    from repro.crypto import kernels
    from repro.crypto.bivariate import BivariateScheme
    from repro.crypto.field import DEFAULT_FIELD as field
    from repro.crypto.polynomial import lagrange_interpolate_at
    from repro.crypto.shamir import paper_threshold

    n = 64
    scheme = BivariateScheme(n_players=n, threshold=paper_threshold(n))
    rng = random.Random(0xE17)
    rows = scheme.deal(123456789, rng)[:4]
    t = scheme.threshold

    def check_with(predict) -> bool:
        ok = True
        for row in rows:
            points = [(y, row.values[y]) for y in range(n + 1)]
            basis, rest = points[:t], points[t:]
            for y, value in rest:
                ok &= predict(basis, y) == value
        return ok

    def naive_predict(basis, y):
        return lagrange_interpolate_at(field, basis, y)

    def plan_predict(basis, y):
        return kernels.interpolate_at(field, basis, y)

    assert check_with(naive_predict) and check_with(plan_predict)

    reps = 2 if quick else 12
    naive_s = _time(lambda: check_with(naive_predict), reps)
    plan_s = _time(lambda: check_with(plan_predict), reps)
    ops = reps * len(rows) * (n + 1 - t)
    return {
        "desc": "bivariate row-degree checks (n=64 VSS ablation)",
        "ops": ops,
        "naive_s": round(naive_s, 6),
        "plan_s": round(plan_s, 6),
        "plan_us_per_op": round(plan_s / ops * 1e6, 3),
        "speedup": round(naive_s / plan_s, 2) if plan_s else float("inf"),
        "parity": True,
    }


def _suite_e9_batch_reveal(quick: bool) -> Dict[str, Any]:
    """E9 shape, batched: windowed robust reveal across many dealers.

    The exact call shape of ``VSSCoinMember._reveal_secrets``: every
    dealer's share pool sits on the same member grid, and each pool is
    probed through the same ``ROBUST_REVEAL_WINDOWS`` threshold-sized
    windows.  The baseline is the *plan path* (the repo's previous fast
    path: one cached-lambda dot product per (dealer, window) pair); the
    batched path collapses all pairs into a single ``(dealers, k) @
    (k, windows)`` product via
    :func:`~repro.crypto.kernels.interpolate_windows_at_zero`.
    """
    from itertools import combinations, islice

    from repro.crypto import kernels
    from repro.crypto.field import DEFAULT_FIELD as field
    from repro.crypto.shamir import ShamirScheme, paper_threshold

    n = 64
    threshold = paper_threshold(n)
    scheme = ShamirScheme(n_players=n, threshold=threshold)
    rng = random.Random(0xE9B)
    dealers = 16
    secrets = [rng.randrange(field.modulus) for _ in range(dealers)]
    pools = scheme.deal_many(secrets, rng)
    xs = [share.x for share in pools[0]]
    ys_rows = [[share.value for share in pool] for pool in pools]
    windows = [
        tuple(combo)
        for combo in islice(combinations(range(n), threshold), 40)
    ]

    def plan() -> List[List[int]]:
        return [
            [
                kernels.interpolate_constant(
                    field, [(xs[i], ys[i]) for i in combo]
                )
                for combo in windows
            ]
            for ys in ys_rows
        ]

    def batched() -> List[List[int]]:
        return kernels.interpolate_windows_at_zero(
            field, xs, ys_rows, windows
        )

    expected = plan()
    assert batched() == expected  # parity before speed
    assert all(
        value == secret
        for row, secret in zip(expected, secrets)
        for value in row
    )

    reps = 2 if quick else 10
    plan_s = _time(plan, reps)
    batch_s = _time(batched, reps)
    ops = reps * dealers * len(windows)
    return {
        "desc": (
            f"windowed robust reveal: {dealers} dealers x "
            f"{len(windows)} windows, grid 1..{n}"
        ),
        "engine": kernels.batch_engine(field),
        "ops": ops,
        "plan_s": round(plan_s, 6),
        "batch_s": round(batch_s, 6),
        "batch_us_per_op": round(batch_s / ops * 1e6, 3),
        "speedup": round(plan_s / batch_s, 2) if batch_s else float("inf"),
        "parity": True,
    }


def _suite_e17_batch_rows(quick: bool) -> Dict[str, Any]:
    """E17 shape, batched: a whole dealing's row-degree checks at once.

    The baseline is the plan path (``row_degree_ok``: one cached-lambda
    dot product per off-basis point); the batched path is
    ``rows_degree_ok`` — every row of the dealing predicted through one
    ``(rows, t) @ (t, rest)`` product against the shared basis grid.
    """
    from repro.crypto import kernels
    from repro.crypto.bivariate import BivariateScheme
    from repro.crypto.field import DEFAULT_FIELD as field
    from repro.crypto.shamir import paper_threshold

    n = 64
    scheme = BivariateScheme(n_players=n, threshold=paper_threshold(n))
    rng = random.Random(0xE17B)
    rows = scheme.deal(rng.randrange(field.modulus), rng)
    # One tampered row keeps the False path honest in the parity check.
    bad = rows[3]
    bad_values = list(bad.values)
    bad_values[-1] = (bad_values[-1] + 1) % field.modulus
    rows[3] = type(bad)(x=bad.x, values=tuple(bad_values))

    def plan() -> List[bool]:
        return [scheme.row_degree_ok(row) for row in rows]

    def batched() -> List[bool]:
        return scheme.rows_degree_ok(rows)

    expected = plan()
    assert batched() == expected  # parity before speed
    assert not expected[3] and all(expected[:3] + expected[4:])

    reps = 2 if quick else 12
    plan_s = _time(plan, reps)
    batch_s = _time(batched, reps)
    ops = reps * len(rows) * (n + 1 - scheme.threshold)
    return {
        "desc": (
            f"row-degree checks, whole dealing ({len(rows)} rows) at "
            f"n={n}"
        ),
        "engine": kernels.batch_engine(field),
        "ops": ops,
        "plan_s": round(plan_s, 6),
        "batch_s": round(batch_s, 6),
        "batch_us_per_op": round(batch_s / ops * 1e6, 3),
        "speedup": round(plan_s / batch_s, 2) if batch_s else float("inf"),
        "parity": True,
    }


def _suite_rs_decode(quick: bool) -> Dict[str, Any]:
    """sendDown's decode shape: 8 shares, threshold 3, one wrong value.

    Under the adaptive adversary nearly every pool ``send_down`` decodes
    looks like this.  The baseline is the key-equation solve
    (``_solve_key_equation``); ``berlekamp_welch`` returns the same
    coefficients from the first window of 3 shares whose polynomial
    misses at most 2 pool points.
    """
    from repro.crypto.field import DEFAULT_FIELD as field
    from repro.crypto.polynomial import evaluate, random_polynomial
    from repro.crypto.reed_solomon import (
        _solve_key_equation,
        berlekamp_welch,
    )

    m, t = 8, 3
    rng = random.Random(0x85)
    pools = []
    for _ in range(64):
        poly = random_polynomial(
            field, rng.randrange(field.modulus), t - 1, rng
        )
        pool = [(x, evaluate(field, poly, x)) for x in range(1, m + 1)]
        i = rng.randrange(m)
        x, y = pool[i]
        pool[i] = (x, (y + 1 + rng.randrange(field.modulus - 1))
                   % field.modulus)
        pools.append(pool)

    def solve() -> List[Any]:
        return [_solve_key_equation(field, pool, t) for pool in pools]

    def windows() -> List[Any]:
        return [berlekamp_welch(field, pool, t) for pool in pools]

    expected = solve()
    assert windows() == expected  # parity before speed
    assert None not in expected

    reps = 8 if quick else 80
    solve_s = _time(solve, reps)
    windows_s = _time(windows, reps)
    ops = reps * len(pools)
    return {
        "desc": (
            f"Berlekamp-Welch decode, {len(pools)} pools of {m} shares, "
            f"threshold {t}, one wrong value each"
        ),
        "ops": ops,
        "solve_s": round(solve_s, 6),
        "windows_s": round(windows_s, 6),
        "windows_us_per_op": round(windows_s / ops * 1e6, 3),
        "speedup": (
            round(solve_s / windows_s, 2) if windows_s else float("inf")
        ),
        "parity": True,
    }


def _suite_e19_vss_coin(quick: bool) -> Dict[str, Any]:
    """E19 end-to-end: full VSS-coin protocol runs (wall-clock trend).

    No naive twin — this is the whole stack (bivariate dealing, echo,
    blame, robust reveal) through the simulator; recorded so the
    trajectory of the integrated path is visible commit over commit.
    """
    from repro.core.vss_coin import run_vss_coin

    k = 7 if quick else 16
    reps = 2 if quick else 4
    results = []

    def run() -> None:
        results.append(run_vss_coin(k, seed=len(results)))

    seconds = _time(run, reps)
    assert all(r.halted for r in results)
    return {
        "desc": f"full vss-coin toss, k={k} committee",
        "ops": reps,
        "seconds": round(seconds, 6),
        "s_per_op": round(seconds / reps, 6),
    }


def _suite_sim_round_loop(quick: bool) -> Dict[str, Any]:
    """Simulator micro-bench: NullAdversary fast path vs tracked path.

    The same ping protocol under (a) an exact ``NullAdversary`` — which
    skips corruption scans, the rushing view and adversary dispatch, and
    reuses inbox buffers — and (b) a do-nothing ``Adversary`` subclass
    that still pays the full bookkeeping.  Outputs must match exactly.
    """
    from repro.net.messages import Message
    from repro.net.simulator import (
        Adversary,
        NullAdversary,
        ProcessorProtocol,
        SyncNetwork,
    )

    n = 32
    rounds = 40 if quick else 200

    class Ping(ProcessorProtocol):
        def on_round(self, round_no, inbox):
            return [
                Message(self.pid, (self.pid + j) % n, "ping", round_no)
                for j in range(1, 5)
            ]

        def output(self):
            return None

    class TrackedIdle(Adversary):
        def __init__(self, count: int) -> None:
            super().__init__(count, budget=0)

        def act(self, view):
            return []

    def drive(adversary) -> int:
        net = SyncNetwork([Ping(pid) for pid in range(n)], adversary)
        for rnd in range(1, rounds + 1):
            net.step(rnd)
        return net.ledger.total_bits()

    fast_bits = drive(NullAdversary(n))
    tracked_bits = drive(TrackedIdle(n))
    assert fast_bits == tracked_bits  # identical executions

    reps = 1 if quick else 3
    tracked_s = _time(lambda: drive(TrackedIdle(n)), reps)
    fast_s = _time(lambda: drive(NullAdversary(n)), reps)
    ops = reps * rounds
    # null_vs_tracked is informational, not gated: buffer reuse benefits
    # both paths, so the remaining delta (skipped corruption scans and
    # rushing views) is small and noisy on shared runners.
    return {
        "desc": f"sync round loop, n={n}, {rounds} rounds, 4 msgs/proc",
        "ops": ops,
        "tracked_s": round(tracked_s, 6),
        "fast_s": round(fast_s, 6),
        "fast_us_per_round": round(fast_s / ops * 1e6, 3),
        "null_vs_tracked": (
            round(tracked_s / fast_s, 2) if fast_s else float("inf")
        ),
        "parity": True,
    }


def _suite_dispatch_overhead(quick: bool) -> Dict[str, Any]:
    """Dispatch-plane bookkeeping per work unit (trend, not gated).

    Every sharded backend (process, distributed) routes units
    through ``plan_grid`` + ``run_units``; this measures what that
    plumbing costs over a bare serial loop by driving no-op trials
    through the in-process ``InlineTransport`` at unit size 1 — the
    worst case, one full submit/collect/merge round per trial.  Real
    workloads amortise this over multi-trial units and actual protocol
    work; the number recorded here is the ceiling on what the dispatch
    refactor can ever cost a sweep.
    """
    from repro.engine import (
        ExperimentSpec,
        Scenario,
        TrialResult,
        register,
    )
    from repro.engine.dispatch import (
        DispatchPlan,
        InlineTransport,
        run_one_trial,
        run_units,
    )

    def _noop_trial(ctx) -> TrialResult:
        return TrialResult(
            trial_index=ctx.trial_index, seed=ctx.seed,
            metrics=(("one", 1.0),),
        )

    register(
        Scenario(
            name="perf-gate-noop",
            run_trial=_noop_trial,
            description="perf-gate only: a free trial",
        )
    )
    trials = 128 if quick else 512
    spec = ExperimentSpec(runner="perf-gate-noop", n=1, trials=trials)
    units = DispatchPlan(trials=trials, unit_size=1).units(spec)

    def serial() -> List[Any]:
        return [run_one_trial(spec, i) for i in range(trials)]

    def dispatched() -> List[Any]:
        return run_units(units, InlineTransport())

    assert serial() == dispatched()  # parity before timing

    reps = 4 if quick else 20
    serial_s = _time(serial, reps)
    dispatched_s = _time(dispatched, reps)
    ops = reps * trials
    return {
        "desc": f"run_units vs bare loop, {trials} no-op units of 1 trial",
        "ops": ops,
        "serial_s": round(serial_s, 6),
        "dispatched_s": round(dispatched_s, 6),
        "dispatch_us_per_unit": round(
            max(0.0, dispatched_s - serial_s) / ops * 1e6, 3
        ),
        "parity": True,
    }


def _suite_telemetry_overhead(quick: bool) -> Dict[str, Any]:
    """Telemetry-plane cost over a real sweep (trend, not gated).

    The telemetry layer is always on — every backend records per-unit
    spans — so its cost must stay in the noise.  Two measurements:

    * ``overhead_fraction``: a full ``SerialBackend`` sweep of a real
      scenario (per-trial spans, report-ready records) against a bare
      ``run_one_trial`` loop over the same spec.  This is the number
      the <5% budget is judged against.
    * ``span_us_per_unit``: ``run_units`` over no-op units with a live
      ``RunTelemetry`` vs with ``telemetry=None`` — the absolute
      bookkeeping cost per unit attempt, worst case (free trials).
    """
    from repro.engine import (
        ExperimentSpec,
        Scenario,
        SerialBackend,
        TrialResult,
        register,
    )
    from repro.engine.backends import run_one_trial
    from repro.engine.dispatch import (
        DispatchPlan,
        InlineTransport,
        run_units,
    )
    from repro.engine.telemetry import RunTelemetry

    def _noop_trial(ctx) -> TrialResult:
        return TrialResult(
            trial_index=ctx.trial_index, seed=ctx.seed,
            metrics=(("one", 1.0),),
        )

    # Idempotent re-registration: suites must not depend on run order.
    register(
        Scenario(
            name="perf-gate-noop",
            run_trial=_noop_trial,
            description="perf-gate only: a free trial",
        )
    )

    spec = ExperimentSpec(
        runner="bracha-broadcast", n=5, trials=8 if quick else 24, seed=7
    )

    def bare() -> List[Any]:
        return [run_one_trial(spec, i) for i in range(spec.trials)]

    def telemetered() -> List[Any]:
        return SerialBackend().run_trials(spec)

    assert bare() == telemetered()  # telemetry must not perturb results

    reps = 2 if quick else 6
    bare_s = _time(bare, reps)
    telemetered_s = _time(telemetered, reps)

    # Worst-case per-unit span cost: free trials through the dispatch
    # plane, with and without a live telemetry sink.
    noop_trials = 128 if quick else 512
    noop_spec = ExperimentSpec(runner="perf-gate-noop", n=1, trials=noop_trials)
    units = DispatchPlan(trials=noop_trials, unit_size=1).units(noop_spec)
    span_reps = 4 if quick else 20

    def plain() -> List[Any]:
        return run_units(units, InlineTransport())

    def spanned() -> List[Any]:
        telemetry = RunTelemetry(backend="bench", total_trials=noop_trials)
        out = run_units(units, InlineTransport(), telemetry=telemetry)
        telemetry.finish()
        return out

    assert plain() == spanned()

    plain_s = _time(plain, span_reps)
    spanned_s = _time(spanned, span_reps)
    span_ops = span_reps * noop_trials
    return {
        "desc": (
            f"serial sweep w/ telemetry vs bare loop, "
            f"{spec.trials} bracha-broadcast trials"
        ),
        "ops": reps * spec.trials,
        "bare_s": round(bare_s, 6),
        "telemetered_s": round(telemetered_s, 6),
        "overhead_fraction": round(
            max(0.0, telemetered_s - bare_s) / bare_s, 4
        ) if bare_s else 0.0,
        "span_us_per_unit": round(
            max(0.0, spanned_s - plain_s) / span_ops * 1e6, 3
        ),
        "parity": True,
    }


def _suite_cost_dispatch_mixed_n(quick: bool) -> Dict[str, Any]:
    """Cost-sized vs uniform shard geometry on a mixed-n grid (GATED).

    The workload the cost plane exists for: one grid mixing many cheap
    phase-king sweeps (n=8) with a few expensive ones (n=40, ~100x the
    per-trial work).  Uniform geometry sizes units by trial count, so
    the expensive spec collapses into a couple of huge units that
    leave most lanes idle; the planner's cost-sized geometry bins by
    predicted per-trial cost, splitting the expensive trials across
    lanes.  The uniform baseline is built inline: one plan per spec, in
    spec order, at the trial-count rule's size.

    The gated ``speedup`` is the ratio of the two plans' *makespans*
    under the collect loop's own scheduling discipline (units in
    submit order, each to the earliest-free lane), with per-unit
    durations taken from measured per-trial wall time of each spec —
    i.e. the model prices the plan, the clock prices the trials.  Both
    modes use the same grid, so quick and full runs land on the same
    ratio (only the timing repetitions differ).  Parity of the fused
    grid path against bare serial loops is asserted before timing.
    """
    from repro.engine import ExperimentSpec
    from repro.engine.costplan import GRID_PARTS_PER_WORKER, plan_grid
    from repro.engine.dispatch import (
        DispatchPlan,
        InlineTransport,
        run_one_trial,
        run_units,
    )

    lanes = 4
    light = ExperimentSpec(runner="phase-king", n=8, trials=96, seed=11)
    heavy = ExperimentSpec(runner="phase-king", n=40, trials=12, seed=11)
    specs = [light, heavy]

    # Parity first, on a scaled-down copy of the same grid shape: the
    # fused cost-sized path must be bit-identical to bare serial loops.
    parity_specs = [
        ExperimentSpec(runner="phase-king", n=8, trials=12, seed=11),
        ExperimentSpec(runner="phase-king", n=24, trials=3, seed=11),
    ]
    parity_units = plan_grid(parity_specs, capacity=lanes)
    merged = run_units(parity_units, InlineTransport())
    serial = [
        run_one_trial(spec, i)
        for spec in dict.fromkeys(u.spec for u in parity_units)
        for i in range(spec.trials)
    ]
    assert merged == serial  # parity before timing

    # Measured per-trial seconds per spec (the simulation's clock).
    light_reps, light_count = (2, 8) if quick else (6, 16)
    heavy_reps, heavy_count = (1, 2) if quick else (3, 3)

    def _light_batch() -> List[Any]:
        return [run_one_trial(light, i) for i in range(light_count)]

    def _heavy_batch() -> List[Any]:
        return [run_one_trial(heavy, i) for i in range(heavy_count)]

    _light_batch(), _heavy_batch()  # warm caches before the clock starts
    per_trial = {
        light: _time(_light_batch, light_reps) / (light_reps * light_count),
        heavy: _time(_heavy_batch, heavy_reps) / (heavy_reps * heavy_count),
    }

    def _makespan(units: List[Any]) -> float:
        free = [0.0] * lanes
        for unit in units:
            lane = min(range(lanes), key=free.__getitem__)
            free[lane] += len(unit.indices) * per_trial[unit.spec]
        return max(free)

    uniform_size = round(
        sum(spec.trials for spec in specs) / (lanes * GRID_PARTS_PER_WORKER)
    )
    uniform_units = [
        unit
        for spec in specs
        for unit in DispatchPlan(spec.trials, uniform_size).units(spec)
    ]
    cost_units = plan_grid(specs, capacity=lanes)
    uniform_s = _makespan(uniform_units)
    cost_s = _makespan(cost_units)
    return {
        "desc": (
            f"mixed-n phase-king grid (n=8 x{light.trials} + "
            f"n=40 x{heavy.trials}), {lanes} lanes: cost-sized vs "
            "uniform unit geometry, measured-trial makespan"
        ),
        "ops": light.trials + heavy.trials,
        "uniform_units": len(uniform_units),
        "cost_units": len(cost_units),
        "uniform_makespan_s": round(uniform_s, 6),
        "cost_makespan_s": round(cost_s, 6),
        "speedup": round(uniform_s / cost_s, 2) if cost_s else 0.0,
        "parity": True,
    }


class _LinkRelay:
    """A loopback TCP relay that adds fixed one-way latency per direction.

    The benchmark link: every byte is delivered, in order, ``delay``
    seconds after it arrived — latency without any throughput limit,
    which is exactly the shape of the real links the lane pipeline
    exists to hide (bare loopback has ~10 us round trips, so a
    latency-hiding optimisation measured against it would be measuring
    nothing).  Both the baseline and the pipelined path dial the same
    relay, so the comparison isolates the client's exchange discipline.
    """

    def __init__(self, host: str, port: int, delay: float) -> None:
        import socket
        import threading

        self._socket = socket
        self._threading = threading
        self.target = (host, port)
        self.delay = delay
        self._listener = socket.socket()
        self._listener.bind(("127.0.0.1", 0))
        self._listener.listen(8)
        self.host, self.port = self._listener.getsockname()[:2]
        threading.Thread(
            target=self._accept_loop, name="perf-gate-relay", daemon=True
        ).start()

    def _accept_loop(self) -> None:
        socket = self._socket
        while True:
            try:
                inbound, _ = self._listener.accept()
            except OSError:
                return
            outbound = socket.create_connection(self.target)
            for sock in (inbound, outbound):
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            self._pump(inbound, outbound)
            self._pump(outbound, inbound)

    def _pump(self, src, dst) -> None:
        """One direction: a reader stamps arrival deadlines, a writer
        holds each chunk until its deadline — chunks queue behind each
        other without the delays adding up (throughput is unshaped)."""
        import queue

        handoff: "queue.Queue" = queue.Queue()

        def reader() -> None:
            while True:
                try:
                    data = src.recv(65536)
                except OSError:
                    data = b""
                handoff.put((time.perf_counter() + self.delay, data))
                if not data:
                    return

        def writer() -> None:
            socket = self._socket
            while True:
                deadline, data = handoff.get()
                wait = deadline - time.perf_counter()
                if wait > 0:
                    time.sleep(wait)
                if not data:
                    try:
                        dst.shutdown(socket.SHUT_WR)
                    except OSError:
                        pass
                    return
                try:
                    dst.sendall(data)
                except OSError:
                    return

        for fn in (reader, writer):
            self._threading.Thread(target=fn, daemon=True).start()

    def close(self) -> None:
        try:
            self._listener.close()
        except OSError:
            pass


def _suite_dispatch_wire(quick: bool) -> Dict[str, Any]:
    """Pipelined lanes vs one exchange in flight (GATED).

    The data-plane workload pipelining exists for: many small work
    units whose round trips — not whose compute — dominate the sweep.
    One in-process ``WorkerServer``, reached through a loopback
    :class:`_LinkRelay` adding 2 ms of one-way latency (the emulated
    cluster link), serves the same 64-unit spec twice:

    * **baseline**: ``lane_depth=1`` — one exchange in flight, so
      every unit pays the full round trip;
    * **fast path**: ``lane_depth=4`` — the sender streams request
      frames while the receiver completes earlier units off the same
      connection, so the link latency is paid once per *window*, not
      once per unit.

    The gated ``speedup`` is the units/sec ratio; ``wire_bytes`` and
    ``inflight_peak`` come from the depth-4 lane's telemetry.  Both
    depths must match the bare serial loop bit for bit before timing
    counts.
    """
    from repro.engine import (
        ExperimentSpec,
        Scenario,
        TrialResult,
        register,
    )
    from repro.engine.backends import run_one_trial
    from repro.engine.distributed import DistributedBackend, WorkerServer

    def _wire_trial(ctx) -> TrialResult:
        # ~48 metrics -> a ~1.5 KiB result document: big enough that
        # framing and compression matter, small enough that round-trip
        # latency (what pipelining hides) still dominates the exchange.
        metrics = tuple(
            (f"m{i:02d}", float((ctx.seed * 2654435761 + i * 40503) % 99991))
            for i in range(48)
        )
        return TrialResult(
            trial_index=ctx.trial_index, seed=ctx.seed, metrics=metrics
        )

    # Idempotent re-registration: suites must not depend on run order.
    register(
        Scenario(
            name="perf-gate-wire",
            run_trial=_wire_trial,
            description="perf-gate only: a wire-sized result document",
        )
    )

    trials = 64
    spec = ExperimentSpec(runner="perf-gate-wire", n=1, trials=trials)
    serial = [run_one_trial(spec, i) for i in range(trials)]

    def sweep(depth: int):
        backend = DistributedBackend(
            hosts=[(relay.host, relay.port)],
            unit_size=1,
            lane_depth=depth,
        )
        try:
            results = backend.run_trials(spec)
            report = backend.telemetry.report(results)
        finally:
            backend.close()
        return results, report

    with WorkerServer() as server:
        relay = _LinkRelay(server.host, server.port, delay=0.002)
        try:
            depth1_results, _ = sweep(1)
            depth4_results, depth4_report = sweep(4)
            # Parity before speed: depth changes overlap, never content.
            assert depth1_results == serial
            assert depth4_results == serial

            reps = 2 if quick else 4
            depth1_s = _time(lambda: sweep(1), reps)
            depth4_s = _time(lambda: sweep(4), reps)
        finally:
            relay.close()

    ops = reps * trials
    lane = depth4_report.lanes[0]
    return {
        "desc": (
            f"{trials} single-trial units over a 2ms loopback link: "
            "lane_depth=4 vs lane_depth=1"
        ),
        "ops": ops,
        "depth1_s": round(depth1_s, 6),
        "depth4_s": round(depth4_s, 6),
        "depth1_units_per_s": (
            round(ops / depth1_s, 1) if depth1_s else 0.0
        ),
        "depth4_units_per_s": (
            round(ops / depth4_s, 1) if depth4_s else 0.0
        ),
        "wire_bytes": lane.bytes_out + lane.bytes_in,
        "inflight_peak": lane.inflight_peak,
        "speedup": round(depth1_s / depth4_s, 2) if depth4_s else 0.0,
        "parity": True,
    }


_SUITES = {
    "e9_reconstruct_n64": _suite_e9_reconstruct,
    "e9_batch_reveal_n64": _suite_e9_batch_reveal,
    "e17_row_check_n64": _suite_e17_row_check,
    "e17_batch_rows_n64": _suite_e17_batch_rows,
    "rs_decode_n8": _suite_rs_decode,
    "e19_vss_coin": _suite_e19_vss_coin,
    "sim_round_loop_n32": _suite_sim_round_loop,
    "dispatch_overhead": _suite_dispatch_overhead,
    "telemetry_overhead": _suite_telemetry_overhead,
    "cost_dispatch_mixed_n": _suite_cost_dispatch_mixed_n,
    "dispatch_wire_n64": _suite_dispatch_wire,
}


def run_suites(quick: bool = False) -> Dict[str, Any]:
    """Execute every suite and assemble the baseline document."""
    suites = {name: fn(quick) for name, fn in _SUITES.items()}
    return {
        "schema": SCHEMA,
        "mode": "quick" if quick else "full",
        "python": ".".join(str(v) for v in sys.version_info[:3]),
        "suites": suites,
    }


def compare(
    current: Dict[str, Any],
    baseline: Dict[str, Any],
    max_regression: float = 0.25,
) -> List[str]:
    """Speedup regressions of ``current`` against ``baseline``.

    Only the dimensionless ``speedup`` fields are gated (machine-
    portable); wall-clock fields are informational.  Returns one
    human-readable line per regressed suite.
    """
    problems = []
    for name, base in baseline.get("suites", {}).items():
        base_speedup = base.get("speedup")
        cur = current.get("suites", {}).get(name)
        if base_speedup is None or cur is None:
            continue
        cur_speedup = cur.get("speedup")
        if cur_speedup is None:
            problems.append(f"{name}: speedup field missing from current run")
            continue
        floor = base_speedup * (1.0 - max_regression)
        if cur_speedup < floor:
            problems.append(
                f"{name}: speedup {cur_speedup:.2f}x < "
                f"{floor:.2f}x floor (baseline {base_speedup:.2f}x, "
                f"max regression {max_regression:.0%})"
            )
    return problems


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="perf_gate",
        description=(
            "Run the reconstruction/simulator perf suites, emit the "
            "BENCH_core.json baseline, and optionally gate against a "
            "committed baseline."
        ),
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="CI-sized repetitions (same suites, smaller reps/committees)",
    )
    parser.add_argument(
        "--out", default=None, metavar="PATH",
        help="write the JSON document here ('-' for stdout only)",
    )
    parser.add_argument(
        "--baseline", default=None, metavar="PATH",
        help="committed baseline to gate speedups against",
    )
    parser.add_argument(
        "--max-regression", type=float, default=0.25,
        help="allowed fractional speedup drop before soft-failing "
             "(default 0.25)",
    )
    args = parser.parse_args(argv)

    # Load the baseline *before* writing --out: CI points both flags at
    # BENCH_core.json (gate against the committed file, upload the fresh
    # one), which must not degenerate into comparing a file to itself.
    baseline = None
    if args.baseline:
        try:
            with open(args.baseline) as f:
                baseline = json.load(f)
        except FileNotFoundError:
            print(
                f"no baseline at {args.baseline}; nothing to gate against",
                file=sys.stderr,
            )

    current = run_suites(quick=args.quick)
    body = json.dumps(current, indent=2, sort_keys=True) + "\n"
    if args.out and args.out != "-":
        with open(args.out, "w") as f:
            f.write(body)
        print(f"wrote {args.out}")
    else:
        print(body, end="")

    if baseline is not None:
        problems = compare(
            current, baseline, max_regression=args.max_regression
        )
        if problems:
            print("PERF REGRESSION (soft fail):", file=sys.stderr)
            for line in problems:
                print(f"  {line}", file=sys.stderr)
            return EXIT_REGRESSION
        print(
            f"perf gate ok against {args.baseline} "
            f"(max regression {args.max_regression:.0%})"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
