"""The perf gate: paired ratios for the repo's fast paths, one baseline.

``run_suites`` measures each fast path against its reference on the
same inputs: the cached plan and batch kernels that reconstruction
bottoms out in (the shapes of benches E9 and E17, and ``sendDown``'s
decode) and the engine's dispatch, telemetry, cost-sized geometry
and pipelined wire.  It emits one JSON document, ``BENCH_core.json``.

Every suite has one shape.  It builds its inputs, asserts parity
between the two arms before any timing, and returns its row's
identity (a ``desc`` naming every size and count the ratio depends
on, plus the batch ``engine`` where one serves the run) and a
sampler.  One call of the sampler is one pair: both arms timed on the
same inputs, call by call in alternation, returning reference time
over candidate time.  The runner takes :data:`PAIRS` pairs per suite
and records the median ``ratio`` and its quartiles ``q1`` and ``q3``.
Absolute wall-clock is machine-bound; a ratio of two arms timed
together is not, so every row is gated.

:func:`compare` checks a run against the committed baseline.  It
returns :data:`EXIT_STALE` when the baseline measured something else
(another schema, another set of suites, a changed ``desc`` or batch
``engine``), so a stale baseline fails instead of drifting, and
:data:`EXIT_REGRESSION` when a median ratio fell more than
:data:`MAX_REGRESSION` below its baseline.

Entry points, one parser (``repro bench``'s) with two flags:

* ``python -m repro bench [--out F] [--baseline F]``
* ``python benchmarks/perf_gate.py [--out F] [--baseline F]``, the same
  command from a checkout
"""

from __future__ import annotations

import json
import random
import statistics
import sys
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

SCHEMA = "repro-perf-gate/2"

#: Paired samples per suite; the row records their median and quartiles.
PAIRS = 9

#: A median ratio this far below its baseline fails the gate.
MAX_REGRESSION = 0.25

#: Exit code when the baseline does not describe the current suites.
EXIT_STALE = 1

#: Exit code for a ratio regression (CI reports it as a warning).
EXIT_REGRESSION = 3

Sampler = Callable[[], float]
Suite = Tuple[Dict[str, str], Sampler]


def _time(fn: Callable[[], Any]) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def _paired(
    reference: Callable[[], Any], candidate: Callable[[], Any], reps: int
) -> Sampler:
    """A sampler: ``reps`` rounds that each time one call of both arms.

    Alternating the arms call by call lets both see the same machine,
    so a neighbour's load cancels out of the ratio.
    """

    def sample() -> float:
        reference_s = candidate_s = 0.0
        for _ in range(reps):
            reference_s += _time(reference)
            candidate_s += _time(candidate)
        return reference_s / candidate_s

    return sample


def _suite_e9_reconstruct() -> Suite:
    """E9 shape: iterated-sharing reconstruction at n=64 (threshold 33).

    Reconstruct-at-0 over the fixed player grid — the exact call
    ``sendDown`` and ``ShareTree.reconstruct_from`` bottom out in —
    through the naive Lagrange reference and the cached plan kernel.
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

    def naive() -> None:
        for pool in pools:
            interpolate_constant(field, pool)

    def plan() -> None:
        for pool in pools:
            kernels.interpolate_constant(field, pool)

    desc = (
        f"reconstruct-at-0 of {len(pools)} pools, grid 1..{threshold} "
        "(n=64 iterated sharing): naive vs plan"
    )
    return {"desc": desc}, _paired(naive, plan, reps=32)


def _suite_e17_row_check() -> Suite:
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

    def naive() -> bool:
        return check_with(
            lambda basis, y: lagrange_interpolate_at(field, basis, y)
        )

    def plan() -> bool:
        return check_with(
            lambda basis, y: kernels.interpolate_at(field, basis, y)
        )

    assert naive() and plan()
    desc = (
        f"row-degree checks of {len(rows)} bivariate rows, basis {t}, "
        f"n={n}: naive vs plan"
    )
    return {"desc": desc}, _paired(naive, plan, reps=3)


def _suite_e9_batch_reveal() -> Suite:
    """E9 shape, batched: windowed robust reveal across many dealers.

    The exact call shape of ``VSSCoinMember._reveal_secrets``: every
    dealer's share pool sits on the same member grid, and each pool is
    probed through the same ``ROBUST_REVEAL_WINDOWS`` threshold-sized
    windows.  The reference is the *plan path* (the repo's previous fast
    path: one cached-lambda dot product per (dealer, window) pair); the
    batched path collapses all pairs into a single ``(dealers, k) @
    (k, windows)`` product via
    :func:`~repro.crypto.kernels.interpolate_windows_at_zero`, whose
    ``(k, windows)`` lambda matrix is a plan-cache hit after the first
    call, as it is for every toss after a committee's first.
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
    desc = (
        f"windowed robust reveal: {dealers} dealers x {len(windows)} "
        f"windows, grid 1..{n}: plan vs batch on the cached window matrix"
    )
    row = {"desc": desc, "engine": kernels.batch_engine(field)}
    return row, _paired(plan, batched, reps=10)


def _suite_e17_batch_rows() -> Suite:
    """E17 shape, batched: a whole dealing's row-degree checks at once.

    The reference is the plan path (``row_degree_ok``: one cached-lambda
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
    desc = (
        f"row-degree checks, whole dealing ({len(rows)} rows, basis "
        f"{scheme.threshold}) at n={n}: plan vs batch"
    )
    row = {"desc": desc, "engine": kernels.batch_engine(field)}
    return row, _paired(plan, batched, reps=8)


def _suite_rs_decode() -> Suite:
    """sendDown's decode shape: 8 shares, threshold 3, one wrong value.

    Under the adaptive adversary nearly every pool ``send_down`` decodes
    looks like this, and ``send_down`` hands the decoder the value rows
    of a node hop's pools on one x grid at once.  The reference is the
    key-equation solve (``_solve_key_equation``) per pool; one
    ``berlekamp_welch`` call decodes every row's constant, each from
    the first window of 3 shares whose polynomial misses at most 2 of
    the row's values.
    """
    from repro.crypto.field import DEFAULT_FIELD as field
    from repro.crypto.polynomial import evaluate, random_polynomial
    from repro.crypto.reed_solomon import (
        _solve_key_equation,
        berlekamp_welch,
    )

    m, t = 8, 3
    xs = tuple(range(1, m + 1))
    rng = random.Random(0x85)
    rows = []
    for _ in range(64):
        poly = random_polynomial(
            field, rng.randrange(field.modulus), t - 1, rng
        )
        row = [evaluate(field, poly, x) for x in xs]
        i = rng.randrange(m)
        row[i] = (row[i] + 1 + rng.randrange(field.modulus - 1)) % (
            field.modulus
        )
        rows.append(tuple(row))
    pools = [list(zip(xs, row)) for row in rows]

    def solve() -> List[Any]:
        return [_solve_key_equation(field, pool, t) for pool in pools]

    def windows() -> List[Any]:
        return berlekamp_welch(field, xs, rows, t)

    expected = solve()
    assert None not in expected
    # Parity before speed: the grid call's constants are the solve's.
    assert windows() == [coefficients[0] for coefficients in expected]
    desc = (
        f"Berlekamp-Welch decode, {len(pools)} pools of {m} shares, "
        f"threshold {t}, one wrong value each: key-equation solve per "
        "pool vs one batched windowed call"
    )
    return {"desc": desc}, _paired(solve, windows, reps=8)


def _register_noop() -> str:
    """Register the free trial the engine suites dispatch; its name."""
    from repro.engine import Scenario, TrialResult, register

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
    return "perf-gate-noop"


def _suite_dispatch_overhead() -> Suite:
    """Dispatch-plane bookkeeping per work unit: bare loop vs run_units.

    Every sharded backend routes units through ``run_units``; this
    drives no-op trials through the in-process ``InlineTransport`` at
    unit size 1 — the worst case, one full submit/collect/merge round
    per trial — against a bare serial loop over the same trials.  The
    ratio is below 1 by design; it falls when dispatch gets dearer.
    """
    from repro.engine import ExperimentSpec, run_one_trial
    from repro.engine.dispatch import DispatchPlan, InlineTransport, run_units

    trials = 512
    spec = ExperimentSpec(runner=_register_noop(), n=1, trials=trials)
    units = DispatchPlan(trials=trials, unit_size=1).units(spec)

    def serial() -> List[Any]:
        return [run_one_trial(spec, i) for i in range(trials)]

    def dispatched() -> List[Any]:
        return run_units(units, InlineTransport())

    assert serial() == dispatched()  # parity before timing
    desc = f"{trials} no-op trials: bare loop vs run_units, 1 trial a unit"
    return {"desc": desc}, _paired(serial, dispatched, reps=4)


def _suite_telemetry_overhead() -> Suite:
    """Telemetry's cost over a real sweep: bare loop vs SerialBackend.

    The serial backend records a span and a report-ready record per
    trial; the reference is a bare ``run_one_trial`` loop over the same
    spec.  Telemetry watches and never steers, so results must match.
    """
    from repro.engine import ExperimentSpec, SerialBackend, run_one_trial

    spec = ExperimentSpec(runner="bracha-broadcast", n=5, trials=24, seed=7)

    def bare() -> List[Any]:
        return [run_one_trial(spec, i) for i in range(spec.trials)]

    def telemetered() -> List[Any]:
        return SerialBackend().run_trials(spec)

    assert bare() == telemetered()  # telemetry must not perturb results
    desc = (
        f"{spec.trials} bracha-broadcast trials, n={spec.n}: bare loop "
        "vs SerialBackend sweep"
    )
    return {"desc": desc}, _paired(bare, telemetered, reps=2)


def _suite_telemetry_spans() -> Suite:
    """Telemetry's per-unit span cost: run_units without and with it.

    No-op units through the dispatch plane with ``telemetry=None`` and
    with a live ``RunTelemetry`` — the bookkeeping cost per unit
    attempt in its worst case, free trials.
    """
    from repro.engine import ExperimentSpec
    from repro.engine.dispatch import DispatchPlan, InlineTransport, run_units
    from repro.engine.telemetry import RunTelemetry

    trials = 512
    spec = ExperimentSpec(runner=_register_noop(), n=1, trials=trials)
    units = DispatchPlan(trials=trials, unit_size=1).units(spec)

    def plain() -> List[Any]:
        return run_units(units, InlineTransport())

    def spanned() -> List[Any]:
        telemetry = RunTelemetry(backend="bench", total_trials=trials)
        out = run_units(units, InlineTransport(), telemetry=telemetry)
        telemetry.finish()
        return out

    assert plain() == spanned()
    desc = f"run_units of {trials} no-op 1-trial units: telemetry off vs on"
    return {"desc": desc}, _paired(plain, spanned, reps=3)


def _suite_cost_dispatch_mixed_n() -> Suite:
    """Uniform vs cost-sized shard geometry on a mixed-n grid.

    The workload the cost plane exists for: one grid mixing many cheap
    phase-king trials (n=8) with a few expensive ones (n=40, ~100x the
    per-trial work).  Uniform geometry sizes units by trial count, so
    the expensive spec collapses into a couple of huge units that
    leave most lanes idle; the planner's cost-sized geometry bins by
    predicted per-trial cost, splitting the expensive trials across
    lanes.  The uniform reference is built inline: one plan per spec,
    in spec order, at the trial-count rule's size.

    Each sample re-times a batch of each spec's trials and prices both
    plans' *makespans* under the collect loop's own discipline (units
    in submit order, each to the earliest-free lane) — the model
    prices the plan, the clock prices the trials.  Parity of the
    cost-sized grid path against bare serial loops is asserted first.
    """
    from repro.engine import ExperimentSpec, run_one_trial
    from repro.engine.costplan import GRID_PARTS_PER_WORKER, plan_grid
    from repro.engine.dispatch import DispatchPlan, InlineTransport, run_units

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

    uniform_size = round(
        sum(spec.trials for spec in specs) / (lanes * GRID_PARTS_PER_WORKER)
    )
    uniform_units = [
        unit
        for spec in specs
        for unit in DispatchPlan(spec.trials, uniform_size).units(spec)
    ]
    cost_units = plan_grid(specs, capacity=lanes)
    timed = {light: 16, heavy: 2}  # trials timed per spec, per sample

    def makespan(units: List[Any], per_trial: Dict[Any, float]) -> float:
        free = [0.0] * lanes
        for unit in units:
            lane = min(range(lanes), key=free.__getitem__)
            free[lane] += len(unit.indices) * per_trial[unit.spec]
        return max(free)

    def sample() -> float:
        per_trial = {
            spec: _time(
                lambda: [run_one_trial(spec, i) for i in range(count)]
            ) / count
            for spec, count in timed.items()
        }
        return makespan(uniform_units, per_trial) / makespan(
            cost_units, per_trial
        )

    sample()  # warm caches before the clock starts
    desc = (
        f"mixed-n phase-king grid (n=8 x{light.trials} + "
        f"n=40 x{heavy.trials}), {lanes} lanes: {len(uniform_units)} "
        f"uniform vs {len(cost_units)} cost-sized units, measured-trial "
        "makespan"
    )
    return {"desc": desc}, sample


class _LinkRelay:
    """A loopback TCP relay that adds fixed one-way latency per direction.

    The benchmark link: every byte is delivered, in order, ``delay``
    seconds after it arrived — latency without any throughput limit,
    which is exactly the shape of the real links the lane pipeline
    exists to hide (bare loopback has ~10 us round trips, so a
    latency-hiding optimisation measured against it would be measuring
    nothing).  Both arms dial the same relay, so the comparison
    isolates the client's exchange discipline.
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


def _suite_dispatch_wire() -> Suite:
    """One exchange in flight vs pipelined lanes over a slow link.

    The data-plane workload pipelining exists for: many small work
    units whose round trips — not whose compute — dominate the sweep.
    An in-process ``WorkerServer``, reached through a loopback
    :class:`_LinkRelay` adding 2 ms of one-way latency (the emulated
    cluster link), serves the same 64-unit spec at ``lane_depth=1``
    (every unit pays the full round trip) and at ``lane_depth=4`` (the
    client writes up to four request frames before the first reply
    and completes units as replies arrive, so the latency is paid once
    per window).  Both depths must
    match the bare serial loop bit for bit, and depth 4 must actually
    have had more than one unit in flight.  Each sample serves both
    depths from a fresh server and relay.
    """
    from repro.engine import (
        ExperimentSpec,
        Scenario,
        TrialResult,
        register,
        run_one_trial,
    )
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

    trials, delay = 64, 0.002
    spec = ExperimentSpec(runner="perf-gate-wire", n=1, trials=trials)

    def sweep(relay: _LinkRelay, depth: int):
        backend = DistributedBackend(
            hosts=[(relay.host, relay.port)], unit_size=1, lane_depth=depth
        )
        try:
            results = backend.run_trials(spec)
            return results, backend.telemetry.report(results)
        finally:
            backend.close()

    def on_link(measure: Callable[[_LinkRelay], Any]) -> Any:
        with WorkerServer() as server:
            relay = _LinkRelay(server.host, server.port, delay=delay)
            try:
                return measure(relay)
            finally:
                relay.close()

    def parity(relay: _LinkRelay) -> bool:
        serial = [run_one_trial(spec, i) for i in range(trials)]
        depth4, report = sweep(relay, 4)
        return (
            sweep(relay, 1)[0] == serial == depth4
            and report.lanes[0].inflight_peak > 1
        )

    def pair(relay: _LinkRelay) -> float:
        return _paired(
            lambda: sweep(relay, 1), lambda: sweep(relay, 4), reps=1
        )()

    assert on_link(parity)
    desc = (
        f"{trials} single-trial units over a {delay * 1e3:g}ms loopback "
        "link: lane_depth=1 vs lane_depth=4"
    )
    return {"desc": desc}, lambda: on_link(pair)


_SUITES: Dict[str, Callable[[], Suite]] = {
    "e9_reconstruct_n64": _suite_e9_reconstruct,
    "e9_batch_reveal_n64": _suite_e9_batch_reveal,
    "e17_row_check_n64": _suite_e17_row_check,
    "e17_batch_rows_n64": _suite_e17_batch_rows,
    "rs_decode_n8": _suite_rs_decode,
    "dispatch_overhead": _suite_dispatch_overhead,
    "telemetry_overhead": _suite_telemetry_overhead,
    "telemetry_spans": _suite_telemetry_spans,
    "cost_dispatch_mixed_n": _suite_cost_dispatch_mixed_n,
    "dispatch_wire_n64": _suite_dispatch_wire,
}


def _measure(sample: Sampler) -> Dict[str, float]:
    """The median and quartiles of :data:`PAIRS` paired ratios."""
    q1, median, q3 = statistics.quantiles(
        [sample() for _ in range(PAIRS)], n=4
    )
    return {"ratio": round(median, 3), "q1": round(q1, 3), "q3": round(q3, 3)}


def run_suites() -> Dict[str, Any]:
    """Build, check and measure every suite; the baseline document."""
    rows = {}
    for name, suite in _SUITES.items():
        row, sample = suite()
        rows[name] = {**row, **_measure(sample)}
    return {
        "schema": SCHEMA,
        "pairs": PAIRS,
        "python": ".".join(str(v) for v in sys.version_info[:3]),
        "suites": rows,
    }


def compare(
    current: Dict[str, Any], baseline: Dict[str, Any]
) -> Tuple[int, List[str]]:
    """Gate ``current`` against ``baseline``: an exit code, and one line
    per problem.

    :data:`EXIT_STALE` when the baseline does not describe the current
    suites — another schema, a suite missing from either side, or a
    changed ``desc`` or ``engine``; else :data:`EXIT_REGRESSION` when a
    ratio fell below its baseline by more than :data:`MAX_REGRESSION`;
    else 0.
    """
    if baseline.get("schema") != SCHEMA:
        return EXIT_STALE, [
            f"baseline schema {baseline.get('schema')!r}, not {SCHEMA!r}"
        ]
    base, cur = baseline["suites"], current["suites"]
    stale = [f"{name}: not measured" for name in sorted(base.keys() - cur)]
    stale += [f"{name}: no baseline row" for name in sorted(cur.keys() - base)]
    slow = []
    for name in sorted(base.keys() & cur.keys()):
        was, now = base[name], cur[name]
        for key in ("desc", "engine"):
            if was.get(key) != now.get(key):
                stale.append(
                    f"{name}: {key} {now.get(key)!r}, baseline "
                    f"{was.get(key)!r}"
                )
        floor = was["ratio"] * (1.0 - MAX_REGRESSION)
        if now["ratio"] < floor:
            slow.append(
                f"{name}: ratio {now['ratio']:.3g} < {floor:.3g} floor "
                f"(baseline {was['ratio']:.3g}, max regression "
                f"{MAX_REGRESSION:.0%})"
            )
    if stale:
        return EXIT_STALE, stale
    return (EXIT_REGRESSION if slow else 0), slow


def gate(out: Optional[str], baseline_path: Optional[str]) -> int:
    """``repro bench``: run the suites, write the document to ``out``
    (stdout when unset or ``-``), gate it against ``baseline_path``."""
    # Load the baseline *before* writing ``out``: pointing both at one
    # file must not compare the file to itself.
    baseline = None
    if baseline_path:
        with open(baseline_path) as f:
            baseline = json.load(f)

    current = run_suites()
    body = json.dumps(current, indent=2, sort_keys=True) + "\n"
    if out and out != "-":
        with open(out, "w") as f:
            f.write(body)
        print(f"wrote {out}")
    else:
        print(body, end="")

    if baseline is None:
        return 0
    code, problems = compare(current, baseline)
    if code == EXIT_STALE:
        print(
            f"STALE BASELINE: {baseline_path} does not describe these "
            "suites; regenerate it (ENGINE.md, 'The perf gate'):",
            file=sys.stderr,
        )
    elif code == EXIT_REGRESSION:
        print("PERF REGRESSION (soft fail):", file=sys.stderr)
    else:
        print(f"perf gate ok against {baseline_path}")
    for line in problems:
        print(f"  {line}", file=sys.stderr)
    return code
