"""E15 — the asynchronous open problem (Conclusion, question 2).

The paper closes by asking whether its results adapt to the asynchronous
model.  This bench quantifies the landscape the question lives in:

* E15a — Bracha reliable broadcast message growth: the standard async
  building block already costs Theta(n^2) messages per broadcast, the
  very barrier the paper breaks synchronously.
* E15b — local vs common coin: asynchronous Ben-Or (private coins) vs
  the identical skeleton driven by a common coin, on split inputs.  The
  common coin collapses the phase count — what King-Saia's global coin
  subsequence would buy asynchronously *if* it could be generated below
  n^2 bits, which is exactly the open problem.  Runs as two 8-trial
  specs of the ``async-benor`` / ``common-coin-ba`` scenarios through
  :mod:`repro.engine` (``--engine-backend batch`` multiplexes each
  spec's networks breadth-first over delivery steps).
* E15b-process — the same async sweep at paper scale (64 trials),
  sharded across pool workers by the process backend; results are
  asserted bit-identical to serial and batch, and the measured
  wall-clock of all three backends is reported.
* E15c — adversarial scheduling: the common-coin protocol under FIFO,
  random and victim-starving schedulers; agreement and validity hold
  under all three (safety is scheduler-independent), only delivery
  counts move.
* E15d — synchronizer overhead: running synchronous Phase King over the
  async engine via the round synchronizer costs n(n-1) envelopes per
  simulated round — generic synchronization re-imposes the quadratic
  floor, so the open problem needs a native protocol.
* E15e — the constructive partial answer: Algorithm 5 itself over a
  *sparse* synchronizer (envelopes only along graph edges) reaches
  almost-everywhere agreement asynchronously at O(degree x rounds) per
  processor, isolating the open problem to the coin's generation.
"""

import os

from conftest import print_table
from repro.asynchrony import (
    RandomScheduler,
    SeededCoinOracle,
    TargetedDelayScheduler,
    run_bracha_broadcast,
    run_common_coin_ba,
)


def test_e15a_bracha_quadratic_growth(benchmark, capsys):
    rows = []
    prev = None
    for n in (8, 16, 32, 64):
        result = run_bracha_broadcast(n=n, dealer=0, value=1)
        messages = result.ledger.total_messages()
        ratio = f"{messages / prev:.2f}" if prev else "-"
        prev = messages
        rows.append((n, messages, result.ledger.total_bits(), ratio))
        assert result.agreement_value() == 1
    benchmark.pedantic(
        lambda: run_bracha_broadcast(n=16, dealer=0, value=1),
        rounds=1, iterations=1,
    )
    print_table(
        capsys,
        "E15a Bracha reliable broadcast: message growth (doubling n)",
        ["n", "messages", "bits", "x prev"],
        rows,
        note=(
            "Ratio ~4 per doubling: Theta(n^2) messages for ONE broadcast "
            "-- the asynchronous floor the open problem asks to break."
        ),
    )


def test_e15b_local_vs_common_coin(benchmark, capsys, engine):
    from repro.engine import Engine, ExperimentSpec

    n, trials = 6, 8
    specs = {
        name: ExperimentSpec(
            runner=name, n=n, trials=trials, seed=0,
            params={"inputs": "split"},
        )
        for name in ("async-benor", "common-coin-ba")
    }
    results = {name: engine.run(spec) for name, spec in specs.items()}
    benor, coin = results["async-benor"], results["common-coin-ba"]
    rows = []
    for b, c in zip(benor.trials, coin.trials):
        rows.append(
            (
                b.trial_index,
                int(b.metric_dict()["steps"]),
                int(c.metric_dict()["steps"]),
                int(b.metric_dict()["value"]),
                int(c.metric_dict()["value"]),
            )
        )
        assert b.metric_dict()["decided_fraction"] == 1.0
        assert c.metric_dict()["decided_fraction"] == 1.0
    benor_total = int(sum(benor.metric_values("steps")))
    coin_total = int(sum(coin.metric_values("steps")))
    benchmark.pedantic(
        lambda: Engine("batch").run(specs["common-coin-ba"]),
        rounds=1, iterations=1,
    )
    print_table(
        capsys,
        f"E15b async BA deliveries, split inputs (n={n}, "
        f"{trials}-trial engine specs)",
        ["trial", "Ben-Or (local coin)", "common coin", "B-O value",
         "coin value"],
        rows,
        note=(
            f"Totals: Ben-Or {benor_total} vs common coin {coin_total} "
            "deliveries. The common coin is what the paper's global coin "
            "subsequence provides synchronously; generating it async "
            "below n^2 bits is the open problem."
        ),
    )


def test_e15b_process_sharding(benchmark, capsys):
    """The E15b common-coin sweep, sharded over processes.

    Units of trials dispatched to pool workers, each worker rebuilding
    the scenario by name.  The table reports measured wall-clock per
    backend; the assertions pin bit-identity, so the speedup (or, on
    small sweeps, the pool overhead) is the *only* observable
    difference.
    """
    from repro.engine import Engine, ExperimentSpec, ProcessPoolBackend

    n, trials = 6, 64
    spec = ExperimentSpec(
        runner="common-coin-ba", n=n, trials=trials, seed=0,
        params={"inputs": "split"},
    )
    serial = Engine("serial").run(spec)
    stepped = Engine("batch").run(spec)
    with Engine(ProcessPoolBackend(workers=2, unit_size=16)) as engine:
        sharded = engine.run(spec)
        assert serial.trials == stepped.trials == sharded.trials
        # The pool is kept across runs: the timed run reuses it.
        benchmark.pedantic(
            lambda: engine.backend.run_trials(spec), rounds=1, iterations=1
        )
    rows = [
        (result.backend, f"{result.elapsed_seconds:.3f}", "yes")
        for result in (serial, stepped, sharded)
    ]
    speedup = serial.elapsed_seconds / max(
        sharded.elapsed_seconds, 1e-9
    )
    print_table(
        capsys,
        f"E15b-process common-coin BA, {trials} trials (n={n}), "
        "one spec on three backends",
        ["backend", "wall-clock s", "bit-identical"],
        rows,
        note=(
            f"Process (2 workers, units of 16) vs serial: {speedup:.2f}x "
            f"wall-clock on {os.cpu_count() or 1} core(s); results are "
            "bit-identical by construction (per-trial seeds derive "
            "from the spec alone, workers rebuild the scenario by "
            "name), so backend choice is pure scheduling and the "
            "ratio scales with real cores."
        ),
    )


def test_e15c_scheduler_robustness(benchmark, capsys):
    n = 6
    inputs = [i % 2 for i in range(n)]
    schedulers = [
        ("FIFO", None),
        ("random", RandomScheduler(5)),
        ("starve p0", TargetedDelayScheduler(victims={0}, seed=5)),
        ("starve p0-p2", TargetedDelayScheduler(victims={0, 1, 2}, seed=5)),
    ]
    rows = []
    for label, scheduler in schedulers:
        result = run_common_coin_ba(
            n, inputs, oracle=SeededCoinOracle(9), scheduler=scheduler
        )
        rows.append(
            (
                label,
                result.steps,
                result.agreement_value(),
                f"{result.decided_fraction():.2f}",
            )
        )
        assert result.agreement_value() in (0, 1)
        assert result.decided_fraction() == 1.0
    benchmark.pedantic(
        lambda: run_common_coin_ba(
            n, inputs, oracle=SeededCoinOracle(9),
            scheduler=TargetedDelayScheduler(victims={0}, seed=5),
        ),
        rounds=1, iterations=1,
    )
    print_table(
        capsys,
        f"E15c common-coin BA vs delivery schedule (n={n})",
        ["scheduler", "deliveries", "agreed value", "decided fraction"],
        rows,
        note=(
            "Safety (one agreed value, validity) is independent of the "
            "scheduler; starvation only stretches delivery counts -- "
            "eventual delivery (the fairness bound) restores liveness."
        ),
    )


def test_e15d_synchronizer_overhead(benchmark, capsys):
    """Why generic synchronization cannot rescue the o(n^2) budget:
    running any synchronous protocol over an asynchronous network via a
    round synchronizer costs n(n-1) envelopes per simulated round, no
    matter how frugal the wrapped protocol is.
    """
    from repro.asynchrony import (
        run_synchronized,
        synchronizer_overhead_messages,
    )
    from repro.baselines.phase_king import (
        PhaseKingProcessor,
        phase_king_fault_bound,
    )

    rows = []
    for n in (6, 8, 12):
        phases = phase_king_fault_bound(n) + 1
        rounds = 2 * phases
        protocols = [
            PhaseKingProcessor(pid, n, 1, num_phases=phases)
            for pid in range(n)
        ]
        result, wrappers = run_synchronized(
            protocols, max_rounds=rounds + 2, fault_bound=0
        )
        measured = result.ledger.total_messages()
        modelled = synchronizer_overhead_messages(
            n, max(w.rounds_simulated for w in wrappers)
        )
        rows.append(
            (
                n,
                max(w.rounds_simulated for w in wrappers),
                measured,
                modelled,
                result.agreement_value(),
            )
        )
        assert result.agreement_value() == 1
    benchmark.pedantic(
        lambda: run_synchronized(
            [
                PhaseKingProcessor(pid, 6, 1, num_phases=2)
                for pid in range(6)
            ],
            max_rounds=6, fault_bound=0,
        ),
        rounds=1, iterations=1,
    )
    print_table(
        capsys,
        "E15d Phase King over the async engine via round synchronizer",
        ["n", "rounds simulated", "messages measured",
         "n(n-1) x rounds", "agreed"],
        rows,
        note=(
            "Measured message counts track the n(n-1)-per-round envelope "
            "floor: synchronizing re-imposes the quadratic cost the "
            "paper's protocol avoids, so the asynchronous open problem "
            "needs a native o(n^2) protocol, not a synchronizer."
        ),
    )


def test_e15e_sparse_async_algorithm5(benchmark, capsys):
    """Algorithm 5 over the async engine at sub-quadratic cost.

    The paper's own protocol + a sparse (neighborhood-only)
    synchronizer + an oracle coin: almost-everywhere agreement
    asynchronously at O(degree x rounds) per processor.  The only piece
    that still assumes an oracle is the coin -- the open problem,
    isolated.
    """
    from repro.asynchrony import run_async_sparse_aeba

    rows = []
    for n in (24, 48, 96):
        inputs = [i % 2 for i in range(n)]
        outcome = run_async_sparse_aeba(
            n, inputs, coin_seed=7, graph_seed=7,
        )
        msgs_per_proc = outcome.result.ledger.total_messages() / n
        rows.append(
            (
                n,
                outcome.degree,
                outcome.num_rounds,
                f"{msgs_per_proc:.0f}",
                n - 1,
                f"{outcome.agreement_fraction:.2f}",
            )
        )
        assert outcome.almost_everywhere
    benchmark.pedantic(
        lambda: run_async_sparse_aeba(
            24, [1] * 24, coin_seed=7, graph_seed=7
        ),
        rounds=1, iterations=1,
    )
    print_table(
        capsys,
        "E15e Algorithm 5 asynchronously (sparse synchronizer + oracle coin)",
        ["n", "degree", "rounds", "messages/processor",
         "all-to-all/round would be", "agreement"],
        rows,
        note=(
            "Per-processor traffic tracks degree x rounds (k log n x "
            "polylog), NOT n: the paper's a.e. agreement survives "
            "asynchrony at sub-quadratic cost given a common coin. "
            "Everything except the coin's o(n^2) asynchronous "
            "generation is in hand -- that generation is the open "
            "problem."
        ),
    )
