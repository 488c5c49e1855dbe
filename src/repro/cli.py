"""Command-line interface: ``python -m repro <command>``.

Runs the library's headline experiments from a shell without writing
Python.  Subcommands:

* ``info``      — derived protocol parameters for a network size.
* ``run-ba``    — one everywhere-BA execution (Theorem 1 pipeline).
* ``costmodel`` — modelled bits/processor vs the quadratic baselines.
* ``attack``    — the lower-bound demonstrations (E16).
* ``run-async`` — the asynchronous comparison (E15).
* ``elect-leader`` — an adaptive-safe leader rotation (E21).
* ``commit-log``   — a replicated log off one amortized tournament (E22).
* ``report``    — a compact battery written as Markdown, or — given a
  ``--telemetry`` artifact path — a plain-text rendering of that run's
  telemetry report (lanes, latency percentiles, protocol bits).
* ``bench``     — the perf-gate suites (reconstruction kernels +
  simulator round loop) as machine-readable JSON; ``--baseline``
  soft-gates speedups against a committed ``BENCH_core.json``.
* ``run-experiment`` — Monte-Carlo trials of a registered scenario
  through the :mod:`repro.engine` backends (serial / process pool /
  batched / distributed).  ``--list`` prints every
  scenario's declared parameter schema; ``--param`` values are
  validated against it (cross-field constraints included); ``--smoke``
  runs each scenario once as a registration guard; ``--backend
  distributed --hosts host:port,...`` dispatches the sweep to
  ``repro worker serve`` processes on other hosts; ``--telemetry
  out.json`` saves the run's telemetry report (per-lane metrics,
  latency percentiles, retry counts, per-trial bit stats) for
  ``repro report out.json``; ``--progress`` draws a live stderr
  progress line (tty only).
* ``worker serve`` — a distributed-dispatch worker: listens on TCP,
  executes engine work units (scenarios rebuilt by name from its own
  registry), returns versioned JSON result envelopes.  With ``--fleet
  <root>`` it also registers in the fleet's worker roster and
  heartbeats until shut down (SIGTERM drains gracefully: the in-flight
  unit finishes and flushes before the socket closes).
* ``queue submit|status|cancel|run`` — the persistent job queue of a
  fleet root directory: submit wire-format experiment jobs, inspect
  and cancel them, and run the crash-resumable coordinator that
  drains the queue against the registered workers.
* ``fleet``    — the live fleet monitor: worker health, queue depth,
  per-lane throughput and usage alerts from merged telemetry reports.

Every command prints a compact plain-text report and exits non-zero on a
protocol failure, so the CLI doubles as a smoke test in CI.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional, Sequence


def _cmd_info(args: argparse.Namespace) -> int:
    from .core.parameters import ProtocolParameters

    params = ProtocolParameters.simulation(args.n)
    print(f"Protocol parameters for n = {args.n} (simulation preset)")
    for name, value in sorted(vars(params).items()):
        print(f"  {name:>24} : {value}")
    return 0


def _cmd_run_ba(args: argparse.Namespace) -> int:
    from .core.byzantine_agreement import run_everywhere_ba
    from .adversary.adaptive import TournamentAdversary

    n = args.n
    inputs = [1 if p % 3 else 0 for p in range(n)]
    if args.input_bit is not None:
        inputs = [args.input_bit] * n

    adversary = None
    if args.corrupt > 0:
        budget = max(1, int(args.corrupt * n))
        adversary = TournamentAdversary(n, budget=budget, seed=args.seed)

    result = run_everywhere_ba(
        n, inputs, tournament_adversary=adversary, seed=args.seed
    )
    good = [p for p in range(n) if p not in result.corrupted]
    decided = [result.ae2e_result.decided.get(p) for p in good]
    agreeing = sum(1 for v in decided if v == result.bit)

    print(f"Everywhere BA, n = {n}, corruption = {args.corrupt:.0%}, "
          f"seed = {args.seed}")
    print(f"  agreed bit         : {result.bit}")
    print(f"  validity           : {result.is_valid()}")
    print(f"  good agreeing      : {agreeing}/{len(good)}")
    print(f"  total rounds       : {result.total_rounds()}")
    print(f"  max bits/processor : {result.max_bits_per_processor():,}")
    if not result.success():
        print("  FAILURE: some good processor disagrees")
        return 1
    return 0


def _cmd_costmodel(args: argparse.Namespace) -> int:
    from .analysis.costmodel import (
        everywhere_ba_bits_simulation,
        phase_king_bits_per_processor,
        rabin_bits_per_processor,
    )

    print("Modelled bits per processor (simulation-preset constants)")
    print(f"{'n':>12}  {'this paper':>14}  {'Rabin':>14}  "
          f"{'Phase King':>16}  {'advantage':>10}")
    ours_points, rabin_points, pk_points = [], [], []
    n = args.start
    while n <= args.stop:
        ours = everywhere_ba_bits_simulation(n)
        rabin = rabin_bits_per_processor(n)
        pk = phase_king_bits_per_processor(n)
        ours_points.append((n, ours))
        rabin_points.append((n, rabin))
        pk_points.append((n, pk))
        print(f"{n:>12,}  {ours:>14,.0f}  {rabin:>14,.0f}  "
              f"{pk:>16,.0f}  {pk / ours:>9.1f}x")
        n *= args.factor
    if args.plot and len(ours_points) >= 2:
        from .analysis.asciiplot import Series, fitted_exponent, render_chart

        print()
        print(
            render_chart(
                [
                    Series("this paper", ours_points, marker="*"),
                    Series("Rabin", rabin_points, marker="r"),
                    Series("Phase King", pk_points, marker="#"),
                ],
                title="bits per processor vs n (log-log)",
                x_label="n", y_label="bits",
            )
        )
        print(
            f"\nfitted exponents: this paper "
            f"{fitted_exponent(ours_points):.2f}, "
            f"Rabin {fitted_exponent(rabin_points):.2f}, "
            f"Phase King {fitted_exponent(pk_points):.2f} "
            f"(paper predicts ~0.5 / 1 / 2)"
        )
    return 0


def _cmd_attack(args: argparse.Namespace) -> int:
    from .lowerbounds import (
        guessing_attack_demo,
        isolation_attack_demo,
        isolation_threshold,
    )

    if args.kind == "guessing":
        outcome = guessing_attack_demo(n=args.n, seed=args.seed)
        print(f"Coin-guessing attack on sampled-majority BA, n = {args.n}")
        print(f"  messages          : {outcome.total_messages} "
              f"(n^2 = {args.n ** 2})")
        print(f"  oblivious flipped : {outcome.oblivious_wrong}")
        print(f"  guessing flipped  : "
              f"{'victim' if outcome.attack_succeeded else 'nobody'}")
        return 0
    budget, rounds = 12, 3
    cliff = isolation_threshold(budget, rounds)
    print(f"Isolation attack, n = {args.n}, budget {budget}, "
          f"{rounds} rounds (cliff: degree {cliff})")
    for degree in (max(1, cliff - 2), cliff, cliff + 2, 3 * cliff):
        outcome = isolation_attack_demo(
            n=args.n, listen_degree=degree, gossip_rounds=rounds,
            budget=budget, seed=args.seed,
        )
        status = "ISOLATED" if outcome.victim_isolated else "safe"
        print(f"  degree {degree:>3}: victim {status}")
    return 0


def _cmd_run_async(args: argparse.Namespace) -> int:
    from .asynchrony import (
        RandomScheduler,
        SeededCoinOracle,
        run_async_benor,
        run_common_coin_ba,
    )

    n = args.n
    inputs = [i % 2 for i in range(n)]
    benor = run_async_benor(
        n, inputs, seed=args.seed, scheduler=RandomScheduler(args.seed)
    )
    coin = run_common_coin_ba(
        n, inputs, oracle=SeededCoinOracle(args.seed),
        scheduler=RandomScheduler(args.seed),
    )
    print(f"Asynchronous BA, n = {n}, split inputs")
    print(f"  Ben-Or (local coins) : value {benor.agreement_value()}, "
          f"{benor.steps} deliveries")
    print(f"  common coin          : value {coin.agreement_value()}, "
          f"{coin.steps} deliveries")
    ok = (
        benor.agreement_value() in (0, 1)
        and coin.agreement_value() in (0, 1)
    )
    return 0 if ok else 1


def _cmd_elect_leader(args: argparse.Namespace) -> int:
    from .adversary.adaptive import TournamentAdversary
    from .core.leader_election import run_leader_election

    n = args.n
    adversary = None
    if args.corrupt > 0:
        adversary = TournamentAdversary(
            n, budget=max(1, int(args.corrupt * n)), seed=args.seed
        )
    schedule = run_leader_election(
        n, schedule_length=args.rounds, adversary=adversary, seed=args.seed
    )
    print(f"Leader rotation, n = {n}, corruption = {args.corrupt:.0%}, "
          f"{args.rounds} draws, seed = {args.seed}")
    for draw in schedule.draws:
        status = "good" if draw.leader_is_good else "CORRUPT"
        print(f"  word {draw.word_index:>3} -> leader {draw.leader:>4}  "
              f"({status}, agreement {draw.agreement_fraction:.0%})")
    print(f"  good fraction      : {schedule.good_fraction():.0%}")
    print(f"  weakest agreement  : {schedule.min_agreement():.0%}")
    return 0 if schedule.min_agreement() > 0.5 else 1


def _cmd_commit_log(args: argparse.Namespace) -> int:
    from .adversary.adaptive import TournamentAdversary
    from .core.repeated_agreement import run_replicated_log

    n = args.n
    # Alternate unanimous and contested slots, a representative mix.
    slots = []
    for i in range(args.slots):
        if i % 3 == 2:
            slots.append([(i + p) % 2 for p in range(n)])
        else:
            slots.append([i % 2] * n)

    adversary = None
    if args.corrupt > 0:
        adversary = TournamentAdversary(
            n, budget=max(1, int(args.corrupt * n)), seed=args.seed
        )
    result = run_replicated_log(
        n, slots, tournament_adversary=adversary, seed=args.seed
    )
    print(f"Replicated log, n = {n}, {args.slots} slots, "
          f"corruption = {args.corrupt:.0%}, seed = {args.seed}")
    for slot in result.slots:
        print(f"  slot {slot.index}: bit {slot.bit}  "
              f"(everywhere: {slot.success(result.corrupted)})")
    print(f"  all decided everywhere : {result.success()}")
    print(f"  all valid              : {result.all_valid()}")
    print(f"  tournament bits/proc   : {result.tournament_max_bits():,}")
    print(f"  amortized bits/slot    : "
          f"{result.amortized_max_bits_per_slot():,.0f}")
    return 0 if result.success() and result.all_valid() else 1


def _cmd_report(args: argparse.Namespace) -> int:
    """Run a compact experiment battery and write a Markdown report.

    Given a telemetry artifact (``repro report out.json``), render that
    instead: the saved :class:`~repro.engine.telemetry.RunReport` as
    plain-text tables — run summary, per-lane metrics, protocol bridge.
    """
    if args.telemetry is not None:
        from .engine.spec import WireFormatError
        from .engine.telemetry import load_report

        try:
            report = load_report(args.telemetry)
        except (OSError, ValueError, WireFormatError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        print(report.render())
        return 0

    from .analysis.costmodel import (
        everywhere_ba_bits_simulation,
        phase_king_bits_per_processor,
        rabin_bits_per_processor,
    )
    from .analysis.reporting import Table, tables_to_markdown
    from .core.byzantine_agreement import run_everywhere_ba
    from .adversary.adaptive import TournamentAdversary
    from .lowerbounds import guessing_attack_demo

    tables = []

    ba = Table(
        title=f"Everywhere BA at n = {args.n}",
        headers=["corruption", "agreed bit", "validity", "rounds",
                 "max bits/processor"],
        note="One execution per row; Theorem 1 pipeline.",
    )
    for fraction in (0.0, 0.1):
        adversary = None
        if fraction:
            adversary = TournamentAdversary(
                args.n, budget=max(1, int(fraction * args.n)),
                seed=args.seed,
            )
        result = run_everywhere_ba(
            args.n,
            [1 if p % 3 else 0 for p in range(args.n)],
            tournament_adversary=adversary,
            seed=args.seed,
        )
        ba.add_row(
            f"{fraction:.0%}", result.bit, result.is_valid(),
            result.total_rounds(),
            f"{result.max_bits_per_processor():,}",
        )
    tables.append(ba)

    model = Table(
        title="Modelled bits/processor vs baselines",
        headers=["n", "this paper", "Rabin", "Phase King"],
        note=(
            "Simulation-preset closed form; not checked against measured "
            "bits (E10 prints the measured/model ratio)."
        ),
    )
    n = 1 << 10
    while n <= 1 << 20:
        model.add_row(
            f"{n:,}",
            f"{everywhere_ba_bits_simulation(n):,.0f}",
            f"{rabin_bits_per_processor(n):,.0f}",
            f"{phase_king_bits_per_processor(n):,.0f}",
        )
        n <<= 4
    tables.append(model)

    attack = Table(
        title="Dolev-Reischuk corollary (coin-guessing attack)",
        headers=["n", "messages", "oblivious flipped", "guessing flipped"],
        note="Below n^2 messages, a correct coin guess defeats the protocol.",
    )
    outcome = guessing_attack_demo(n=90, seed=args.seed)
    attack.add_row(
        90, outcome.total_messages, outcome.oblivious_wrong,
        "victim" if outcome.attack_succeeded else "nobody",
    )
    tables.append(attack)

    body = (
        "# repro experiment report\n\n"
        "Generated by `repro report`. The complete E1-E23 battery is "
        "`benchmarks/bench_e*.py`; run it with "
        "`PYTHONPATH=src pytest benchmarks/bench_*.py`.\n\n"
        + tables_to_markdown(tables)
    )
    if args.out == "-":
        print(body)
    else:
        with open(args.out, "w") as f:
            f.write(body)
        print(f"wrote {args.out}")
    return 0


def _parse_params(pairs: List[str]) -> dict:
    """``key=value`` CLI parameters, kept raw for schema coercion."""
    params = {}
    for pair in pairs:
        if "=" not in pair:
            raise SystemExit(f"--param expects key=value, got {pair!r}")
        key, raw = pair.split("=", 1)
        params[key] = raw
    return params


def _parse_n_list(raw: object) -> List[int]:
    """``-n 27`` or ``-n 8,16,32`` as a list of network sizes."""
    sizes = []
    for token in str(raw).split(","):
        token = token.strip()
        if not token:
            continue
        try:
            sizes.append(int(token))
        except ValueError:
            raise SystemExit(
                f"-n expects an integer or a comma-separated list of "
                f"integers, got {raw!r}"
            )
    if not sizes:
        raise SystemExit(f"-n expects at least one network size, got {raw!r}")
    return sizes


def _coerce_undeclared(raw: str) -> object:
    """Legacy numeric guess for scenarios without a declared schema."""
    for cast in (int, float):
        try:
            return cast(raw)
        except ValueError:
            continue
    return raw


def _cmd_list_scenarios() -> int:
    """``run-experiment --list``: the schema-driven scenario catalogue."""
    from .engine import get_runner, runner_names

    print("Registered scenarios (run with --name <scenario>):")
    for name in runner_names():
        runner = get_runner(name)
        flag = " [batchable]" if runner.batchable else ""
        print(f"\n  {name}{flag} : {runner.description}")
        if runner.params is None:
            print("      (no declared schema: parameters pass through)")
            continue
        for param in runner.params:
            note = f"  {param.help}" if param.help else ""
            if param.choices is not None:
                note += (
                    f"  (one of: "
                    f"{', '.join(str(c) for c in param.choices)})"
                )
            print(f"      --param {param.signature():<28}{note}")
        if runner.metrics:
            print(f"      metrics: {', '.join(runner.metrics)}")
    return 0


def _cmd_smoke(args: argparse.Namespace) -> int:
    """``run-experiment --smoke``: every declared scenario, one tiny run.

    CI's registration guard — a scenario that fails to build, validate,
    or execute two cheap trials fails the whole command.
    """
    from .engine import (
        Engine,
        ExperimentSpec,
        get_backend,
        get_runner,
        scenario_names,
    )

    failures = []
    # One backend instance per backend name, reused across the whole
    # sweep — the distributed backend in particular keeps its worker
    # connections alive instead of re-dialing every host per scenario.
    backends = {}

    def backend_for(name: str):
        if name not in backends:
            backends[name] = get_backend(
                name,
                workers=args.workers,
                unit_size=args.wave_size,
                hosts=_parse_hosts_arg(args),
                lane_depth=args.lane_depth,
            )
        return backends[name]

    try:
        for name in scenario_names(declared_only=True):
            runner = get_runner(name)
            spec = ExperimentSpec(
                runner=name,
                n=runner.smoke_n,
                trials=2,
                seed=args.seed,
                params=dict(runner.smoke_params),
            )
            # Every backend runs every scenario; the batch backend runs
            # one without a builder serially, so label it that way.
            backend = args.backend
            if backend == "batch" and not runner.batchable:
                backend = "serial"
            result = Engine(backend_for(backend)).run(spec)
            status = "ok" if not result.failure_count else "FAILED"
            print(
                f"  {name:>20} [{backend}] n={spec.n}: {status} "
                f"({result.elapsed_seconds:.2f}s)"
            )
            if result.failure_count:
                failures.append(name)
                for trial in result.failures:
                    detail = trial.failure or "protocol-level failure"
                    print(f"      trial {trial.trial_index}: {detail}")
    finally:
        for backend_obj in backends.values():
            backend_obj.close()
    if failures:
        print(f"smoke failures: {', '.join(failures)}", file=sys.stderr)
        return 1
    print(f"all {len(scenario_names(declared_only=True))} scenarios ok")
    return 0


def _parse_hosts_arg(args: argparse.Namespace) -> Optional[List[str]]:
    """``--hosts a:1,b:2`` as a list (None when the flag is absent)."""
    raw = getattr(args, "hosts", None)
    if not raw:
        return None
    return [entry for entry in raw.split(",") if entry.strip()]


def _cmd_run_experiment(args: argparse.Namespace) -> int:
    from .engine import (
        Engine,
        EngineError,
        ExperimentSpec,
        get_backend,
        get_runner,
    )

    if args.list:
        return _cmd_list_scenarios()

    try:
        if args.smoke:
            return _cmd_smoke(args)
        sizes = _parse_n_list(args.n)
        runner = get_runner(args.name)
        raw = _parse_params(args.param)
        # Schema-declared scenarios coerce, reject unknown keys, and
        # apply cross-field checks against each -n; ad-hoc runners fall
        # back to the legacy numeric guess.
        specs = []
        for n in sizes:
            if runner.params is not None:
                params = runner.validate(raw, n=n)
            else:
                params = {k: _coerce_undeclared(v) for k, v in raw.items()}
            specs.append(
                ExperimentSpec(
                    runner=args.name,
                    n=n,
                    trials=args.trials,
                    seed=args.seed,
                    params=params,
                )
            )
        with get_backend(
            args.backend,
            workers=args.workers,
            unit_size=args.wave_size,
            hosts=_parse_hosts_arg(args),
            lane_depth=args.lane_depth,
        ) as backend:
            if args.progress:
                from .engine.telemetry import SweepMonitor

                backend.monitor = SweepMonitor()
            engine = Engine(backend)
            if len(specs) == 1:
                results = [engine.run(specs[0])]
            else:
                results = engine.run_grid(specs)
    except EngineError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.telemetry is not None:
        from .engine.telemetry import write_report

        if results[0].report is None:
            print("error: backend produced no telemetry report",
                  file=sys.stderr)
            return 2
        # Grid runs share one fused-sweep report; one file covers all.
        write_report(results[0].report, args.telemetry)
        print(f"wrote telemetry to {args.telemetry}")
    failed = 0
    for result in results:
        print(result.to_table().to_text())
        if result.failure_count:
            for trial in result.failures:
                detail = trial.failure or "protocol-level failure"
                print(f"  trial {trial.trial_index} FAILED: {detail}")
            failed += result.failure_count
    return 1 if failed else 0


def _cmd_cost(args: argparse.Namespace) -> int:
    """``repro cost``: predicted per-trial cost of one scenario."""
    from .analysis.costmodel import cost_model_names, get_cost_model
    from .engine import EngineError, get_runner

    try:
        runner = get_runner(args.scenario)
        model = get_cost_model(args.scenario)
        if model is None:
            raise EngineError(
                f"no cost model for scenario {args.scenario!r}; models "
                f"exist for: {', '.join(cost_model_names())}. Sweeps of "
                "this scenario fall back to uniform dispatch geometry."
            )
        sizes = _parse_n_list(args.n)
        raw = _parse_params(args.param)
        rows = []
        for n in sizes:
            if runner.params is not None:
                params = runner.validate(raw, n=n)
            else:
                params = {k: _coerce_undeclared(v) for k, v in raw.items()}
            rows.append((n, model.predict(n, params)))
    except EngineError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"Predicted per-trial cost: {args.scenario}")
    sweep_header = f"sweep cost (x{args.trials})"
    print(f"{'n':>10}  {'bits/trial':>16}  {'work/trial':>14}  "
          f"{sweep_header:>20}")
    for n, predicted in rows:
        print(
            f"{n:>10,}  {predicted.bits:>16,.0f}  "
            f"{predicted.work:>14,.1f}  "
            f"{predicted.cost * args.trials:>20,.1f}"
        )
    declared = [p.name for p in (runner.params or ())]
    ignored = model.ignored_params(declared)
    if ignored:
        print(
            "\nnote: the model does not price these declared params "
            f"(they do not change the prediction): {', '.join(ignored)}"
        )
    return 0


def _cmd_worker_serve(args: argparse.Namespace) -> int:
    """``repro worker serve``: run a distributed-dispatch worker."""
    import signal

    from .engine.distributed import DEFAULT_PORT, WorkerServer
    from .engine.spec import WireFormatError
    from .engine.wire import DEFAULT_MAX_FRAME_BYTES

    port = args.port if args.port is not None else DEFAULT_PORT
    max_frame = (
        args.max_frame_bytes
        if args.max_frame_bytes is not None
        else DEFAULT_MAX_FRAME_BYTES
    )
    try:
        server = WorkerServer(
            host=args.host, port=port, max_frame_bytes=max_frame
        )
    except WireFormatError as exc:  # an unusable frame cap, before binding
        print(f"error: {exc}", file=sys.stderr)
        return 2

    # SIGTERM unwinds through serve_forever so the finally block runs:
    # close() drains the in-flight unit and flushes its response before
    # the listener comes down — fleet shutdowns never cut an exchange
    # mid-envelope.
    def _terminate(signum, frame):
        raise SystemExit(0)

    signal.signal(signal.SIGTERM, _terminate)

    heartbeat = None
    if args.fleet is not None:
        from .fleet import FleetRegistry, HeartbeatThread

        heartbeat = HeartbeatThread(
            FleetRegistry(args.fleet),
            host=args.host,
            port=server.port,
            capacity=args.capacity,
            worker_id=args.worker_id,
            interval=args.heartbeat_interval,
            units_served=lambda: server.units_served,
        ).start()
        print(
            f"registered as {heartbeat.info.worker_id} "
            f"(capacity {args.capacity}) in {args.fleet}",
            flush=True,
        )
    # Flush immediately: launchers (CI, scripts) block on this line to
    # know the port is bound before dispatching to it.
    print(f"repro worker serving on {server.address}", flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.close()
        if heartbeat is not None:
            heartbeat.stop()
    return 0


def _cmd_worker(args: argparse.Namespace) -> int:
    if args.worker_command == "serve":
        return _cmd_worker_serve(args)
    raise SystemExit(f"unknown worker command {args.worker_command!r}")


def _cmd_queue_submit(args: argparse.Namespace) -> int:
    """``repro queue submit``: enqueue one experiment job."""
    from .engine import EngineError, ExperimentSpec, get_runner
    from .fleet import JobQueue

    try:
        runner = get_runner(args.name)
        raw = _parse_params(args.param)
        if runner.params is not None:
            params = runner.validate(raw, n=args.n)
        else:
            params = {k: _coerce_undeclared(v) for k, v in raw.items()}
        spec = ExperimentSpec(
            runner=args.name,
            n=args.n,
            trials=args.trials,
            seed=args.seed,
            params=params,
        )
        job = JobQueue(args.root).submit(spec, unit_size=args.unit_size)
    except EngineError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"submitted {job.describe()}")
    return 0


def _cmd_queue_status(args: argparse.Namespace) -> int:
    """``repro queue status``: the queue, or one job in detail."""
    from .engine import EngineError
    from .fleet import JobQueue

    queue = JobQueue(args.root)
    try:
        if args.job is not None:
            job = queue.get(args.job)
            print(job.describe())
            if job.error:
                print(f"  error: {job.error}")
            results = queue.load_results(job.job_id)
            if results is not None:
                failures = sum(1 for r in results if not r.ok)
                print(
                    f"  results: {len(results)} trial(s), "
                    f"{failures} failure(s) "
                    f"({queue.results_path(job.job_id)})"
                )
            return 0
        jobs = queue.jobs()
        depth = queue.depth()
        print(
            "queue "
            + "  ".join(f"{state}:{n}" for state, n in depth.items())
        )
        for job in jobs:
            print(f"  {job.describe()}")
    except EngineError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


def _cmd_queue_cancel(args: argparse.Namespace) -> int:
    """``repro queue cancel``: cancel a pending or running job."""
    from .engine import EngineError
    from .fleet import JobQueue

    try:
        job = JobQueue(args.root).cancel(args.job)
    except EngineError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"cancelled {job.job_id}")
    return 0


def _cmd_queue_run(args: argparse.Namespace) -> int:
    """``repro queue run``: drain the queue as the fleet coordinator."""
    import signal

    from .engine import EngineError
    from .fleet import Coordinator, CoordinatorInterrupted

    coordinator = Coordinator(
        args.root,
        max_jobs=args.max_jobs,
        heartbeat_timeout=args.heartbeat_timeout,
        crash_after_units=args.crash_after_units,
        lane_depth=args.lane_depth,
    )

    # First Ctrl-C: graceful stop — job threads unwind at their next
    # collect point, interrupted jobs stay ``running`` for resume, and
    # the coordinator lock is released.  The handler then restores the
    # previous disposition so a *second* Ctrl-C interrupts hard (a
    # coordinator stuck on a dead socket must still be killable).
    previous = signal.getsignal(signal.SIGINT)

    def _on_sigint(signum, frame):
        coordinator.request_stop()
        signal.signal(signal.SIGINT, previous)
        print(
            "\ninterrupt: stopping after in-flight units "
            "(Ctrl-C again to force)",
            file=sys.stderr,
        )

    try:
        signal.signal(signal.SIGINT, _on_sigint)
    except ValueError:
        previous = None  # not the main thread (tests); run unguarded
    try:
        if args.watch:
            coordinator.run_forever(
                poll_interval=args.poll_interval,
                min_workers=args.min_workers,
                worker_timeout=args.worker_timeout,
            )
            return 0
        finished = coordinator.run_once(
            min_workers=args.min_workers,
            worker_timeout=args.worker_timeout,
        )
    except (KeyboardInterrupt, CoordinatorInterrupted):
        print(
            "interrupted: incomplete jobs remain 'running'; "
            "rerun 'repro queue run' to resume",
            file=sys.stderr,
        )
        return 130
    except EngineError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        if previous is not None:
            try:
                signal.signal(signal.SIGINT, previous)
            except ValueError:
                pass
    if not finished:
        print("queue is empty")
        return 0
    failed = 0
    for job in finished:
        print(f"  {job.describe()}")
        if job.state == "failed":
            failed += 1
    return 1 if failed else 0


def _cmd_queue(args: argparse.Namespace) -> int:
    handlers = {
        "submit": _cmd_queue_submit,
        "status": _cmd_queue_status,
        "cancel": _cmd_queue_cancel,
        "run": _cmd_queue_run,
    }
    handler = handlers.get(args.queue_command)
    if handler is None:
        raise SystemExit(f"unknown queue command {args.queue_command!r}")
    return handler(args)


def _cmd_fleet(args: argparse.Namespace) -> int:
    """``repro fleet``: render (or watch) a fleet root's health."""
    from .fleet import FleetMonitor

    monitor = FleetMonitor(
        args.root,
        heartbeat_timeout=args.heartbeat_timeout,
        usage_alert=args.usage_alert,
        interval=args.interval,
    )
    # One snapshot for --once or piped output; a redraw loop on a tty.
    if args.once or not sys.stdout.isatty():
        print(monitor.render_once())
        return 0
    try:
        monitor.watch()
    except KeyboardInterrupt:
        pass
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    """``repro bench``: run the perf-gate suites, emit/gate JSON."""
    from .analysis.perf_gate import main as perf_gate_main

    forwarded: List[str] = []
    if args.quick:
        forwarded.append("--quick")
    if args.out is not None:
        forwarded.extend(["--out", args.out])
    if args.baseline is not None:
        forwarded.extend(["--baseline", args.baseline])
    forwarded.extend(["--max-regression", str(args.max_regression)])
    return perf_gate_main(forwarded)


def build_parser() -> argparse.ArgumentParser:
    """Construct the argparse parser with every subcommand registered."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of King & Saia (PODC 2010): scalable Byzantine "
            "agreement with an adaptive adversary."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("info", help="derived protocol parameters")
    p.add_argument("-n", type=int, default=81, help="network size")
    p.set_defaults(func=_cmd_info)

    p = sub.add_parser("run-ba", help="run everywhere Byzantine agreement")
    p.add_argument("-n", type=int, default=27, help="network size")
    p.add_argument("--corrupt", type=float, default=0.0,
                   help="adaptive corruption fraction (e.g. 0.1)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--input-bit", type=int, choices=(0, 1), default=None,
                   help="give every processor this input bit")
    p.set_defaults(func=_cmd_run_ba)

    p = sub.add_parser("costmodel",
                       help="modelled bits/processor vs baselines")
    p.add_argument("--start", type=int, default=1 << 10)
    p.add_argument("--stop", type=int, default=1 << 20)
    p.add_argument("--factor", type=int, default=4)
    p.add_argument("--plot", action="store_true",
                   help="render a log-log chart of the curves")
    p.set_defaults(func=_cmd_costmodel)

    p = sub.add_parser("attack", help="run a lower-bound attack demo")
    p.add_argument("kind", choices=("guessing", "isolation"))
    p.add_argument("-n", type=int, default=90)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_attack)

    p = sub.add_parser("run-async", help="asynchronous BA comparison")
    p.add_argument("-n", type=int, default=6)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_run_async)

    p = sub.add_parser(
        "elect-leader",
        help="draw a leader rotation from the global coin subsequence",
    )
    p.add_argument("-n", type=int, default=27, help="network size")
    p.add_argument("--rounds", type=int, default=4,
                   help="number of leaders to draw")
    p.add_argument("--corrupt", type=float, default=0.0,
                   help="adaptive corruption fraction (e.g. 0.1)")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_elect_leader)

    p = sub.add_parser(
        "commit-log",
        help="commit a multi-slot replicated log off one tournament",
    )
    p.add_argument("-n", type=int, default=27, help="network size")
    p.add_argument("--slots", type=int, default=3,
                   help="number of log slots to commit")
    p.add_argument("--corrupt", type=float, default=0.0,
                   help="adaptive corruption fraction (e.g. 0.1)")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_commit_log)

    p = sub.add_parser(
        "run-experiment",
        help="run Monte-Carlo trials of a registered scenario on an "
             "engine backend",
    )
    p.add_argument("--name", default="everywhere-ba",
                   help="registered scenario (see --list)")
    p.add_argument("-n", default="27", metavar="N[,N...]",
                   help="network size; a comma-separated list runs the "
                        "whole grid as one fused sweep")
    p.add_argument("--trials", type=int, default=8,
                   help="number of independent trials (per grid point)")
    p.add_argument("--seed", type=int, default=0,
                   help="master seed (per-trial seeds are derived)")
    p.add_argument("--backend", default="serial",
                   choices=("serial", "process", "batch", "distributed"),
                   help="execution backend")
    p.add_argument("--workers", type=int, default=None,
                   help="process-pool workers (default: cpu count)")
    p.add_argument("--wave-size", type=int, default=None,
                   help="process/distributed backends: trials "
                        "per dispatched unit, fixed by hand (default: "
                        "sized from each scenario's predicted per-trial "
                        "cost, ~4 units per worker across the grid)")
    p.add_argument("--hosts", default=None, metavar="HOST:PORT,...",
                   help="distributed backend: comma-separated "
                        "`repro worker serve` addresses")
    p.add_argument("--lane-depth", type=int, default=None,
                   help="distributed backend: pipelined units in "
                        "flight per worker lane (default 2; 1 = one "
                        "serial exchange at a time)")
    p.add_argument("--param", action="append", default=[],
                   metavar="KEY=VALUE",
                   help="scenario parameter, validated against the "
                        "declared schema (repeatable)")
    p.add_argument("--telemetry", default=None, metavar="PATH",
                   help="write the run's telemetry report (lanes, "
                        "latency percentiles, retries, bit stats) as "
                        "JSON; render it with `repro report PATH`")
    p.add_argument("--progress", action="store_true",
                   help="live stderr progress line (trials done, "
                        "per-lane rates, ETA); inert when stderr is "
                        "not a tty")
    p.add_argument("--list", action="store_true",
                   help="list scenarios with their declared "
                        "parameters, types and defaults, then exit")
    p.add_argument("--smoke", action="store_true",
                   help="run every declared scenario once (tiny n, "
                        "2 trials) — CI's registration guard")
    p.set_defaults(func=_cmd_run_experiment)

    p = sub.add_parser(
        "cost",
        help="predicted per-trial cost of a scenario over a size grid "
             "(the figures dispatch sizes work units by)",
    )
    p.add_argument("scenario", help="registered scenario name")
    p.add_argument("-n", default="8,16,32,64", metavar="N[,N...]",
                   help="network sizes to price (comma-separated)")
    p.add_argument("--trials", type=int, default=8,
                   help="trial count used for the sweep-cost column")
    p.add_argument("--param", action="append", default=[],
                   metavar="KEY=VALUE",
                   help="scenario parameter, validated against the "
                        "declared schema (repeatable)")
    p.set_defaults(func=_cmd_cost)

    p = sub.add_parser(
        "worker",
        help="distributed-dispatch worker management",
    )
    worker_sub = p.add_subparsers(dest="worker_command", required=True)
    ws = worker_sub.add_parser(
        "serve",
        help="serve engine work units over TCP (blocks; ^C to stop)",
    )
    ws.add_argument("--host", default="127.0.0.1",
                    help="interface to bind (default: loopback; bind "
                         "non-loopback only on trusted networks)")
    ws.add_argument("--port", type=int, default=None,
                    help="TCP port to listen on (default: the engine's "
                         "DEFAULT_PORT, 7045; 0 = ephemeral)")
    ws.add_argument("--fleet", default=None, metavar="ROOT",
                    help="fleet root directory: register in its worker "
                         "roster and heartbeat until shutdown")
    ws.add_argument("--capacity", type=int, default=1,
                    help="announced capacity weight: concurrent units "
                         "this worker should hold (default 1)")
    ws.add_argument("--worker-id", default=None,
                    help="registry id (default: derived from hostname "
                         "and listening address)")
    ws.add_argument("--heartbeat-interval", type=float, default=2.0,
                    help="seconds between heartbeat writes (default 2)")
    ws.add_argument("--max-frame-bytes", type=int,
                    default=None,
                    help="refuse request frames larger than this "
                         "(default 64 MiB)")
    ws.set_defaults(func=_cmd_worker)

    p = sub.add_parser(
        "queue",
        help="persistent fleet job queue: submit, inspect, cancel, run",
    )
    queue_sub = p.add_subparsers(dest="queue_command", required=True)

    qs = queue_sub.add_parser(
        "submit", help="enqueue one scenario sweep as a durable job"
    )
    qs.add_argument("--root", required=True, metavar="DIR",
                    help="fleet root directory (created if missing)")
    qs.add_argument("--name", default="everywhere-ba",
                    help="registered scenario (see run-experiment --list)")
    qs.add_argument("-n", type=int, default=27, help="network size")
    qs.add_argument("--trials", type=int, default=8,
                    help="number of independent trials")
    qs.add_argument("--seed", type=int, default=0,
                    help="master seed (per-trial seeds are derived)")
    qs.add_argument("--param", action="append", default=[],
                    metavar="KEY=VALUE",
                    help="scenario parameter, validated against the "
                         "declared schema (repeatable)")
    qs.add_argument("--unit-size", type=int, default=None,
                    help="trials per dispatched unit (default: the "
                         "capacity-weighted plan geometry)")
    qs.set_defaults(func=_cmd_queue)

    qs = queue_sub.add_parser(
        "status", help="list the queue, or show one job in detail"
    )
    qs.add_argument("--root", required=True, metavar="DIR")
    qs.add_argument("job", nargs="?", default=None,
                    help="job id (omit to list every job)")
    qs.set_defaults(func=_cmd_queue)

    qs = queue_sub.add_parser(
        "cancel", help="cancel a pending or running job"
    )
    qs.add_argument("--root", required=True, metavar="DIR")
    qs.add_argument("job", help="job id to cancel")
    qs.set_defaults(func=_cmd_queue)

    qs = queue_sub.add_parser(
        "run",
        help="run the coordinator: drain the queue against the "
             "registered workers (crash-resumable)",
    )
    qs.add_argument("--root", required=True, metavar="DIR")
    qs.add_argument("--max-jobs", type=int, default=2,
                    help="sweeps in flight at once (default 2)")
    qs.add_argument("--min-workers", type=int, default=1,
                    help="registered workers to wait for (default 1)")
    qs.add_argument("--worker-timeout", type=float, default=30.0,
                    help="seconds to wait for workers (default 30)")
    qs.add_argument("--heartbeat-timeout", type=float, default=10.0,
                    help="seconds before a silent worker is evicted")
    qs.add_argument("--watch", action="store_true",
                    help="keep polling for new jobs instead of exiting "
                         "when the queue drains")
    qs.add_argument("--poll-interval", type=float, default=1.0,
                    help="--watch: seconds between empty-queue polls")
    qs.add_argument("--lane-depth", type=int, default=2,
                    help="pipelined units in flight per worker lane "
                         "(default 2; 1 = one serial exchange at a "
                         "time)")
    qs.add_argument("--crash-after-units", type=int, default=None,
                    help=argparse.SUPPRESS)  # failure injection (tests)
    qs.set_defaults(func=_cmd_queue)

    p = sub.add_parser(
        "fleet",
        help="live fleet monitor: worker health, queue depth, lane "
             "throughput, usage alerts",
    )
    p.add_argument("--root", required=True, metavar="DIR",
                   help="fleet root directory to observe")
    p.add_argument("--once", action="store_true",
                   help="print one snapshot and exit (default when "
                        "stdout is not a tty)")
    p.add_argument("--interval", type=float, default=2.0,
                   help="watch mode: seconds between redraws")
    p.add_argument("--usage-alert", type=float, default=0.9,
                   help="lane busy fraction that raises an alert "
                        "(default 0.9)")
    p.add_argument("--heartbeat-timeout", type=float, default=10.0,
                   help="seconds before a worker renders as stale")
    p.set_defaults(func=_cmd_fleet)

    p = sub.add_parser(
        "bench",
        help="run the perf-gate suites and emit BENCH_core-style JSON",
    )
    p.add_argument("--json", action="store_true",
                   help="accepted for symmetry; output is always JSON")
    p.add_argument("--quick", action="store_true",
                   help="CI-sized repetitions")
    p.add_argument("--out", default=None, metavar="PATH",
                   help="write the JSON here ('-' for stdout only)")
    p.add_argument("--baseline", default=None, metavar="PATH",
                   help="gate speedups against this committed baseline")
    p.add_argument("--max-regression", type=float, default=0.25,
                   help="allowed fractional speedup drop (default 0.25)")
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser(
        "report",
        help="run a compact battery and write a Markdown report, or "
             "render a saved telemetry artifact",
    )
    p.add_argument("telemetry", nargs="?", default=None, metavar="TELEMETRY",
                   help="telemetry JSON from `run-experiment "
                        "--telemetry`; when given, render it as "
                        "plain-text tables instead of running the "
                        "battery")
    p.add_argument("-n", type=int, default=27)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="-",
                   help="output path, or - for stdout")
    p.set_defaults(func=_cmd_report)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
