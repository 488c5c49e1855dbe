"""The end-to-end benchmark's workloads, and the process that runs one.

Every workload is a closed loop of ``repro run-experiment``-shaped
sweeps: build a spec, ``Engine(backend).run(spec)``, render the result
table, and submit the next spec as soon as the previous one finished.
Batch ``k`` of a workload runs a spec whose seed is derived from the
benchmark seed, the workload name and ``k``; trials inside a spec get
the engine's own per-trial seeds.  After the timed loop, one untimed
counted sweep, seeded by the workload name alone, gives the count
metrics.  Input bits use the ``split`` pattern (no majority exists,
the hardest case).

``run.py`` starts this file in a fresh interpreter for each set-up
sample and each measured run::

    python benchmarks/e2e/workloads.py --workload NAME --seed S \\
        --seconds T --mode setup|run|trace --t0 WALLCLOCK --trace-out P

and reads the JSON document printed as the last line of stdout.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import resource
import select
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

#: Seconds a worker gets to print its listening address.
WORKER_START_TIMEOUT = 60.0


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: a spec shape, a backend, a loop geometry."""

    name: str
    runner: str
    n: int
    params: Tuple[Tuple[str, Any], ...]
    #: ``serial``, ``batch`` or ``distributed`` (2 local workers).
    backend: str
    #: Trials per submitted spec (one sweep of the closed loop).
    batch_trials: int
    #: Batches every run completes, however long they take, so the
    #: latency percentiles always have their samples.
    min_batches: int
    #: Trials of the untimed warm-up sweep that ends set-up.
    warmup_trials: int
    #: The latency tail percentile: the highest with at least ten of
    #: the run's minimum sample count beyond it (W3: a quarter of them).
    tail_pct: float
    #: Leading trials of the counted sweep re-run on the serial backend,
    #: which must reproduce them bit for bit (0: already serial).
    parity_trials: int
    why: str


WORKLOADS: Tuple[Workload, ...] = (
    Workload(
        name="eba-n9-adaptive",
        runner="everywhere-ba",
        n=9,
        params=(
            ("adversary", "bin-stuffing"),
            ("corrupt", 0.1),
            ("inputs", "split"),
        ),
        backend="serial",
        batch_trials=5,
        min_batches=5,
        warmup_trials=1,
        tail_pct=60.0,
        parity_trials=0,
        why=(
            "Theorem 1 end to end on the serial backend: tournament "
            "communication, Reed-Solomon and interpolation kernels, "
            "adaptive bin-stuffing adversary; tail = p60 of >=25 trials"
        ),
    ),
    Workload(
        name="aeba-n256-sparse",
        runner="unreliable-coin-ba",
        n=256,
        params=(
            ("behavior", "anti_majority"),
            ("corrupt", 0.1),
            ("inputs", "split"),
            ("num_rounds", 3),
        ),
        backend="serial",
        batch_trials=25,
        min_batches=4,
        warmup_trials=1,
        tail_pct=90.0,
        parity_trials=0,
        why=(
            "Algorithm 5 on a sparse graph, serial: many tiny messages "
            "through the simulator, ledger, adversary and one graph build "
            "per trial; no crypto; tail = p90 of >=100 trials"
        ),
    ),
    Workload(
        name="vss-coin-k24-batch",
        runner="vss-coin",
        n=24,
        params=(("adversary", "withhold"),),
        backend="batch",
        batch_trials=32,
        min_batches=4,
        warmup_trials=8,
        tail_pct=75.0,
        parity_trials=8,
        why=(
            "committee coin on the batch backend: few rounds of large "
            "nested payloads, bulk dealing and batched reveal kernels; "
            "latency is one sample per 8-trial wave; tail = p75 of >=16 waves"
        ),
    ),
    Workload(
        name="dist-pk-n8-units",
        runner="phase-king",
        n=8,
        params=(("inputs", "split"),),
        backend="distributed",
        batch_trials=250,
        min_batches=4,
        warmup_trials=8,
        tail_pct=99.0,
        parity_trials=8,
        why=(
            "phase-king, one trial per unit, to 2 loopback workers with "
            "no added delay: client-side dispatch, wire and merge; "
            "latency is unit submit-to-collect; tail = p99"
        ),
    ),
)

BY_NAME: Dict[str, Workload] = {w.name: w for w in WORKLOADS}

#: End-to-end metrics counted from protocol outputs (not the clock),
#: over the counted sweep: every run reads the same values.
COUNT_METRICS = (
    "completed_fraction", "agreement_fraction",
    "bits_per_proc_max", "bits_per_trial", "msgs_per_trial", "rounds_p50",
)

#: Trials per wave of the batch backend; one latency sample per wave.
BATCH_WAVE = 8

#: Layers whose self time per trial is reported as ``<layer>.s``.
SELF_TIME_LAYERS = (
    "core.tournament", "core.send_secret_up", "core.send_down",
    "core.send_open", "core.ae2e", "core.on_round", "core.bulk_predeal",
    "adversary.act", "adversary.select_corruptions",
    "net.step", "net.ledger", "net.collect_result",
    "topology.graph_build",
    "crypto.interp", "crypto.eval", "crypto.bivariate", "crypto.rs_decode",
    "engine.build", "engine.prepare_wave", "engine.collect",
    "dispatch.plan", "dispatch.collect_loop", "dispatch.submit",
    "dispatch.wait", "wire.encode", "wire.decode",
    "merge.report", "merge.telemetry", "merge.result_decode",
    "merge.aggregate", "runtime.gc",
)

#: Layers whose calls per trial are reported as ``<layer>.calls``.
CALL_LAYERS = (
    "net.step", "net.ledger", "crypto.interp", "crypto.rs_decode",
    "dispatch.submit", "runtime.gc",
)

#: (name, unit, better) of every end-to-end metric, in print order.
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("trials_per_s", "trials/s", "higher"),
    ("trial_ms_p50", "ms", "lower"),
    ("trial_ms_tail", "ms", "lower"),
    ("peak_rss_mb", "MiB", "lower"),
    ("completed_fraction", "ratio", "higher"),
    ("agreement_fraction", "ratio", "higher"),
    ("bits_per_proc_max", "bits", "lower"),
    ("bits_per_trial", "bits", "lower"),
    ("msgs_per_trial", "messages", "lower"),
    ("rounds_p50", "rounds", "lower"),
)

#: (name, unit, better) of every per-layer metric (``--trace 1``).
PER_LAYER = (
    tuple((f"{layer}.s", "s/trial", "lower") for layer in SELF_TIME_LAYERS)
    + tuple((f"{layer}.calls", "calls/trial", "lower") for layer in CALL_LAYERS)
    + (
        ("crypto.plan_hit_ratio", "ratio", "higher"),
        ("dispatch.units", "units/trial", "lower"),
        ("dispatch.retries", "count", "lower"),
        ("dispatch.queue_wait_ms_p50", "ms", "lower"),
        ("dispatch.compute_share", "ratio", "higher"),
        ("dispatch.client_cpu_share", "ratio", "lower"),
        ("wire.bytes_per_unit", "B/unit", "lower"),
        ("wire.frames_per_unit", "frames/unit", "lower"),
        ("wire.round_trip_ms_p50", "ms", "lower"),
        ("wire.inflight_peak", "units", "lower"),
        ("trace.overhead", "ratio", "lower"),
        ("trace.unattributed_share", "ratio", "lower"),
    )
)


#: Iterations of one CPU-probe slice (~25 ms on an idle machine here).
PROBE_SLICE = 300_000
#: The slice time timings are normalised to: a time metric reads what
#: it would on a machine where one probe slice takes this long.
PROBE_REF_MS = 25.0


def probe_ms(slices: int = 3) -> float:
    """A fixed pure-Python CPU workload: mean milliseconds per slice.

    The mean, not the fastest slice: when other processes take turns
    on this CPU, every slice pays its share, exactly as the workload
    does.
    """
    start = time.perf_counter()
    for _ in range(slices):
        acc = 0
        for i in range(PROBE_SLICE):
            acc = (acc + i * i) % 1_000_003
    return 1000.0 * (time.perf_counter() - start) / slices


def spec_seed(seed: Any, workload: str, batch: Any) -> int:
    """The master seed of one batch's spec (63 bits, wire-safe)."""
    digest = hashlib.sha256(f"e2e/{seed}/{workload}/{batch}".encode()).digest()
    return int.from_bytes(digest[:8], "big") >> 1


def percentile(values: Sequence[float], pct: float) -> float:
    """Linear-interpolated percentile (``pct`` in 0..100)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    rank = (len(ordered) - 1) * pct / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


# -- the running workload -------------------------------------------------------------


class Session:
    """One workload's engine, plus its local worker processes (W4)."""

    def __init__(self, workload: Workload, seed: int) -> None:
        self.workload = workload
        self.seed = seed
        self.workers: List[subprocess.Popen] = []
        self.engine: Any = None

    def spec(self, batch: Any, trials: int, seed: Any = None):
        from repro.engine import ExperimentSpec

        w = self.workload
        return ExperimentSpec(
            runner=w.runner,
            n=w.n,
            trials=trials,
            seed=spec_seed(self.seed if seed is None else seed, w.name, batch),
            params=dict(w.params),
        )

    def open(self) -> None:
        """Build the backend and run the untimed warm-up sweep."""
        from repro.engine import (
            BatchBackend,
            DistributedBackend,
            Engine,
            SerialBackend,
        )

        kind = self.workload.backend
        if kind == "serial":
            backend: Any = SerialBackend()
        elif kind == "batch":
            backend = BatchBackend(max_live=BATCH_WAVE)
        else:
            hosts = self._start_workers(2)
            backend = DistributedBackend(hosts=hosts, unit_size=1)
        self.engine = Engine(backend)
        self.run_batch("warmup", self.workload.warmup_trials)

    def run_batch(
        self, batch: Any, trials: Optional[int] = None, seed: Any = None
    ):
        """One sweep: run, render the table; returns (result, unit records)."""
        spec = self.spec(batch, trials or self.workload.batch_trials, seed)
        result = self.engine.run(spec)
        result.to_table().to_text()
        return result, list(self.engine.backend.telemetry.records)

    def counted_sweep(self):
        """The untimed sweep the count metrics come from.

        Its seed depends on the workload's name alone, so every run
        counts the same trials, whatever its ``--seed``: a change in a
        count metric means the protocol's behaviour changed.
        """
        return self.run_batch("counted", seed="counted")[0]

    def _start_workers(self, count: int) -> List[str]:
        import repro

        # The workers import the same repro tree as this process.
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.dirname(os.path.dirname(repro.__file__))
        for _ in range(count):
            self.workers.append(
                subprocess.Popen(
                    [
                        sys.executable, "-m", "repro", "worker", "serve",
                        "--host", "127.0.0.1", "--port", "0",
                    ],
                    env=env,
                    stdout=subprocess.PIPE,
                    text=True,
                )
            )
        hosts = []
        for proc in self.workers:
            ready, _, _ = select.select(
                [proc.stdout], [], [], WORKER_START_TIMEOUT
            )
            line = proc.stdout.readline() if ready else ""
            # "repro worker serving on HOST:PORT [auto codec]"
            words = line.split()
            if len(words) < 5 or words[3] != "on":
                raise RuntimeError(f"worker did not start: {line!r}")
            hosts.append(words[4])
        return hosts

    def close(self) -> None:
        """Close the engine, then stop and reap every worker."""
        if self.engine is not None:
            self.engine.close()
        for proc in self.workers:
            proc.terminate()
        for proc in self.workers:
            try:
                proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        self.workers = []

    def peak_rss_mb(self) -> float:
        """Peak RSS of this process and of its reaped workers, in MiB."""
        own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        return max(own, workers) / 1024.0


@dataclass
class Sweep:
    """One sweep's measurements.

    The full result and unit records are kept only for traced runs,
    whose per-layer metrics read them, so the benchmark's own memory
    does not grow with the run and skew ``peak_rss_mb``.
    """

    attempted: int
    completed: int  # no crash
    wall: float  # seconds
    cpu: float  # this process's CPU seconds
    #: Mean of the CPU probes taken just before and just after the sweep.
    probe: float
    #: Latency samples, raw seconds: one per unit, each the unit's span
    #: divided by its trials (a unit is one trial, or one batch wave).
    latencies: List[float]
    errors: List[str]
    result: Any = None
    records: Any = None

    @property
    def speed(self) -> float:
        """How much faster than the reference machine this sweep ran."""
        return PROBE_REF_MS / self.probe


def violations(result) -> List[str]:
    """Missing or reordered trials and crashed ones, naming spec and trial."""
    spec = result.spec
    errors = []
    indices = [t.trial_index for t in result.trials]
    if indices != list(range(spec.trials)):
        missing = sorted(set(range(spec.trials)) - set(indices))
        errors.append(
            f"{spec.describe()}: trial indices out of order or missing "
            f"(missing {missing[:10]})"
        )
    errors.extend(
        f"{spec.describe()} trial {t.trial_index}: {t.failure}"
        for t in result.trials
        if t.failure
    )
    return errors


def summarize(result, records, wall, cpu, probe, keep) -> Sweep:
    """A sweep's summary."""
    return Sweep(
        attempted=result.spec.trials,
        completed=sum(1 for t in result.trials if not t.failure),
        wall=wall,
        cpu=cpu,
        probe=probe,
        latencies=[
            r.latency_seconds / r.trials for r in records if r.ok and r.trials
        ],
        errors=violations(result),
        result=result if keep else None,
        records=records if keep else None,
    )


@dataclass
class Loop:
    """What one timed closed loop observed."""

    sweeps: List[Sweep]

    @property
    def trials(self) -> int:
        return sum(s.attempted for s in self.sweeps)

    @property
    def failed(self) -> int:
        return sum(s.attempted - s.completed for s in self.sweeps)

    def throughputs(self) -> List[float]:
        """Normalised trials per second of each sweep."""
        return [s.attempted / s.wall / s.speed for s in self.sweeps]

    def latencies(self) -> List[float]:
        """Normalised latency samples of every sweep."""
        return [
            latency * s.speed for s in self.sweeps for latency in s.latencies
        ]


def timed_loop(
    session: Session, seconds: float, tracer: Any = None
) -> Loop:
    """Submit sweeps back to back for ``seconds`` (and ``min_batches``).

    A short CPU probe runs before the first sweep and after each one,
    and each sweep's timings are normalised by the mean of the probes
    around it: this machine's speed for pure-Python work drifts by tens
    of percent over seconds when other tenants load it, and the probe
    drifts with it.
    """
    loop = Loop([])
    before = probe_ms()
    start = time.perf_counter()
    k = 0
    while True:
        began = time.perf_counter()
        cpu = time.process_time()
        if tracer is None:
            result, records = session.run_batch(k)
        else:
            tracer.trial = str(k)
            with tracer.span("batch"):
                result, records = session.run_batch(k)
        cpu = time.process_time() - cpu
        wall = time.perf_counter() - began
        after = probe_ms()
        loop.sweeps.append(
            summarize(
                result, records, wall, cpu, (before + after) / 2,
                keep=tracer is not None,
            )
        )
        before = after
        k += 1
        if (
            k >= session.workload.min_batches
            and time.perf_counter() - start >= seconds
        ):
            return loop


# -- correctness ----------------------------------------------------------------------


def check(session: Session, loop: Loop, counted) -> List[str]:
    """Every violation in the loop and the counted sweep, plus the
    counted sweep's serial parity re-run."""
    errors = [error for sweep in loop.sweeps for error in sweep.errors]
    errors.extend(violations(counted))
    parity = min(session.workload.parity_trials, len(counted.trials))
    if parity:
        from repro.engine import Engine, SerialBackend

        spec = dataclasses.replace(counted.spec, trials=parity)
        serial = Engine(SerialBackend()).run(spec).trials
        for mine, ref in zip(counted.trials[:parity], serial):
            if mine != ref:
                errors.append(
                    f"{counted.spec.describe()} trial {ref.trial_index}: "
                    f"{session.workload.backend} result differs from serial"
                )
    return errors


# -- metrics --------------------------------------------------------------------------


def end_to_end(session: Session, loop: Loop, counted) -> Dict[str, float]:
    """The end-to-end metrics this run measured before teardown.

    Timings come from the timed loop, counts from the counted sweep.
    ``peak_rss_mb`` follows once the workers have stopped, ``setup_s``
    comes from run.py (the median over several set-ups).
    """
    latencies = loop.latencies()
    trials = counted.trials
    done = [t for t in trials if not t.failure]
    return {
        # Median over sweeps: one disturbed sweep does not move it.
        "trials_per_s": statistics.median(loop.throughputs()),
        "trial_ms_p50": 1000.0 * percentile(latencies, 50.0),
        "trial_ms_tail": 1000.0 * percentile(
            latencies, session.workload.tail_pct
        ),
        "completed_fraction": len(done) / len(trials),
        "agreement_fraction": (
            sum(1 for t in done if t.ok) / max(1, len(done))
        ),
        "bits_per_proc_max": statistics.median(
            t.ledger.max_bits_per_processor for t in done
        ),
        "bits_per_trial": statistics.fmean(t.ledger.total_bits for t in done),
        "msgs_per_trial": statistics.fmean(
            t.ledger.total_messages for t in done
        ),
        "rounds_p50": statistics.median(t.ledger.rounds for t in done),
    }


def per_layer(
    untraced: Loop,
    traced: Loop,
    totals: Dict[str, Dict[str, float]],
    main_totals: Dict[str, Dict[str, float]],
) -> Dict[str, float]:
    """The per-layer metrics of one traced run (see README.md).

    ``totals`` covers every thread; ``main_totals`` only the thread that
    runs the batches, whose wall clock the unattributed share divides.
    """
    from layertrace import STRUCTURAL

    trials = traced.trials

    def own(name: str) -> float:
        return totals.get(name, {}).get("self_s", 0.0) / trials

    def calls(name: str) -> float:
        return totals.get(name, {}).get("calls", 0) / trials

    metrics = {f"{layer}.s": own(layer) for layer in SELF_TIME_LAYERS}
    for layer in CALL_LAYERS:
        metrics[f"{layer}.calls"] = calls(layer)
    lookups = totals.get("crypto.plan_lookup", {}).get("calls", 0)
    builds = totals.get("crypto.plan_build", {}).get("calls", 0)
    metrics["crypto.plan_hit_ratio"] = 1.0 - builds / lookups if lookups else 0.0

    wall = sum(sweep.wall for sweep in traced.sweeps)
    records = [r for sweep in traced.sweeps for r in sweep.records]
    lanes = [
        lane for sweep in traced.sweeps for lane in sweep.result.report.lanes
    ]
    units = len(records)
    lane_ids = {lane.lane for lane in lanes}
    compute = sum(sum(lane.compute_seconds) for lane in lanes)
    round_trips = [rt for lane in lanes for rt in lane.round_trip_seconds]
    waits = [
        r.latency_seconds - r.compute_seconds
        for r in records
        if r.ok and r.compute_seconds is not None
    ]
    metrics.update(
        {
            "dispatch.units": units / trials,
            "dispatch.retries": float(
                sum(sweep.result.report.retries for sweep in traced.sweeps)
            ),
            "dispatch.queue_wait_ms_p50": (
                1000.0 * percentile(waits, 50.0) if waits else 0.0
            ),
            "dispatch.compute_share": compute / (max(1, len(lane_ids)) * wall),
            "dispatch.client_cpu_share": (
                sum(sweep.cpu for sweep in traced.sweeps) / wall
            ),
            "wire.bytes_per_unit": (
                sum(lane.bytes_out + lane.bytes_in for lane in lanes) / units
            ),
            "wire.frames_per_unit": sum(lane.frames for lane in lanes) / units,
            "wire.round_trip_ms_p50": (
                1000.0 * percentile(round_trips, 50.0) if round_trips else 0.0
            ),
            "wire.inflight_peak": float(
                max((lane.inflight_peak for lane in lanes), default=0)
            ),
        }
    )
    layer_self = sum(
        rec["self_s"]
        for name, rec in main_totals.items()
        if name not in STRUCTURAL
    )
    batch_wall = main_totals["batch"]["total_s"]
    metrics["trace.overhead"] = (
        statistics.median(untraced.throughputs())
        / statistics.median(traced.throughputs())
        - 1.0
    )
    metrics["trace.unattributed_share"] = 1.0 - layer_self / batch_wall
    return metrics


# -- the child entry point ------------------------------------------------------------


def _trace_run(
    session: Session, seconds: float, trace_out: str
) -> Tuple[Loop, Dict[str, float], List[str]]:
    """Untraced loop, then the same batches traced; writes the trace."""
    from layertrace import EXPECTED_FIRING, Tracer

    untraced = timed_loop(session, seconds)
    tracer = Tracer()
    tracer.install(scenario_names=(session.workload.runner,))
    try:
        traced = timed_loop(session, seconds, tracer)
    finally:
        tracer.uninstall()
    totals = tracer.totals()
    spans = tracer.spans()
    # Client-side unit spans (W4): the engine's own submit/collect stamps,
    # placed inside the batch span that ran them.
    batch_spans = [s for s in spans if s["name"] == "batch"]
    if session.workload.backend != "distributed":
        batch_spans = []
    for span, sweep in zip(batch_spans, traced.sweeps):
        for record in sweep.records:
            spans.append(
                {
                    "id": None,
                    "name": "unit",
                    "start": span["start"] + record.submit_seconds,
                    "end": span["start"] + record.collect_seconds,
                    "parent": span["id"],
                    "trial": f"{span['trial']}:{record.unit_id}",
                    "thread": record.lane,
                }
            )
    metrics = per_layer(
        untraced, traced, totals, tracer.totals(thread="MainThread")
    )
    errors = [
        f"{session.workload.name}: {name} wrapper never fired"
        for name, workloads in EXPECTED_FIRING.items()
        if session.workload.name in workloads
        and not totals.get(name, {}).get("calls")
    ]
    with open(trace_out, "w") as handle:
        json.dump(
            {
                "workload": session.workload.name,
                "seed": session.seed,
                "clock": "seconds since the tracer was created",
                "trials": traced.trials,
                "layers": totals,
                "metrics": metrics,
                "spans": spans,
            },
            handle,
        )
    return traced, metrics, errors


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(BY_NAME))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument(
        "--mode", choices=("setup", "run", "trace"), required=True
    )
    parser.add_argument(
        "--t0", type=float, required=True,
        help="wall-clock time (time.time()) when this process was started",
    )
    parser.add_argument("--trace-out", required=True)
    args = parser.parse_args(argv)

    session = Session(BY_NAME[args.workload], args.seed)
    out: Dict[str, Any] = {"workload": args.workload, "seed": args.seed}
    try:
        session.open()
        setup = time.time() - args.t0
        # Normalised like every timing, by a probe right after set-up.
        out["setup_s"] = setup * PROBE_REF_MS / probe_ms()
        if args.mode == "setup":
            print(json.dumps(out))
            return 0
        if args.mode == "trace":
            loop, metrics, trace_errors = _trace_run(
                session, args.seconds, args.trace_out
            )
        else:
            loop = timed_loop(session, args.seconds)
            trace_errors = []
        counted = session.counted_sweep()
        errors = check(session, loop, counted) + trace_errors
        if args.mode == "run":
            metrics = end_to_end(session, loop, counted)
    finally:
        session.close()
    if args.mode == "run":
        # Workers' peak memory is known once they have been reaped.
        metrics["peak_rss_mb"] = session.peak_rss_mb()
    out.update(
        {
            "attempted": loop.trials,
            "failed": loop.failed,
            "errors": errors,
            "batches": len(loop.sweeps),
            "wall_s": sum(sweep.wall for sweep in loop.sweeps),
            "latency_samples": len(loop.latencies()),
            "probe_ms": [s.probe for s in loop.sweeps],
            "metrics": metrics,
        }
    )
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
