"""The engine telemetry plane: spans, lane metrics, reports, monitor.

Every backend's dispatch path is observable through one small object
graph, always on and cheap enough to leave on (the ``telemetry_overhead``
perf-gate suite pins the cost):

* :class:`UnitRecord` — one span per work-unit *attempt*: submit and
  collect offsets on the run's monotonic clock, the lane that answered,
  the attempt number, the retry cause, and (when the worker stamped
  one) the remote compute time.
* :class:`RunTelemetry` — the mutable, thread-safe accumulator a
  backend attaches to itself for the duration of one ``run_trials``
  call.  The dispatch plane's collect loop feeds it submit/collect
  events; in-process backends record spans directly; the socket
  transport adds per-lane wire counters (bytes, round trips, dial /
  redial / dead events).
* :class:`RunReport` / :class:`LaneReport` — the frozen, **mergeable**
  summary :meth:`RunTelemetry.report` produces: wall clock, per-lane
  throughput and latency percentiles, retry/rebalance counts,
  straggler ratio, plus the protocol-level bridge (merged
  :class:`~repro.engine.spec.LedgerStats` and per-trial bit totals).
  ``merge`` is associative — raw samples concatenate, integers add,
  wall clocks max — so reports of arbitrary shards fold to the same
  artifact.
* :func:`report_to_wire` / :func:`report_from_wire` — the report as a
  versioned wire document under the engine's usual conventions
  (``wire_dumps``, NaN rejection), written by ``repro run-experiment
  --telemetry out.json`` and rendered by ``repro report out.json``.
* :class:`SweepMonitor` — the opt-in live stderr progress line
  (units done/total, per-lane rates, ETA) that degrades to nothing
  when stderr is not a tty.

Telemetry must never perturb results: nothing here touches seeds,
trial ordering, or scheduling — it only watches.  The registry-wide
parity tests re-assert bit-identical results with telemetry enabled.
"""

from __future__ import annotations

import sys
import threading
import time
from dataclasses import dataclass
from typing import (
    Any,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from ..analysis.reporting import Table
from ..net.accounting import percentile
from .spec import (
    LedgerStats,
    TrialResult,
    WIRE_VERSION,
    WireFormatError,
    _ledger_from_wire,
    _ledger_to_wire,
    _require_finite,
    require_wire,
    wire_dumps,
    wire_loads,
)

__all__ = [
    "LaneReport",
    "RunReport",
    "RunTelemetry",
    "SweepMonitor",
    "UnitRecord",
    "load_report",
    "report_from_wire",
    "report_to_wire",
    "write_report",
]


def _pct(values: Sequence[float], q: float) -> float:
    """Percentile that reads 0.0 on an empty sample set."""
    if not values:
        return 0.0
    return percentile(values, q)


# -- spans -----------------------------------------------------------------------------


@dataclass(frozen=True)
class UnitRecord:
    """One work-unit attempt, as observed from the dispatching side.

    Offsets are seconds on the run's monotonic clock (zero at
    ``run_trials`` entry), so records order and subtract cleanly within
    one run but are meaningless across runs.
    """

    unit_id: int
    lane: str
    attempt: int
    trials: int
    submit_seconds: float
    collect_seconds: float
    ok: bool = True
    cause: str = ""
    #: Worker-stamped compute time (None when the lane sent no stats).
    compute_seconds: Optional[float] = None
    #: Cost-model prediction stamped on the unit at plan time (None
    #: when the plan was not cost-sized).
    predicted_cost: Optional[float] = None

    @property
    def latency_seconds(self) -> float:
        """Observed submit-to-collect latency of this attempt."""
        return self.collect_seconds - self.submit_seconds


# -- the mergeable report --------------------------------------------------------------


@dataclass(frozen=True)
class LaneReport:
    """Per-lane metrics: units, trials, latency samples, wire counters.

    Raw latency samples are kept (not pre-aggregated) so ``merge`` is
    exactly associative and percentiles stay honest after any fold.
    """

    lane: str
    units_ok: int = 0
    units_failed: int = 0
    trials: int = 0
    #: Client-observed latency per successful unit.
    unit_seconds: Tuple[float, ...] = ()
    #: Worker-stamped compute time per unit that carried stats.
    compute_seconds: Tuple[float, ...] = ()
    #: Socket-level round trip per exchange (distributed lanes only).
    round_trip_seconds: Tuple[float, ...] = ()
    #: Plan-time predicted cost per successful unit that carried one
    #: (cost-sized plans only; parallel to nothing — raw samples).
    predicted_costs: Tuple[float, ...] = ()
    bytes_out: int = 0
    bytes_in: int = 0
    #: Reply frames received off the lane's connection.
    frames: int = 0
    #: High-water mark of the lane's pipelined in-flight window.
    inflight_peak: int = 0
    dials: int = 0
    redials: int = 0
    dead_events: int = 0

    def merge(self, other: "LaneReport") -> "LaneReport":
        """Fold two shards' views of the same lane (associative)."""
        if other.lane != self.lane:
            raise ValueError(
                f"cannot merge lane {other.lane!r} into {self.lane!r}"
            )
        return LaneReport(
            lane=self.lane,
            units_ok=self.units_ok + other.units_ok,
            units_failed=self.units_failed + other.units_failed,
            trials=self.trials + other.trials,
            unit_seconds=self.unit_seconds + other.unit_seconds,
            compute_seconds=self.compute_seconds + other.compute_seconds,
            round_trip_seconds=(
                self.round_trip_seconds + other.round_trip_seconds
            ),
            predicted_costs=self.predicted_costs + other.predicted_costs,
            bytes_out=self.bytes_out + other.bytes_out,
            bytes_in=self.bytes_in + other.bytes_in,
            frames=self.frames + other.frames,
            inflight_peak=max(self.inflight_peak, other.inflight_peak),
            dials=self.dials + other.dials,
            redials=self.redials + other.redials,
            dead_events=self.dead_events + other.dead_events,
        )

    def queue_wait_seconds(self) -> float:
        """Observed latency minus worker compute: queueing + network.

        Only meaningful when the lane's workers stamped stats; reads
        0.0 otherwise (never negative — clock skew between the two
        measurements is clamped).
        """
        if not self.compute_seconds:
            return 0.0
        return max(
            0.0, sum(self.unit_seconds) - sum(self.compute_seconds)
        )

    def cost_skew(self, run_seconds_per_cost: float) -> Optional[float]:
        """Measured vs predicted cost of this lane's work, normalised.

        The lane's measured seconds per predicted cost unit over the
        run-wide rate: 1.0 means the cost model priced this lane's
        units proportionally; >1 means its units ran slower than the
        model predicted (the model under-prices what this lane drew).
        ``None`` when the lane carried no cost-stamped units or the
        run-wide rate is degenerate.  Measured time prefers worker
        compute stats, falling back to observed unit latency.
        """
        if not self.predicted_costs or run_seconds_per_cost <= 0:
            return None
        measured = (
            sum(self.compute_seconds)
            if self.compute_seconds
            else sum(self.unit_seconds)
        )
        predicted = sum(self.predicted_costs)
        if predicted <= 0:
            return None
        return (measured / predicted) / run_seconds_per_cost

    def measured_seconds(self) -> float:
        """Worker compute time when stamped, else observed latency."""
        return (
            sum(self.compute_seconds)
            if self.compute_seconds
            else sum(self.unit_seconds)
        )


@dataclass(frozen=True)
class RunReport:
    """The frozen, mergeable summary of one (or many merged) runs.

    ``merge`` is associative: sample tuples concatenate, counters add,
    wall clocks take the max (shards that ran concurrently), and the
    ledger bridge reuses :meth:`LedgerStats.merge`.  Percentiles and
    ratios are computed at read time from the raw samples, so they
    survive any merge order unchanged.
    """

    backend: str = ""
    trials: int = 0
    failures: int = 0
    wall_seconds: float = 0.0
    unit_attempts: int = 0
    retries: int = 0
    rebalances: int = 0
    #: Observed latency of every successful unit attempt, run-wide.
    unit_seconds: Tuple[float, ...] = ()
    lanes: Tuple[LaneReport, ...] = ()
    #: Protocol-level bridge: all trials' ledgers merged ...
    ledger: LedgerStats = LedgerStats()
    #: ... and each trial's total sent bits, for percentiles.
    trial_bits: Tuple[int, ...] = ()

    # -- derived metrics ---------------------------------------------------------------

    def lane_map(self) -> Dict[str, LaneReport]:
        """The lanes keyed by id."""
        return {lane.lane: lane for lane in self.lanes}

    def unit_latency(self, q: float) -> float:
        """One percentile of successful-unit latency (0.0 if no units)."""
        return _pct(self.unit_seconds, q)

    def trial_bits_percentile(self, q: float) -> float:
        """One percentile of per-trial total sent bits."""
        return _pct(self.trial_bits, q)

    def straggler_ratio(self) -> float:
        """Slowest successful unit over the median one (1.0 = uniform)."""
        if not self.unit_seconds:
            return 0.0
        median = _pct(self.unit_seconds, 50)
        if median <= 0:
            return 0.0
        return max(self.unit_seconds) / median

    def trials_per_second(self) -> float:
        """Run-wide throughput (0.0 when the wall clock is unknown)."""
        if self.wall_seconds <= 0:
            return 0.0
        return self.trials / self.wall_seconds

    # -- folding -----------------------------------------------------------------------

    def merge(self, other: "RunReport") -> "RunReport":
        """Fold another shard's report into this one (associative)."""
        if not self.backend:
            backend = other.backend
        elif not other.backend or other.backend == self.backend:
            backend = self.backend
        else:
            backend = "mixed"
        lanes: Dict[str, LaneReport] = self.lane_map()
        for lane in other.lanes:
            if lane.lane in lanes:
                lanes[lane.lane] = lanes[lane.lane].merge(lane)
            else:
                lanes[lane.lane] = lane
        return RunReport(
            backend=backend,
            trials=self.trials + other.trials,
            failures=self.failures + other.failures,
            wall_seconds=max(self.wall_seconds, other.wall_seconds),
            unit_attempts=self.unit_attempts + other.unit_attempts,
            retries=self.retries + other.retries,
            rebalances=self.rebalances + other.rebalances,
            unit_seconds=self.unit_seconds + other.unit_seconds,
            lanes=tuple(
                lanes[lane_id] for lane_id in sorted(lanes)
            ),
            ledger=self.ledger.merge(other.ledger),
            trial_bits=self.trial_bits + other.trial_bits,
        )

    # -- rendering ---------------------------------------------------------------------

    def to_tables(self) -> List[Table]:
        """The report as plain-text tables (no new dependencies)."""
        summary = Table(
            title=f"run summary [{self.backend or 'unknown backend'}]",
            headers=["metric", "value"],
        )
        summary.add_row("trials", f"{self.trials}")
        summary.add_row("failures", f"{self.failures}")
        summary.add_row("wall seconds", f"{self.wall_seconds:.3f}")
        summary.add_row(
            "throughput (trials/s)", f"{self.trials_per_second():.2f}"
        )
        summary.add_row("unit attempts", f"{self.unit_attempts}")
        summary.add_row("retries", f"{self.retries}")
        summary.add_row("rebalances", f"{self.rebalances}")
        summary.add_row(
            "unit latency p50/p90/p99 (s)",
            "/".join(
                f"{self.unit_latency(q):.4f}" for q in (50, 90, 99)
            ),
        )
        summary.add_row(
            "straggler ratio", f"{self.straggler_ratio():.2f}"
        )
        tables = [summary]

        if self.lanes:
            # Run-wide measured seconds per predicted cost unit: the
            # normaliser for the per-lane skew column.
            total_predicted = sum(
                sum(lane.predicted_costs) for lane in self.lanes
            )
            total_measured = sum(
                lane.measured_seconds()
                for lane in self.lanes
                if lane.predicted_costs
            )
            rate = (
                total_measured / total_predicted if total_predicted else 0.0
            )
            lanes = Table(
                title="lanes",
                headers=[
                    "lane", "units", "fail", "trials", "p50 s",
                    "p90 s", "p99 s", "compute s", "queue+net s",
                    "skew", "frames",
                    "KiB out", "KiB in", "dials", "redials", "dead",
                ],
                note=(
                    "compute/queue+net need worker stats; blank "
                    "columns mean the lane sent none; skew is measured "
                    "vs predicted unit cost (1.00 = model matches clock); "
                    "frames are socket-lane wire counters"
                ),
            )
            for lane in self.lanes:
                has_stats = bool(lane.compute_seconds)
                skew = lane.cost_skew(rate)
                lanes.add_row(
                    lane.lane,
                    f"{lane.units_ok}",
                    f"{lane.units_failed}",
                    f"{lane.trials}",
                    f"{_pct(lane.unit_seconds, 50):.4f}",
                    f"{_pct(lane.unit_seconds, 90):.4f}",
                    f"{_pct(lane.unit_seconds, 99):.4f}",
                    f"{sum(lane.compute_seconds):.4f}" if has_stats else "",
                    f"{lane.queue_wait_seconds():.4f}" if has_stats else "",
                    f"{skew:.2f}" if skew is not None else "",
                    f"{lane.frames}" if lane.frames else "",
                    f"{lane.bytes_out / 1024:.1f}" if lane.bytes_out else "",
                    f"{lane.bytes_in / 1024:.1f}" if lane.bytes_in else "",
                    f"{lane.dials}",
                    f"{lane.redials}",
                    f"{lane.dead_events}",
                )
            tables.append(lanes)

        if self.ledger.total_bits or self.trial_bits:
            protocol = Table(
                title="protocol bridge (ledger)",
                headers=["metric", "value"],
                note="per-trial ledger summaries merged run-wide",
            )
            protocol.add_row(
                "total bits sent", f"{self.ledger.total_bits:,}"
            )
            protocol.add_row(
                "total messages", f"{self.ledger.total_messages:,}"
            )
            protocol.add_row(
                "max bits/processor",
                f"{self.ledger.max_bits_per_processor:,}",
            )
            protocol.add_row("rounds (total)", f"{self.ledger.rounds:,}")
            protocol.add_row(
                "per-trial bits p50/p90/p99",
                "/".join(
                    f"{self.trial_bits_percentile(q):,.0f}"
                    for q in (50, 90, 99)
                ),
            )
            for phase, bits in self.ledger.phase_bits:
                protocol.add_row(f"phase[{phase}] bits", f"{bits:,}")
            tables.append(protocol)
        return tables

    def render(self) -> str:
        """The report as one plain-text document."""
        return "\n\n".join(table.to_text() for table in self.to_tables())


# -- wire format -----------------------------------------------------------------------


def _lane_to_wire(lane: LaneReport) -> Dict[str, Any]:
    for value in lane.unit_seconds + lane.compute_seconds + (
        lane.round_trip_seconds + lane.predicted_costs
    ):
        _require_finite(value, f"lane {lane.lane!r} samples")
    return {
        "lane": lane.lane,
        "units_ok": lane.units_ok,
        "units_failed": lane.units_failed,
        "trials": lane.trials,
        "unit_seconds": list(lane.unit_seconds),
        "compute_seconds": list(lane.compute_seconds),
        "round_trip_seconds": list(lane.round_trip_seconds),
        "predicted_costs": list(lane.predicted_costs),
        "bytes_out": lane.bytes_out,
        "bytes_in": lane.bytes_in,
        "frames": lane.frames,
        "inflight_peak": lane.inflight_peak,
        "dials": lane.dials,
        "redials": lane.redials,
        "dead_events": lane.dead_events,
    }


def _lane_from_wire(doc: Mapping[str, Any]) -> LaneReport:
    return LaneReport(
        lane=str(doc["lane"]),
        units_ok=int(doc["units_ok"]),
        units_failed=int(doc["units_failed"]),
        trials=int(doc["trials"]),
        unit_seconds=tuple(float(v) for v in doc["unit_seconds"]),
        compute_seconds=tuple(float(v) for v in doc["compute_seconds"]),
        round_trip_seconds=tuple(
            float(v) for v in doc["round_trip_seconds"]
        ),
        # Tolerant: reports written before the cost plane lack the key.
        predicted_costs=tuple(
            float(v) for v in doc.get("predicted_costs", ())
        ),
        bytes_out=int(doc["bytes_out"]),
        bytes_in=int(doc["bytes_in"]),
        # Tolerant: reports from before pipelined lanes lack these.
        frames=int(doc.get("frames", 0)),
        inflight_peak=int(doc.get("inflight_peak", 0)),
        dials=int(doc["dials"]),
        redials=int(doc["redials"]),
        dead_events=int(doc["dead_events"]),
    )


def report_to_wire(report: RunReport) -> Dict[str, Any]:
    """A :class:`RunReport` as a version-1 wire document."""
    _require_finite(report.wall_seconds, "wall_seconds")
    for value in report.unit_seconds:
        _require_finite(value, "unit_seconds")
    return {
        "version": WIRE_VERSION,
        "kind": "report",
        "backend": report.backend,
        "trials": report.trials,
        "failures": report.failures,
        "wall_seconds": report.wall_seconds,
        "unit_attempts": report.unit_attempts,
        "retries": report.retries,
        "rebalances": report.rebalances,
        "unit_seconds": list(report.unit_seconds),
        "lanes": [_lane_to_wire(lane) for lane in report.lanes],
        "ledger": _ledger_to_wire(report.ledger),
        "trial_bits": list(report.trial_bits),
    }


def report_from_wire(doc: Any) -> RunReport:
    """Decode a report document; inverse of :func:`report_to_wire`.

    Older documents also carry ``trace_counters``; they are ignored.
    """
    require_wire(doc, "report")
    try:
        return RunReport(
            backend=str(doc["backend"]),
            trials=int(doc["trials"]),
            failures=int(doc["failures"]),
            wall_seconds=float(doc["wall_seconds"]),
            unit_attempts=int(doc["unit_attempts"]),
            retries=int(doc["retries"]),
            rebalances=int(doc["rebalances"]),
            unit_seconds=tuple(float(v) for v in doc["unit_seconds"]),
            lanes=tuple(_lane_from_wire(d) for d in doc["lanes"]),
            ledger=_ledger_from_wire(doc["ledger"]),
            trial_bits=tuple(int(v) for v in doc["trial_bits"]),
        )
    except WireFormatError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise WireFormatError(f"malformed report document: {exc}") from None


def write_report(report: RunReport, path: str) -> None:
    """Serialise one report to ``path`` as a single JSON line."""
    with open(path, "w") as handle:
        handle.write(wire_dumps(report_to_wire(report)) + "\n")


def load_report(path: str) -> RunReport:
    """Read a report written by :func:`write_report` (or merged peers)."""
    with open(path) as handle:
        return report_from_wire(wire_loads(handle.read()))


# -- the live monitor ------------------------------------------------------------------


class SweepMonitor:
    """Opt-in live progress line on stderr during a sweep.

    Renders ``done/total`` trials, the aggregate rate, an ETA and
    per-lane rates, redrawing in place (``\\r``).  When the stream is
    not a tty — CI logs, redirected output — it degrades to nothing:
    no escape codes, no output at all.
    """

    def __init__(
        self,
        stream: Any = None,
        min_interval: float = 0.2,
    ) -> None:
        self.stream = stream if stream is not None else sys.stderr
        isatty = getattr(self.stream, "isatty", None)
        self.enabled = bool(isatty and isatty())
        self.min_interval = min_interval
        self._last_draw = 0.0
        self._last_width = 0
        self._wrote = False

    def update(
        self,
        done: int,
        total: int,
        elapsed: float,
        lane_rates: Mapping[str, float],
    ) -> None:
        """Redraw the progress line (throttled to ``min_interval``)."""
        if not self.enabled:
            return
        now = time.monotonic()
        if done < total and now - self._last_draw < self.min_interval:
            return
        self._last_draw = now
        rate = done / elapsed if elapsed > 0 else 0.0
        if rate > 0 and total > done:
            eta = f"eta {(total - done) / rate:.0f}s"
        else:
            eta = "eta --"
        lanes = "  ".join(
            f"{lane}:{lane_rate:.1f}/s"
            for lane, lane_rate in sorted(lane_rates.items())
        )
        line = (
            f"[sweep] {done}/{total} trials  {rate:.1f}/s  {eta}"
            + (f"  |  {lanes}" if lanes else "")
        )
        padding = " " * max(0, self._last_width - len(line))
        self._last_width = len(line)
        self.stream.write("\r" + line + padding)
        self.stream.flush()
        self._wrote = True

    def finish(self) -> None:
        """End the progress line (newline) if anything was drawn."""
        if self._wrote:
            self.stream.write("\n")
            self.stream.flush()
            self._wrote = False


# -- the accumulator -------------------------------------------------------------------


class _Span:
    """Context manager recording one in-process unit span."""

    def __init__(
        self, telemetry: "RunTelemetry", lane: str, trials: int
    ) -> None:
        self._telemetry = telemetry
        self._lane = lane
        self._trials = trials
        self._start = 0.0

    def __enter__(self) -> "_Span":
        self._start = self._telemetry.elapsed()
        return self

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> None:
        self._telemetry.note_span(
            lane=self._lane,
            trials=self._trials,
            start=self._start,
            ok=exc_type is None,
            cause="" if exc_type is None else f"{exc_type.__name__}: {exc}",
        )


class RunTelemetry:
    """Mutable, thread-safe accumulator for one ``run_trials`` call.

    A backend creates one at run entry (``self.telemetry``), the
    dispatch layer feeds it events, and :meth:`report` freezes it into
    a mergeable :class:`RunReport` afterwards.  All methods take the
    lock, so an event may be reported from any thread.
    """

    def __init__(
        self,
        backend: str = "",
        total_trials: int = 0,
        monitor: Optional[SweepMonitor] = None,
    ) -> None:
        self.backend = backend
        self.total_trials = total_trials
        self.monitor = monitor
        self._lock = threading.Lock()
        self._t0 = time.monotonic()
        self.wall_seconds: Optional[float] = None
        self.records: List[UnitRecord] = []
        #: unit_id -> (submit offset, attempt, trials, predicted cost)
        self._pending: Dict[
            int, Tuple[float, int, int, Optional[float]]
        ] = {}
        self._attempts: Dict[int, int] = {}
        self._next_span_id = -1  # in-process spans count down from -1
        self._done_trials = 0
        self._lane_trials: Dict[str, int] = {}
        #: lane id -> wire counters the records cannot carry
        self._lane_net: Dict[str, Dict[str, Any]] = {}

    def elapsed(self) -> float:
        """Seconds since the run started (monotonic)."""
        return time.monotonic() - self._t0

    # -- dispatch-plane events ---------------------------------------------------------

    def note_submit(
        self,
        unit_id: int,
        trials: int,
        predicted_cost: Optional[float] = None,
    ) -> None:
        """A unit was offered to the transport (lane unknown yet)."""
        with self._lock:
            attempt = self._attempts.get(unit_id, 0) + 1
            self._attempts[unit_id] = attempt
            self._pending[unit_id] = (
                self.elapsed(), attempt, trials, predicted_cost
            )

    def cancel_submit(self, unit_id: int) -> None:
        """The transport declined the offer: forget the pending span."""
        with self._lock:
            self._pending.pop(unit_id, None)
            if unit_id in self._attempts:
                self._attempts[unit_id] -= 1

    def note_result(self, envelope: Any) -> None:
        """One collected envelope closes its pending span."""
        with self._lock:
            pending = self._pending.pop(envelope.unit_id, None)
            if pending is None:
                return  # collect without submit: nothing to anchor to
            submitted, attempt, trials, predicted = pending
            stats = getattr(envelope, "stats", None)
            record = UnitRecord(
                unit_id=envelope.unit_id,
                lane=envelope.lane,
                attempt=attempt,
                trials=trials,
                submit_seconds=submitted,
                collect_seconds=self.elapsed(),
                ok=envelope.ok,
                cause=envelope.error,
                compute_seconds=(
                    stats.compute_seconds if stats is not None else None
                ),
                predicted_cost=predicted,
            )
            self.records.append(record)
            if record.ok:
                self._done_trials += trials
                self._lane_trials[record.lane] = (
                    self._lane_trials.get(record.lane, 0) + trials
                )
        self._tick_monitor()

    # -- in-process spans --------------------------------------------------------------

    def span(self, lane: str, trials: int) -> _Span:
        """Context manager timing one in-process unit of work."""
        return _Span(self, lane, trials)

    def note_span(
        self,
        lane: str,
        trials: int,
        start: float,
        ok: bool = True,
        cause: str = "",
        compute_seconds: Optional[float] = None,
    ) -> None:
        """Record a directly-observed span (serial/batch lanes)."""
        with self._lock:
            end = self.elapsed()
            self.records.append(
                UnitRecord(
                    unit_id=self._next_span_id,
                    lane=lane,
                    attempt=1,
                    trials=trials,
                    submit_seconds=start,
                    collect_seconds=end,
                    ok=ok,
                    cause=cause,
                    # An in-process lane *is* the worker: its observed
                    # latency is all compute unless told otherwise.
                    compute_seconds=(
                        compute_seconds
                        if compute_seconds is not None
                        else end - start
                    ),
                )
            )
            self._next_span_id -= 1
            if ok:
                self._done_trials += trials
                self._lane_trials[lane] = (
                    self._lane_trials.get(lane, 0) + trials
                )
        self._tick_monitor()

    # -- transport wire events ---------------------------------------------------------

    def _lane_counters(self, lane: str) -> Dict[str, Any]:
        return self._lane_net.setdefault(
            lane,
            {
                "bytes_out": 0,
                "bytes_in": 0,
                "frames": 0,
                "inflight_peak": 0,
                "dials": 0,
                "redials": 0,
                "dead_events": 0,
                "round_trips": [],  # type: ignore[dict-item]
            },
        )

    def note_send(self, lane: str, nbytes: int) -> None:
        """One request frame went out on a lane's connection."""
        with self._lock:
            self._lane_counters(lane)["bytes_out"] += nbytes

    def note_receive(
        self, lane: str, nbytes: int, round_trip_seconds: float
    ) -> None:
        """One reply frame arrived, ``round_trip_seconds`` after its
        unit was submitted."""
        with self._lock:
            counters = self._lane_counters(lane)
            counters["bytes_in"] += nbytes
            counters["frames"] += 1
            counters["round_trips"].append(round_trip_seconds)

    def note_inflight(self, lane: str, inflight: int) -> None:
        """Track the high-water mark of a lane's pipeline window."""
        with self._lock:
            counters = self._lane_counters(lane)
            if inflight > counters["inflight_peak"]:
                counters["inflight_peak"] = inflight

    def note_lane_event(self, lane: str, kind: str) -> None:
        """A lane lifecycle event: ``dial``, ``redial`` or ``dead``."""
        key = {
            "dial": "dials", "redial": "redials", "dead": "dead_events"
        }.get(kind)
        if key is None:
            raise ValueError(f"unknown lane event {kind!r}")
        with self._lock:
            self._lane_counters(lane)[key] += 1

    # -- lifecycle ---------------------------------------------------------------------

    def _tick_monitor(self) -> None:
        if self.monitor is None:
            return
        elapsed = self.elapsed()
        with self._lock:
            done = self._done_trials
            rates = {
                lane: trials / elapsed if elapsed > 0 else 0.0
                for lane, trials in self._lane_trials.items()
            }
        self.monitor.update(
            done=done,
            total=self.total_trials,
            elapsed=elapsed,
            lane_rates=rates,
        )

    def finish(self) -> None:
        """Stamp the wall clock and close the monitor line."""
        if self.wall_seconds is None:
            self.wall_seconds = self.elapsed()
        if self.monitor is not None:
            self.monitor.finish()

    # -- freezing ----------------------------------------------------------------------

    def report(
        self, results: Optional[Sequence[TrialResult]] = None
    ) -> RunReport:
        """Freeze the accumulated events into a :class:`RunReport`.

        ``results`` feeds the protocol bridge (failure count, merged
        ledger stats, per-trial bit totals).
        """
        if self.wall_seconds is None:
            self.finish()
        with self._lock:
            records = list(self.records)
            lane_net = {
                lane: dict(counters)
                for lane, counters in self._lane_net.items()
            }
        lanes: Dict[str, LaneReport] = {}
        for lane_id in sorted(
            {r.lane for r in records} | set(lane_net)
        ):
            lane_records = [r for r in records if r.lane == lane_id]
            ok_records = [r for r in lane_records if r.ok]
            net = lane_net.get(lane_id, {})
            lanes[lane_id] = LaneReport(
                lane=lane_id,
                units_ok=len(ok_records),
                units_failed=len(lane_records) - len(ok_records),
                trials=sum(r.trials for r in ok_records),
                unit_seconds=tuple(
                    r.latency_seconds for r in ok_records
                ),
                compute_seconds=tuple(
                    r.compute_seconds
                    for r in ok_records
                    if r.compute_seconds is not None
                ),
                round_trip_seconds=tuple(net.get("round_trips", ())),
                predicted_costs=tuple(
                    r.predicted_cost
                    for r in ok_records
                    if r.predicted_cost is not None
                ),
                bytes_out=int(net.get("bytes_out", 0)),
                bytes_in=int(net.get("bytes_in", 0)),
                frames=int(net.get("frames", 0)),
                inflight_peak=int(net.get("inflight_peak", 0)),
                dials=int(net.get("dials", 0)),
                redials=int(net.get("redials", 0)),
                dead_events=int(net.get("dead_events", 0)),
            )
        ok_records = [r for r in records if r.ok]
        trials = (
            len(results)
            if results is not None
            else sum(r.trials for r in ok_records)
        )
        failures = (
            sum(1 for t in results if not t.ok) if results is not None else 0
        )
        ledger = LedgerStats()
        trial_bits: Tuple[int, ...] = ()
        if results is not None:
            for t in results:
                ledger = ledger.merge(t.ledger)
            trial_bits = tuple(t.ledger.total_bits for t in results)
        return RunReport(
            backend=self.backend,
            trials=trials,
            failures=failures,
            wall_seconds=self.wall_seconds or 0.0,
            unit_attempts=len(records),
            retries=sum(1 for r in records if not r.ok),
            rebalances=sum(1 for r in ok_records if r.attempt > 1),
            unit_seconds=tuple(r.latency_seconds for r in ok_records),
            lanes=tuple(lanes[lane_id] for lane_id in sorted(lanes)),
            ledger=ledger,
            trial_bits=trial_bits,
        )
