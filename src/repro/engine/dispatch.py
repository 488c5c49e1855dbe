"""The transport-agnostic dispatch plane: plan, submit, collect, retry.

Every sharded backend (:class:`~repro.engine.backends.ShardedBackend`
and its process and distributed configurations) and the fleet
coordinator run the same three pieces:

* :class:`DispatchPlan` — the *geometry*: ``trials`` cut into
  contiguous :class:`WorkUnit` slices, each trial of which runs through
  :func:`run_one_trial`.  Unit sizes are decided in one function,
  :func:`~repro.engine.costplan.plan_specs`.
* :class:`Transport` — the *mechanism*: submit a work unit to a lane
  (pool worker, TCP host, in-process loop), collect one result
  :class:`Envelope` at a time, and report lane death.  Implementations:
  :class:`InlineTransport` (in-process; the one-worker pool),
  :class:`PoolTransport` (``multiprocessing``), and
  :class:`~repro.engine.distributed.SocketTransport` (remote hosts).
* :func:`run_units` — the *collect loop*: keeps every live lane fed,
  retries a failed unit on another lane with the failing lane
  excluded, refuses to lose or duplicate trials, and merges envelopes
  back in canonical trial order, per spec.

Determinism is unaffected by any of it: trial seeds derive from the
spec alone, and :func:`run_unit` — the single spawn-safe worker entry
shared by every transport — rebuilds the scenario *by name* from the
registry inside the worker, so a pool worker, a ``spawn`` child and a
remote host all execute literally the same construction.  Which
transport ran which unit, and how often a unit was retried, is
unobservable in the results.

Failure model, in two layers:

* **trial crashes** (a protocol bug raising inside a trial) are
  contained where they happen — :func:`run_one_trial` and the batch
  backend convert them into the same failed :class:`TrialResult` row
  (:func:`crashed_trial`), so every backend reports them identically
  to the serial path;
* **lane failures** (a worker process or host dying, a connection
  dropping, an unpicklable payload) surface as failure envelopes: the
  unit is retried on a different lane with the observed lane excluded,
  and only when every live lane has failed the unit (or the attempt
  cap is hit) does the sweep raise :class:`DispatchError` — results
  are never silently partial.
"""

from __future__ import annotations

import abc
import multiprocessing
import multiprocessing.pool
import queue
import time
from collections import deque
from dataclasses import dataclass, field
from typing import (
    Any,
    Deque,
    Dict,
    FrozenSet,
    List,
    Optional,
    Sequence,
    Tuple,
)

from .registry import resolve_cached
from .spec import (
    EngineError,
    ExperimentSpec,
    TrialContext,
    TrialResult,
    UnitStats,
    WIRE_VERSION,
    require_wire,
    spec_from_wire,
    spec_to_wire,
)


class DispatchError(EngineError):
    """Raised when the dispatch plane cannot complete a sweep."""


# -- the worker side: contexts, single trials, and the unified entry ------------------


def make_context(spec: ExperimentSpec, trial_index: int) -> TrialContext:
    """The deterministic context of one trial of a spec."""
    if not 0 <= trial_index < spec.trials:
        raise EngineError(
            f"trial index {trial_index} outside 0..{spec.trials - 1}"
        )
    return TrialContext(
        spec=spec,
        trial_index=trial_index,
        seed=spec.trial_seed(trial_index),
    )


def crashed_trial(
    spec: ExperimentSpec, trial_index: int, exc: Exception
) -> TrialResult:
    """The failed row a trial that raised ``exc`` becomes.

    Protocol bugs must not kill the sweep: every backend converts a
    crash — in a builder, a step, or a collector — into this row.
    """
    return TrialResult(
        trial_index=trial_index,
        seed=spec.trial_seed(trial_index),
        metrics=(),
        ok=False,
        failure=f"{type(exc).__name__}: {exc}",
    )


def run_one_trial(spec: ExperimentSpec, trial_index: int) -> TrialResult:
    """Execute a single trial, converting crashes into failed results.

    Scenario resolution is memoised per process
    (:func:`~repro.engine.registry.resolve_cached`): a worker executing
    many units of one spec resolves the name once.
    """
    ctx = make_context(spec, trial_index)
    runner = resolve_cached(spec.runner)
    try:
        return runner.run_trial(ctx)
    except Exception as exc:
        return crashed_trial(spec, trial_index, exc)


@dataclass(frozen=True)
class WorkUnit:
    """One dispatchable slice of a sweep: a spec plus trial indices.

    Plain picklable *and* wireable data — the same value crosses a
    ``multiprocessing`` boundary as a pickle and a host boundary as the
    JSON document of :func:`unit_to_wire`.  Each index runs through
    :func:`run_one_trial`.
    """

    spec: ExperimentSpec
    indices: Tuple[int, ...]
    #: Predicted cost of this unit (cost-model units), stamped by
    #: cost-sized plans.  Advisory only: excluded from equality so a
    #: persisted unit from a fleet resume log still matches a freshly
    #: planned one, and absent on old wire documents.
    predicted_cost: Optional[float] = field(default=None, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "indices", tuple(self.indices))


def run_unit(unit: WorkUnit) -> List[TrialResult]:
    """The one spawn-safe worker entry every transport executes.

    The unit's spec crosses the boundary as plain data and the
    scenario is rebuilt *by name* inside the worker, so the function is
    start-method- and host-agnostic: ``fork`` pools, ``spawn`` children
    and ``repro worker serve`` processes all run it identically.
    """
    return [run_one_trial(unit.spec, i) for i in unit.indices]


def run_unit_timed(unit: WorkUnit) -> Tuple[List[TrialResult], UnitStats]:
    """:func:`run_unit` plus worker-side timing.

    What every *instrumented* lane executes — pool workers, the inline
    transport, and ``repro worker serve`` hosts — so the client can
    split a unit's observed latency into compute versus queue/network.
    Results are exactly :func:`run_unit`'s; the stats (total and
    per-trial compute time) ride alongside and never touch them.
    """
    start = time.perf_counter()
    results = []
    trial_seconds = []
    for i in unit.indices:
        trial_start = time.perf_counter()
        results.append(run_one_trial(unit.spec, i))
        trial_seconds.append(time.perf_counter() - trial_start)
    return results, UnitStats(
        compute_seconds=time.perf_counter() - start,
        trial_seconds=tuple(trial_seconds),
    )


def unit_to_wire(unit: WorkUnit) -> Dict[str, Any]:
    """A :class:`WorkUnit` as a version-1 wire document."""
    return {
        "version": WIRE_VERSION,
        "kind": "unit",
        "spec": spec_to_wire(unit.spec),
        "indices": list(unit.indices),
        "predicted_cost": unit.predicted_cost,
    }


def unit_from_wire(doc: Any) -> WorkUnit:
    """Decode a work-unit document; inverse of :func:`unit_to_wire`.

    Documents from before units lost their ``mode`` and ``max_live``
    fields still decode, those keys ignored: every unit runs its trials
    one by one, with the results any mode gave.
    """
    require_wire(doc, "unit")
    try:
        predicted = doc.get("predicted_cost")  # absent on old documents
        return WorkUnit(
            spec=spec_from_wire(doc["spec"]),
            indices=tuple(int(i) for i in doc["indices"]),
            predicted_cost=None if predicted is None else float(predicted),
        )
    except EngineError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise EngineError(f"malformed work-unit document: {exc}") from None


# -- the plan: unit geometry ----------------------------------------------------------


def total_capacity(weights: Sequence[int]) -> int:
    """Sum per-lane capacity weights, validating each.

    A weight is how many units a lane keeps in flight at once (a
    4-core host behind one ``repro worker serve`` is weight 4).  Unit
    sizing treats the fleet's total capacity as its effective worker
    count, so it scales with real capacity rather than with the number
    of addresses.
    """
    total = 0
    for weight in weights:
        if not isinstance(weight, int) or isinstance(weight, bool):
            raise EngineError(
                f"capacity weight must be an integer, got {weight!r}"
            )
        if weight < 1:
            raise EngineError(
                f"capacity weight must be >= 1, got {weight!r}"
            )
        total += weight
    if total < 1:
        raise EngineError("need at least one capacity weight")
    return total


@dataclass(frozen=True)
class DispatchPlan:
    """How one spec's trials shard into work units.

    Contiguous ``unit_size`` slices of ``range(trials)``.  Sizes are
    decided in one place,
    :func:`~repro.engine.costplan.plan_specs`; this type only carries
    the geometry.  Any unit size produces bit-identical results;
    geometry only moves wall-clock.
    """

    trials: int
    unit_size: int
    #: Predicted cost of one trial (cost-model units), stamped onto
    #: each unit as ``predicted_cost``.  Advisory, like that field.
    trial_cost: Optional[float] = field(default=None, compare=False)

    def __post_init__(self) -> None:
        if self.trials < 1:
            raise EngineError("a dispatch plan needs at least one trial")
        if self.unit_size < 1:
            raise EngineError("unit_size must be >= 1")

    def indices(self) -> List[List[int]]:
        """Contiguous trial-index slices covering ``range(trials)`` once."""
        all_indices = list(range(self.trials))
        return [
            all_indices[i : i + self.unit_size]
            for i in range(0, self.trials, self.unit_size)
        ]

    def units(self, spec: ExperimentSpec) -> List[WorkUnit]:
        """The plan's work units for ``spec`` (``spec.trials`` must match)."""
        if spec.trials != self.trials:
            raise EngineError(
                f"plan covers {self.trials} trials but spec has "
                f"{spec.trials}"
            )
        return [
            WorkUnit(
                spec=spec,
                indices=tuple(slice_),
                predicted_cost=(
                    self.trial_cost * len(slice_)
                    if self.trial_cost is not None
                    else None
                ),
            )
            for slice_ in self.indices()
        ]


# -- the transport seam ---------------------------------------------------------------


@dataclass(frozen=True)
class Envelope:
    """One collected outcome: a unit's results, or a lane failure.

    ``stats`` carries the executing side's optional
    :class:`~repro.engine.spec.UnitStats` — advisory timing that the
    telemetry plane folds into per-lane metrics.  Lanes that stamp
    nothing (old workers, custom transports) leave it ``None``.
    """

    unit_id: int
    lane: str
    results: Optional[Tuple[TrialResult, ...]] = None
    error: str = ""
    stats: Optional[UnitStats] = None

    @property
    def ok(self) -> bool:
        return self.results is not None


class Transport(abc.ABC):
    """Submit serialized work units to lanes; collect result envelopes.

    A *lane* is one execution slot with a stable identifier — a pool,
    a TCP worker, an in-process loop.  A lane may hold more than one
    unit at a time (the socket transport pipelines a ``lane_depth``
    window per connection); the collect loop neither knows nor cares —
    it offers units until the transport declines one that excludes no
    lane.  The contract :func:`run_units` relies on:

    * :meth:`try_submit` either accepts a unit onto a live lane with
      window room, not in ``exclude`` (returning ``True``), or
      declines (``False``) — without blocking on the unit's execution;
      it declines only when no live lane outside ``exclude`` has
      window room, so a decline with nothing excluded means every
      live lane is full;
    * every accepted unit eventually yields exactly one
      :class:`Envelope` from :meth:`collect` — success or failure,
      never silence; completion order across units is arbitrary;
    * :meth:`lanes` reports the lanes still considered alive, so the
      collect loop can distinguish "busy, wait" from "hopeless, raise";
      a transport that observes a worker die stops listing its lane;
    * one thread calls :meth:`try_submit`, :meth:`collect` and
      :meth:`close` — the thread running :func:`run_units`.  A
      transport need not be thread-safe; the fleet coordinator, which
      runs jobs on several threads, builds one transport per job.
    """

    name: str = "abstract"

    #: Per-run telemetry sink for lane-level events (dials, bytes,
    #: in-flight windows), set by the backend before each run: the
    #: transport outlives runs, the telemetry does not.
    telemetry: Optional[Any] = None

    @abc.abstractmethod
    def lanes(self) -> Tuple[str, ...]:
        """Identifiers of the lanes currently alive."""

    @abc.abstractmethod
    def try_submit(
        self,
        unit_id: int,
        unit: WorkUnit,
        exclude: FrozenSet[str] = frozenset(),
    ) -> bool:
        """Offer a unit to a live lane outside ``exclude``.

        Returns ``False`` only when no live lane outside ``exclude``
        has window room: :func:`run_units` ends its offer pass at the
        first unit declined with nothing excluded.
        """

    @abc.abstractmethod
    def collect(self) -> Envelope:
        """Block until the next envelope (success or lane failure)."""

    def close(self) -> None:
        """Release transport resources (idempotent)."""

    def __enter__(self) -> "Transport":
        return self

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> None:
        self.close()


class InlineTransport(Transport):
    """Reference transport: executes units synchronously, in-process.

    The one-worker pool (no fork, no pickling), and the degenerate lane
    that makes the collect loop testable (and benchmarkable — see the
    ``dispatch_overhead`` perf-gate suite) without pools or sockets:
    ``try_submit`` runs :func:`run_unit` immediately and queues the
    envelope for the next :meth:`collect`.
    """

    name = "inline"
    _LANE = "inline"

    def __init__(self) -> None:
        self._ready: Deque[Envelope] = deque()

    def lanes(self) -> Tuple[str, ...]:
        return (self._LANE,)

    def try_submit(
        self,
        unit_id: int,
        unit: WorkUnit,
        exclude: FrozenSet[str] = frozenset(),
    ) -> bool:
        if self._LANE in exclude:
            return False
        try:
            results, stats = run_unit_timed(unit)
        except Exception as exc:
            self._ready.append(
                Envelope(
                    unit_id=unit_id,
                    lane=self._LANE,
                    error=f"{type(exc).__name__}: {exc}",
                )
            )
        else:
            self._ready.append(
                Envelope(
                    unit_id=unit_id,
                    lane=self._LANE,
                    results=tuple(results),
                    stats=stats,
                )
            )
        return True

    def collect(self) -> Envelope:
        if not self._ready:
            raise DispatchError("collect() with no submitted unit")
        return self._ready.popleft()


class PoolTransport(Transport):
    """``multiprocessing`` pool as a transport (the process backend).

    Units go to the pool via ``apply_async`` on the shared
    :func:`run_unit` entry; completion callbacks feed a thread-safe
    queue that :meth:`collect` drains.  The pool is one logical lane —
    ``multiprocessing`` gives no control over *which* worker runs a
    task, so excluded-worker rebalancing is meaningless here and a
    unit that fails the pool lane (an unpicklable payload, a scenario
    unknown to a ``spawn`` worker) fails the sweep on its first retry
    pass rather than looping.  Trial-level crash containment is
    unaffected: protocol exceptions never surface as lane failures.
    """

    name = "pool"
    _LANE = "pool"

    def __init__(
        self, workers: int, start_method: Optional[str] = None
    ) -> None:
        if workers < 1:
            raise EngineError("need at least one worker")
        self._pool: Optional[multiprocessing.pool.Pool] = self.create_pool(
            workers, start_method
        )
        self._envelopes: "queue.Queue[Envelope]" = queue.Queue()

    @staticmethod
    def create_pool(
        workers: int, start_method: Optional[str] = None
    ) -> multiprocessing.pool.Pool:
        """A worker pool on an explicit ``multiprocessing`` start method.

        ``None`` uses the platform default (``fork`` on Linux).  Workers
        carry no state beyond their imports: units arrive as plain data
        and scenarios are resolved *by name* in the worker, so ``spawn``
        — which inherits nothing from the parent — produces results
        bit-identical to ``fork`` for every registered scenario.
        (Ad-hoc scenarios registered at runtime in the parent are only
        visible under ``fork``; :mod:`repro.engine.scenarios` is the
        supported extension point.)
        """
        context = multiprocessing.get_context(start_method)
        return context.Pool(processes=workers)

    def lanes(self) -> Tuple[str, ...]:
        return (self._LANE,) if self._pool is not None else ()

    def try_submit(
        self,
        unit_id: int,
        unit: WorkUnit,
        exclude: FrozenSet[str] = frozenset(),
    ) -> bool:
        if self._pool is None:
            raise DispatchError("pool transport is closed")
        if self._LANE in exclude:
            return False

        def on_done(
            outcome: Tuple[List[TrialResult], UnitStats],
            uid: int = unit_id,
        ) -> None:
            results, stats = outcome
            self._envelopes.put(
                Envelope(
                    unit_id=uid,
                    lane=self._LANE,
                    results=tuple(results),
                    stats=stats,
                )
            )

        def on_error(exc: BaseException, uid: int = unit_id) -> None:
            self._envelopes.put(
                Envelope(
                    unit_id=uid,
                    lane=self._LANE,
                    error=f"{type(exc).__name__}: {exc}",
                )
            )

        self._pool.apply_async(
            run_unit_timed,
            (unit,),
            callback=on_done,
            error_callback=on_error,
        )
        return True

    def collect(self) -> Envelope:
        return self._envelopes.get()

    def close(self) -> None:
        if self._pool is not None:
            self._pool.terminate()
            self._pool.join()
            self._pool = None


# -- the collect loop -----------------------------------------------------------------


def run_units(
    units: Sequence[WorkUnit],
    transport: Transport,
    max_attempts: Optional[int] = None,
    telemetry: Optional[Any] = None,
) -> List[TrialResult]:
    """Dispatch units over a transport; merge results in trial order.

    The transport-agnostic core every sharded backend shares:

    * offers queued units in order, one pass per collected envelope,
      and ends a pass at the first unit the transport declines while
      that unit excludes no lane: by the :meth:`Transport.try_submit`
      contract every live lane is then full, and the rest of the queue
      keeps its order for the next pass.  A declined retry (a unit
      with lanes excluded) does not end the pass, since a unit behind
      it may fit a lane it excludes.  So a sweep makes about one
      offer per free slot, not one per queued unit per collect;
    * on a failure envelope, re-queues the unit with the failing lane
      *excluded* so the retry lands elsewhere;
    * raises :class:`DispatchError` when a unit has failed on every
      live lane, exceeded ``max_attempts`` (default: one attempt per
      initially-live lane, plus one), or no live lane remains — a
      sweep's results are complete and bit-identical, or the sweep
      raises; nothing in between;
    * verifies, per spec, that the merged results cover that spec's
      planned trials exactly once.

    Units may belong to several specs (a fused grid): one collect loop
    drives them all, so a lane finishing a cheap spec's unit picks up an
    expensive spec's next.  Results come back grouped by spec, in the
    order each spec first appears in ``units``, and in trial order
    within each spec — for single-spec units, simply trial order.

    ``telemetry`` (a :class:`~repro.engine.telemetry.RunTelemetry`, or
    any object with its submit/result hooks) records one span per unit
    attempt; ``None`` records nothing and costs nothing.
    """
    if not units:
        return []
    cap = max_attempts if max_attempts is not None else len(transport.lanes()) + 1
    if cap < 1:
        raise DispatchError("max_attempts must be >= 1")
    todo: Deque[int] = deque(range(len(units)))
    attempts: Dict[int, int] = {uid: 0 for uid in todo}
    excluded: Dict[int, set] = {uid: set() for uid in todo}
    last_error: Dict[int, str] = {}
    collected: Dict[int, Tuple[TrialResult, ...]] = {}
    inflight = 0
    while len(collected) < len(units):
        unplaced: Deque[int] = deque()
        while todo:
            uid = todo.popleft()
            # Stamp the submit time *before* the offer: the inline
            # transport executes the unit inside try_submit, and its
            # compute must land inside the span.
            if telemetry is not None:
                telemetry.note_submit(
                    uid,
                    len(units[uid].indices),
                    predicted_cost=units[uid].predicted_cost,
                )
            if transport.try_submit(
                uid, units[uid], frozenset(excluded[uid])
            ):
                inflight += 1
            else:
                if telemetry is not None:
                    telemetry.cancel_submit(uid)
                live = set(transport.lanes())
                if not live:
                    raise DispatchError(
                        "every dispatch lane is dead"
                        + (
                            f" (last error: {last_error[uid]})"
                            if uid in last_error
                            else ""
                        )
                    )
                if live <= excluded[uid]:
                    raise DispatchError(
                        f"work unit {uid} failed on every live lane: "
                        f"{last_error.get(uid, 'no error recorded')}"
                    )
                unplaced.append(uid)
                if not excluded[uid]:
                    # Declined with no lane excluded: no live lane has
                    # room, so every unit behind it would be declined.
                    break
        unplaced.extend(todo)
        todo = unplaced
        if inflight == 0:
            # Nothing running, nothing placeable, sweep incomplete:
            # a transport contract violation, not a user error.
            raise DispatchError(
                "dispatch stalled: no lane accepted work and none is busy"
            )
        envelope = transport.collect()
        inflight -= 1
        if telemetry is not None:
            telemetry.note_result(envelope)
        if envelope.ok:
            collected[envelope.unit_id] = envelope.results
            continue
        attempts[envelope.unit_id] += 1
        excluded[envelope.unit_id].add(envelope.lane)
        last_error[envelope.unit_id] = (
            f"lane {envelope.lane!r}: {envelope.error}"
        )
        if attempts[envelope.unit_id] >= cap:
            raise DispatchError(
                f"work unit {envelope.unit_id} failed {cap} time(s); "
                f"giving up ({last_error[envelope.unit_id]})"
            )
        todo.append(envelope.unit_id)
    groups: Dict[ExperimentSpec, Tuple[List[int], List[TrialResult]]] = {}
    for uid, unit in enumerate(units):
        planned, results = groups.setdefault(unit.spec, ([], []))
        planned.extend(unit.indices)
        results.extend(collected[uid])
    merged: List[TrialResult] = []
    for spec, (planned, results) in groups.items():
        results.sort(key=lambda r: r.trial_index)
        got = [r.trial_index for r in results]
        expected = sorted(set(planned))
        if got != expected:
            raise DispatchError(
                f"results for spec {spec.runner!r} (n={spec.n}) do not "
                "cover the planned trials exactly once "
                f"(got {got!r}, expected {expected!r})"
            )
        merged.extend(results)
    return merged
