"""Execution backends: one Engine API, pluggable trial execution.

A backend's only job is to map an :class:`ExperimentSpec` to its list of
:class:`TrialResult`, ordered by trial index.  Because trial seeds are
derived from the spec alone (never from scheduling), every backend must
return *bit-identical* results for the same spec — the engine's central
correctness property, enforced by ``tests/test_engine.py``.

* :class:`SerialBackend` — trials run in-process, one after another
  (the seed repo's original behaviour).
* :class:`ShardedBackend` — trials cut into work units and run over a
  :class:`~repro.engine.dispatch.Transport`.  Two configurations:
  :class:`ProcessPoolBackend` (a ``multiprocessing`` pool; in-process
  with one worker) and
  :class:`~repro.engine.distributed.DistributedBackend` (``repro worker
  serve`` hosts over TCP).
* :class:`BatchBackend` (see :mod:`repro.engine.batch`) — many
  independent protocol instances, sync or async, multiplexed over one
  breadth-first step loop.

Every backend is a context manager (``with backend: ...``) and
``close()`` is idempotent, so held pools/sockets release deterministically
on error paths as well as clean exits.
"""

from __future__ import annotations

import abc
import functools
import os
from typing import Callable, List, Optional, Sequence, Tuple

from .costplan import plan_grid, plan_specs
from .dispatch import (
    DispatchPlan,
    InlineTransport,
    PoolTransport,
    Transport,
    make_context,
    run_one_trial,
    run_units,
)
from .registry import get_runner
from .spec import EngineError, ExperimentSpec, TrialResult
from .telemetry import RunTelemetry, SweepMonitor

__all__ = [
    "ExecutionBackend",
    "SerialBackend",
    "ShardedBackend",
    "ProcessPoolBackend",
    "default_worker_count",
    "make_context",
    "run_one_trial",
]


class ExecutionBackend(abc.ABC):
    """Interface every backend implements.

    Backends are context managers: ``with get_backend(...) as backend``
    guarantees :meth:`close` runs on every exit path.  ``close`` is
    idempotent and leaves the backend *reusable* — a later
    ``run_trials`` may lazily re-acquire whatever was released.
    """

    #: Human-readable backend identifier (CLI / reports).
    name: str = "abstract"

    #: Telemetry of the most recent :meth:`run_trials` call (set at run
    #: entry; ``None`` before the first run).  ``Engine.run`` freezes it
    #: into the :class:`~repro.engine.telemetry.RunReport` it attaches
    #: to the :class:`~repro.engine.aggregate.ExperimentResult`.
    telemetry: Optional[RunTelemetry] = None

    #: Opt-in live progress sink (a
    #: :class:`~repro.engine.telemetry.SweepMonitor`) consulted by the
    #: next run's telemetry.
    monitor: Optional[SweepMonitor] = None

    @abc.abstractmethod
    def run_trials(self, spec: ExperimentSpec) -> List[TrialResult]:
        """All trial results of ``spec``, ordered by trial index."""

    def run_grid(
        self, specs: Sequence[ExperimentSpec]
    ) -> List[List[TrialResult]]:
        """Run several specs; one result list per spec, in order.

        The base implementation runs the specs back to back.
        :class:`ShardedBackend` overrides this with a *fused* sweep:
        every spec's units share one transport and one collect loop,
        sized by predicted per-trial cost when every spec has a cost
        model (:mod:`repro.engine.costplan`), so mixed-size grids
        balance predicted work across lanes instead of trial counts.
        Results are bit-identical either way; only wall-clock moves.
        """
        return [self.run_trials(spec) for spec in specs]

    def _begin_telemetry(self, total_trials: int) -> RunTelemetry:
        """Start (and attach) this run's telemetry accumulator."""
        self.telemetry = RunTelemetry(
            backend=self.name,
            total_trials=total_trials,
            monitor=self.monitor,
        )
        return self.telemetry

    def close(self) -> None:
        """Release any held workers/connections (idempotent; no-op here)."""

    def __enter__(self) -> "ExecutionBackend":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


class SerialBackend(ExecutionBackend):
    """In-process, one-trial-at-a-time execution."""

    name = "serial"

    def run_trials(self, spec: ExperimentSpec) -> List[TrialResult]:
        telemetry = self._begin_telemetry(spec.trials)
        results = []
        for i in range(spec.trials):
            with telemetry.span(self.name, 1):
                results.append(run_one_trial(spec, i))
        telemetry.finish()
        return results


def default_worker_count() -> int:
    """Worker count when unspecified: every core, capped at 8."""
    return max(1, min(8, os.cpu_count() or 1))


class ShardedBackend(ExecutionBackend):
    """Trials cut into work units, dispatched over one transport.

    The one implementation of :meth:`plan` / :meth:`run_trials` /
    :meth:`run_grid` for sharded execution; the process and distributed
    backends are configurations of it.  Every trial of every unit runs
    through :func:`~repro.engine.dispatch.run_one_trial`, the serial
    path.

    Parameters:
        transport_factory: builds the :class:`Transport` the units run
            on.  Opened lazily by the first run and kept across runs;
            dropped after an aborted run or when a run lost a lane (so
            the next run starts on fresh lanes); released by
            :meth:`close`.
        capacity: units the transport runs at once — the effective
            worker count unit sizing scales with.
        unit_size: trials per unit (``None``: decided by
            :func:`~repro.engine.costplan.plan_specs` from predicted
            cost, else uniformly).
    """

    name = "sharded"

    def __init__(
        self,
        transport_factory: Callable[[], Transport],
        capacity: int,
        unit_size: Optional[int] = None,
    ) -> None:
        if capacity < 1:
            raise EngineError("need at least one worker")
        if unit_size is not None and unit_size < 1:
            raise EngineError("unit_size must be >= 1")
        self.transport_factory = transport_factory
        self.capacity = capacity
        self.unit_size = unit_size
        self._transport: Optional[Transport] = None
        self._lanes: Tuple[str, ...] = ()

    def plan(self, spec: ExperimentSpec) -> DispatchPlan:
        """The unit geometry of ``spec`` run on its own."""
        (plan,) = plan_specs([spec], self.capacity, self.unit_size)
        return plan

    def run_trials(self, spec: ExperimentSpec) -> List[TrialResult]:
        return self.run_grid([spec])[0]

    def run_grid(
        self, specs: Sequence[ExperimentSpec]
    ) -> List[List[TrialResult]]:
        """A fused sweep: every spec's units over one collect loop.

        Unit sizes follow :func:`~repro.engine.costplan.plan_specs`;
        duplicate specs run once and share their results.
        """
        if not specs:
            return []
        # Resolve locally first: unknown names fail fast, before any
        # lane is paid for.
        for spec in specs:
            get_runner(spec.runner)
        unique = list(dict.fromkeys(specs))
        telemetry = self._begin_telemetry(sum(s.trials for s in unique))
        units = plan_grid(unique, self.capacity, self.unit_size)
        try:
            results = run_units(
                units, self._open_transport(telemetry), telemetry=telemetry
            )
        except BaseException:
            # An aborted sweep may leave units in flight whose envelopes
            # a later run would misattribute: drop the transport.
            self.close()
            raise
        telemetry.finish()
        # run_units groups results by spec, in first-appearance order.
        by_spec, start = {}, 0
        for spec in dict.fromkeys(unit.spec for unit in units):
            by_spec[spec] = results[start : start + spec.trials]
            start += spec.trials
        return [by_spec[spec] for spec in specs]

    def _open_transport(self, telemetry: RunTelemetry) -> Transport:
        transport = self._transport
        if transport is not None and len(transport.lanes()) < len(
            self._lanes
        ):
            # A previous run lost lanes, and a dead lane is permanent
            # within one transport: reopen rather than run degraded on
            # workers that may since have restarted.
            self.close()
            for lane in self._lanes:
                telemetry.note_lane_event(lane, "redial")
        if self._transport is None:
            self._transport = self.transport_factory()
            self._lanes = self._transport.lanes()
        self._transport.telemetry = telemetry
        return self._transport

    def close(self) -> None:
        if self._transport is not None:
            self._transport.close()
            self._transport = None


class ProcessPoolBackend(ShardedBackend):
    """Shard trials across ``multiprocessing`` workers.

    A :class:`ShardedBackend` over a :class:`PoolTransport` of
    ``workers`` processes (default: every core, capped at 8), or over
    an :class:`InlineTransport` when ``workers`` is 1 — one lane gains
    nothing from fork and pickle.  ``start_method`` selects the
    ``multiprocessing`` start method (``None`` = platform default);
    workers resolve the scenario by name from the registry, so
    ``spawn`` works identically to ``fork``.
    """

    name = "process"

    def __init__(
        self,
        workers: Optional[int] = None,
        unit_size: Optional[int] = None,
        start_method: Optional[str] = None,
    ) -> None:
        workers = workers if workers else default_worker_count()
        factory: Callable[[], Transport] = (
            InlineTransport
            if workers == 1
            else functools.partial(PoolTransport, workers, start_method)
        )
        super().__init__(factory, workers, unit_size)
