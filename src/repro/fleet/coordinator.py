"""The fleet coordinator: a crash-resumable, bounded-concurrency runner.

One coordinator owns a fleet root at a time (advisory pid lock).  Its
loop is deliberately simple because every hard invariant already lives
below it:

* the *host list* comes from the worker registry — whichever ``repro
  worker serve --fleet`` processes are currently heartbeating, with
  their announced capacity weights — not from a static ``--hosts``
  flag; stale registrations are evicted before each scheduling pass;
* each job's unit size comes from the sharded backends' own rule
  (:func:`~repro.engine.costplan.plan_specs`, weighted by the fleet's
  capacity) and is persisted into the job envelope before dispatch;
  units execute over the unchanged
  :class:`~repro.engine.distributed.SocketTransport` /
  :func:`~repro.engine.dispatch.run_units` pair, so a worker dying
  mid-job is rebalanced exactly like a dead lane in a one-shot
  distributed sweep;
* every completed work unit is persisted to the job's
  :class:`~repro.fleet.queue.UnitStore` *at collect time*, so a
  coordinator killed mid-sweep loses at most the units in flight.  On
  restart it finds the job still ``running``, loads the persisted
  units, re-dispatches only what is missing, and merges cached and
  fresh results into exactly the list an uninterrupted run produces —
  bit-identical, because trial seeds derive from the spec alone and
  the persisted results round-trip the same wire codecs a live
  worker's reply does.

Jobs run with bounded concurrency (``max_jobs`` sweeps in flight, each
on its own transport); each finished job writes its telemetry
:class:`~repro.engine.telemetry.RunReport` next to its results, which
is what ``repro fleet`` merges for per-lane throughput and usage
alerts.

``crash_after_units`` is the failure-injection hook behind the
crash-resume tests: the coordinator persists that many units fleet-wide
and then dies mid-collect by raising :class:`CoordinatorKilled` — a
``BaseException``, so it sails through the job-level ``except
Exception`` failure handling exactly like ``kill -9`` would, leaving
the job envelope ``running`` and the unit store partially filled.
"""

from __future__ import annotations

import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..engine.costplan import plan_specs
from ..engine.dispatch import WorkUnit, run_units, total_capacity
from ..engine.distributed import DEFAULT_LANE_DEPTH, SocketTransport
from ..engine.registry import runner_names
from ..engine.spec import TrialResult
from ..engine.telemetry import RunTelemetry, write_report
from .queue import FleetError, Job, JobQueue, UnitStore
from .registry import DEFAULT_HEARTBEAT_TIMEOUT, FleetRegistry


class CoordinatorKilled(BaseException):
    """Simulated coordinator death (failure injection; not an Exception).

    Deliberately a ``BaseException``: a real ``kill -9`` does not give
    the job-level failure handler a chance to mark the job ``failed``,
    so the simulation must not either.
    """


class CoordinatorInterrupted(BaseException):
    """Graceful stop (Ctrl-C) requested via :meth:`Coordinator.request_stop`.

    Also a ``BaseException`` — and for the same reason as
    :class:`CoordinatorKilled`: an interrupted job must stay
    ``running`` (not be marked ``failed``) so the next ``repro queue
    run`` resumes it from the persisted unit log bit-identically.
    Unlike a simulated kill it unwinds *cleanly*: every job thread
    raises at its next collect point, the scheduling loop re-raises
    after the in-flight siblings settle, and ``run_once``'s ``finally``
    releases the advisory pid lock on the way out.
    """


class _PersistingTelemetry:
    """The coordinator's ``run_units`` telemetry sink: persist-on-collect.

    Wraps the job's real :class:`RunTelemetry` (events pass straight
    through) and, on every successful envelope, writes the unit's
    results to the job's :class:`UnitStore` *before* the collect loop
    moves on — the instant a unit is collected it is durable, which is
    the whole crash-resume story.  ``on_collect`` runs first and is
    where the kill simulation raises.
    """

    def __init__(
        self,
        inner: Optional[RunTelemetry],
        store: UnitStore,
        units: Sequence[WorkUnit],
        unit_indices: Sequence[int],
        on_collect: Any = None,
    ) -> None:
        self._inner = inner
        self._store = store
        self._units = list(units)
        self._indices = list(unit_indices)
        self._on_collect = on_collect

    def note_submit(
        self,
        unit_id: int,
        trials: int,
        predicted_cost: Optional[float] = None,
    ) -> None:
        if self._inner is not None:
            self._inner.note_submit(
                unit_id, trials, predicted_cost=predicted_cost
            )

    def cancel_submit(self, unit_id: int) -> None:
        if self._inner is not None:
            self._inner.cancel_submit(unit_id)

    def note_result(self, envelope: Any) -> None:
        if envelope.ok and self._on_collect is not None:
            # The kill hook fires *before* this unit persists: a unit
            # budget of N leaves exactly N units durable on disk.
            self._on_collect()
        if self._inner is not None:
            self._inner.note_result(envelope)
        if envelope.ok:
            index = self._indices[envelope.unit_id]
            self._store.save(
                index, self._units[envelope.unit_id], envelope.results
            )


def _capacity(addresses: Sequence[Tuple[str, int, int]]) -> int:
    """The fleet's weighted lane capacity."""
    return total_capacity([weight for *_, weight in addresses])


def _pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True
    return True


class Coordinator:
    """Drain a fleet root's job queue against its registered workers."""

    def __init__(
        self,
        root: str,
        max_jobs: int = 2,
        heartbeat_timeout: float = DEFAULT_HEARTBEAT_TIMEOUT,
        connect_timeout: float = 5.0,
        io_timeout: Optional[float] = None,
        crash_after_units: Optional[int] = None,
        lane_depth: int = DEFAULT_LANE_DEPTH,
    ) -> None:
        if max_jobs < 1:
            raise FleetError("max_jobs must be >= 1")
        if lane_depth < 1:
            raise FleetError("lane_depth must be >= 1")
        self.root = root
        self.queue = JobQueue(root)
        self.registry = FleetRegistry(
            root, heartbeat_timeout=heartbeat_timeout
        )
        self.max_jobs = max_jobs
        self.lane_depth = lane_depth
        self.connect_timeout = connect_timeout
        self.io_timeout = io_timeout
        self.crash_after_units = crash_after_units
        self._collected_units = 0
        self._collect_lock = threading.Lock()
        self._lock_path = os.path.join(root, "coordinator.lock")
        self._stop = threading.Event()

    def request_stop(self) -> None:
        """Ask the coordinator to unwind at the next safe point.

        Signal-handler safe (sets an event, raises nothing here): the
        CLI's SIGINT handler calls this so the *first* Ctrl-C drains
        gracefully — every job thread raises
        :class:`CoordinatorInterrupted` at its next collect point,
        already-persisted units stay durable, interrupted jobs stay
        ``running`` for resume, and the advisory lock is released.
        """
        self._stop.set()

    @property
    def stop_requested(self) -> bool:
        return self._stop.is_set()

    def _check_stop(self) -> None:
        if self._stop.is_set():
            raise CoordinatorInterrupted("stop requested")

    # -- the advisory lock -------------------------------------------------------------

    def _acquire_lock(self) -> None:
        while True:
            try:
                fd = os.open(
                    self._lock_path, os.O_CREAT | os.O_EXCL | os.O_WRONLY
                )
            except FileExistsError:
                try:
                    with open(self._lock_path) as handle:
                        pid = int(handle.read().strip() or "0")
                except (OSError, ValueError):
                    pid = 0
                if pid and pid != os.getpid() and _pid_alive(pid):
                    raise FleetError(
                        f"another coordinator (pid {pid}) holds "
                        f"{self._lock_path}"
                    )
                # Stale (dead pid) or our own earlier simulated-kill
                # run: a crashed coordinator cannot unlock, so the
                # restart must be able to steal.
                try:
                    os.remove(self._lock_path)
                except FileNotFoundError:
                    pass
                continue
            with os.fdopen(fd, "w") as handle:
                handle.write(str(os.getpid()))
            return

    def _release_lock(self) -> None:
        try:
            os.remove(self._lock_path)
        except FileNotFoundError:
            pass

    # -- worker discovery --------------------------------------------------------------

    def wait_for_workers(
        self, min_workers: int = 1, timeout: float = 30.0
    ) -> List[Tuple[str, int, int]]:
        """Block until ``min_workers`` are registered and fresh.

        Returns their dial triples; raises :class:`FleetError` on
        timeout so a misconfigured fleet fails loudly instead of
        queueing forever.
        """
        deadline = time.monotonic() + timeout
        while True:
            self._check_stop()
            self.registry.evict_dead()
            addresses = self.registry.addresses()
            if len(addresses) >= min_workers:
                return addresses
            if time.monotonic() >= deadline:
                raise FleetError(
                    f"no {min_workers} live worker(s) registered under "
                    f"{self.registry.workers_dir} within {timeout:.0f}s"
                )
            self._stop.wait(0.1)

    # -- failure injection -------------------------------------------------------------

    def _note_collect(self) -> None:
        # The graceful-stop collect point: every persisted unit is a
        # safe place to unwind, because the unit about to persist has
        # not yet been written — resume re-dispatches it.
        self._check_stop()
        if self.crash_after_units is None:
            return
        with self._collect_lock:
            self._collected_units += 1
            if self._collected_units > self.crash_after_units:
                raise CoordinatorKilled(
                    f"simulated coordinator death after "
                    f"{self.crash_after_units} persisted unit(s)"
                )

    # -- one job -----------------------------------------------------------------------

    def run_job(
        self, job: Job, addresses: Sequence[Tuple[str, int, int]]
    ) -> Job:
        """Run one job to a terminal state (the resume path included).

        ``pending`` jobs transition to ``running`` first; ``running``
        jobs are *resumed*: persisted units load from the store, only
        the missing ones dispatch, and the merge covers both.  Any
        ``Exception`` marks the job ``failed`` with the error text;
        :class:`CoordinatorKilled` (and real signals) pass through,
        leaving the envelope ``running`` for the next coordinator.
        """
        job = self.queue.get(job.job_id)
        if job.state == "cancelled":
            return job
        if job.state == "pending":
            job = self.queue.transition(job.job_id, "running")
        elif job.state != "running":
            return job
        try:
            results = self._execute(job, addresses)
        except Exception as exc:
            return self.queue.transition(
                job.job_id, "failed", error=f"{type(exc).__name__}: {exc}"
            )
        self.queue.save_results(job.job_id, results)
        return self.queue.transition(job.job_id, "done")

    def size_pending(
        self,
        jobs: Sequence[Job],
        addresses: Sequence[Tuple[str, int, int]],
    ) -> List[Job]:
        """Persist unit sizes onto the pending jobs that have none.

        The sizes come from the sharded backends' rule
        (:func:`~repro.engine.costplan.plan_specs`), applied to every
        unsized pending job at once as one grid over the fleet's
        weighted capacity: cheap sweeps shard into large units and
        expensive ones into small, every unit carrying roughly equal
        predicted work.  They persist into the job envelopes *before*
        any unit dispatches, so a coordinator killed mid-job re-plans
        the identical units on resume.  An explicit ``--unit-size``, a
        resumed (running) job and an unknown scenario are left alone.
        """
        known = set(runner_names())
        unsized = [
            job
            for job in jobs
            if job.state == "pending"
            and job.unit_size is None
            and job.spec.runner in known
        ]
        if not unsized:
            return list(jobs)
        plans = plan_specs(
            [job.spec for job in unsized], _capacity(addresses)
        )
        sized = {
            job.job_id: self.queue.set_unit_size(job.job_id, plan.unit_size)
            for job, plan in zip(unsized, plans)
        }
        return [sized.get(job.job_id, job) for job in jobs]

    def _execute(
        self, job: Job, addresses: Sequence[Tuple[str, int, int]]
    ) -> List[TrialResult]:
        spec = job.spec
        # A job sized before dispatch (every pending job) re-plans the
        # identical units on resume; predicted costs ride along as
        # advisory stamps, excluded from unit equality.
        (plan,) = plan_specs(
            [spec], _capacity(addresses), unit_size=job.unit_size
        )
        units = plan.units(spec)
        store = UnitStore(self.root, job.job_id)
        cached: Dict[int, List[TrialResult]] = {}
        missing: List[int] = []
        for index, unit in enumerate(units):
            loaded = store.load(index, unit)
            if loaded is None:
                missing.append(index)
            else:
                cached[index] = loaded
        telemetry = RunTelemetry(
            backend="fleet", total_trials=spec.trials
        )
        fresh: List[TrialResult] = []
        if missing:
            sink = _PersistingTelemetry(
                telemetry,
                store,
                [units[i] for i in missing],
                missing,
                on_collect=self._note_collect,
            )
            transport = SocketTransport(
                addresses,
                connect_timeout=self.connect_timeout,
                io_timeout=self.io_timeout,
                lane_depth=self.lane_depth,
            )
            transport.telemetry = telemetry
            try:
                fresh = run_units(
                    [units[i] for i in missing], transport, telemetry=sink
                )
            finally:
                transport.close()
        merged = sorted(
            [r for results in cached.values() for r in results]
            + list(fresh),
            key=lambda r: r.trial_index,
        )
        if [r.trial_index for r in merged] != list(range(spec.trials)):
            raise FleetError(
                f"job {job.job_id}: merged results do not cover "
                f"trials 0..{spec.trials - 1} exactly once"
            )
        telemetry.finish()
        write_report(
            telemetry.report(results=merged),
            self.queue.report_path(job.job_id),
        )
        return merged

    # -- the scheduling loop -----------------------------------------------------------

    def runnable_jobs(self) -> List[Job]:
        """What this coordinator should (re)start: pending + orphaned
        running jobs, in submission order."""
        return self.queue.by_state("pending", "running")

    def run_once(
        self, min_workers: int = 1, worker_timeout: float = 30.0
    ) -> List[Job]:
        """Drain everything currently runnable; return the final jobs.

        Takes the coordinator lock for the duration.  Jobs run with at
        most ``max_jobs`` sweeps in flight, each over its own
        transport (a shared transport would collide on unit ids).  A
        :class:`CoordinatorKilled` raised by the kill hook propagates
        after in-flight sibling jobs settle — mirroring how a real
        death takes every job's dispatch down at once.
        """
        self._check_stop()
        self._acquire_lock()
        try:
            jobs = self.runnable_jobs()
            if not jobs:
                return []
            addresses = self.wait_for_workers(
                min_workers=min_workers, timeout=worker_timeout
            )
            jobs = self.size_pending(jobs, addresses)
            finished: List[Job] = []
            with ThreadPoolExecutor(
                max_workers=self.max_jobs,
                thread_name_prefix="repro-fleet-job",
            ) as pool:
                futures = [
                    pool.submit(self.run_job, job, addresses)
                    for job in jobs
                ]
                error: Optional[BaseException] = None
                for future in futures:
                    try:
                        finished.append(future.result())
                    except BaseException as exc:
                        error = exc
                if error is not None:
                    raise error
            return finished
        finally:
            self._release_lock()

    def run_forever(
        self,
        poll_interval: float = 1.0,
        min_workers: int = 1,
        worker_timeout: float = 30.0,
        idle_rounds: Optional[int] = None,
    ) -> None:
        """Poll-and-drain service loop (the ``repro queue run --watch``
        entry point).  ``idle_rounds`` bounds consecutive empty polls
        (``None`` = run until interrupted)."""
        idle = 0
        while True:
            self._check_stop()
            finished = self.run_once(
                min_workers=min_workers, worker_timeout=worker_timeout
            )
            if finished:
                idle = 0
                continue
            idle += 1
            if idle_rounds is not None and idle >= idle_rounds:
                return
            if self._stop.wait(poll_interval):
                raise CoordinatorInterrupted("stop requested")
