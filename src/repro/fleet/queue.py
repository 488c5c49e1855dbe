"""The persistent job queue: sweeps as durable, resumable on-disk state.

A *job* is one :class:`~repro.engine.spec.ExperimentSpec` waiting to be
(or being) executed by the fleet.  Jobs live as JSON documents on disk
— the spec rides inside the job envelope as its existing wire document
(:func:`~repro.engine.spec.spec_to_wire`), so a queued job survives
process restarts, crosses machines on a shared filesystem, and decodes
with the same versioned codecs the distributed backend already speaks.

Layout of a fleet root directory::

    <root>/jobs/<job-id>.json        one job envelope each
    <root>/results/<job-id>/         persisted per-unit results + merge
    <root>/reports/<job-id>.json     the job's telemetry RunReport
    <root>/workers/<worker-id>.json  heartbeat files (registry.py)

State machine, enforced by :meth:`JobQueue.transition`::

    pending ──▶ running ──▶ done
        │           ├─────▶ failed
        └───────────┴─────▶ cancelled

Writes are atomic (temp file + ``os.replace``), so a reader never sees
a torn envelope; a cancellation racing a completion wins (the
coordinator's ``done``/``failed`` transition observes ``cancelled`` and
leaves it).  A job found ``running`` with no live coordinator is not an
error — it is the crash-resume case: the coordinator re-opens it,
loads the persisted units from :class:`UnitStore`, and dispatches only
what is missing.

:class:`UnitStore` persists each completed :class:`WorkUnit`'s results
the moment the coordinator collects them, as one document per unit
(the unit's own wire codec plus one ``result`` envelope per trial).
Because the persisted results decode through exactly the codecs a
remote worker's reply decodes through, a merge of cached and freshly
executed units is bit-identical to one uninterrupted run.
"""

from __future__ import annotations

import math
import os
import time
from dataclasses import dataclass, replace
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..engine.dispatch import WorkUnit, unit_from_wire, unit_to_wire
from ..engine.spec import (
    EngineError,
    ExperimentSpec,
    TrialResult,
    WIRE_VERSION,
    require_wire,
    result_from_wire,
    result_to_wire,
    spec_from_wire,
    spec_to_wire,
    wire_dumps,
    wire_loads,
)


class FleetError(EngineError):
    """Raised on fleet contract violations (bad transitions, torn state)."""


#: Every state a job can be in.
JOB_STATES = ("pending", "running", "done", "failed", "cancelled")

#: Allowed transitions; anything else raises :class:`FleetError`.
_TRANSITIONS = {
    "pending": {"running", "cancelled"},
    "running": {"done", "failed", "cancelled"},
    "done": set(),
    "failed": set(),
    "cancelled": set(),
}

#: Terminal states — a job here never runs again.
TERMINAL_STATES = ("done", "failed", "cancelled")


@dataclass(frozen=True)
class Job:
    """One queued sweep: a spec plus durable scheduling state."""

    job_id: str
    spec: ExperimentSpec
    state: str = "pending"
    #: Trials per unit: given at submit (``--unit-size``) or persisted
    #: by the coordinator before the job's first dispatch, so a resumed
    #: job re-plans identical units.
    unit_size: Optional[int] = None
    error: str = ""
    submitted_at: float = 0.0
    updated_at: float = 0.0

    def __post_init__(self) -> None:
        if self.state not in JOB_STATES:
            raise FleetError(f"unknown job state {self.state!r}")

    @property
    def terminal(self) -> bool:
        return self.state in TERMINAL_STATES

    def describe(self) -> str:
        return f"{self.job_id} [{self.state}] {self.spec.describe()}"


def job_to_wire(job: Job) -> Dict[str, Any]:
    """A :class:`Job` as a version-1 wire document."""
    for value, where in (
        (job.submitted_at, "submitted_at"),
        (job.updated_at, "updated_at"),
    ):
        if not math.isfinite(value):
            raise FleetError(f"non-finite {where} on {job.job_id}")
    return {
        "version": WIRE_VERSION,
        "kind": "job",
        "job_id": job.job_id,
        "spec": spec_to_wire(job.spec),
        "state": job.state,
        "unit_size": job.unit_size,
        "error": job.error,
        "submitted_at": job.submitted_at,
        "updated_at": job.updated_at,
    }


def job_from_wire(doc: Any) -> Job:
    """Decode a job envelope; inverse of :func:`job_to_wire`.

    Older envelopes also carry ``max_live``; it is ignored.
    """
    require_wire(doc, "job")
    try:
        unit_size = doc["unit_size"]
        return Job(
            job_id=str(doc["job_id"]),
            spec=spec_from_wire(doc["spec"]),
            state=str(doc["state"]),
            unit_size=None if unit_size is None else int(unit_size),
            error=str(doc["error"]),
            submitted_at=float(doc["submitted_at"]),
            updated_at=float(doc["updated_at"]),
        )
    except EngineError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise FleetError(f"malformed job document: {exc}") from None


def _write_atomic(path: str, text: str) -> None:
    """Write a small document so readers never observe a torn file."""
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "w") as handle:
        handle.write(text)
    os.replace(tmp, path)


class JobQueue:
    """The durable queue under one fleet root directory.

    One coordinator owns a fleet root at a time (an advisory pid lock
    is taken by :class:`~repro.fleet.coordinator.Coordinator`); any
    number of submitters and monitors may read and write concurrently —
    submission allocates job ids race-free via ``O_EXCL`` file
    creation, and every envelope write is atomic.
    """

    def __init__(self, root: str) -> None:
        self.root = root
        self.jobs_dir = os.path.join(root, "jobs")
        self.results_dir = os.path.join(root, "results")
        self.reports_dir = os.path.join(root, "reports")
        for path in (self.jobs_dir, self.results_dir, self.reports_dir):
            os.makedirs(path, exist_ok=True)

    # -- paths -------------------------------------------------------------------------

    def _job_path(self, job_id: str) -> str:
        return os.path.join(self.jobs_dir, f"{job_id}.json")

    def report_path(self, job_id: str) -> str:
        """Where the job's telemetry RunReport is written."""
        return os.path.join(self.reports_dir, f"{job_id}.json")

    # -- submission --------------------------------------------------------------------

    def submit(
        self,
        spec: ExperimentSpec,
        unit_size: Optional[int] = None,
    ) -> Job:
        """Enqueue one spec; returns the pending :class:`Job`.

        Job ids are dense (``job-000001`` …); the id is claimed by
        exclusive file creation, so concurrent submitters never collide.
        """
        if unit_size is not None and unit_size < 1:
            raise FleetError("unit_size must be >= 1")
        number = self._next_number()
        while True:
            job_id = f"job-{number:06d}"
            path = self._job_path(job_id)
            try:
                fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            except FileExistsError:
                number += 1
                continue
            now = time.time()
            job = Job(
                job_id=job_id,
                spec=spec,
                unit_size=unit_size,
                submitted_at=now,
                updated_at=now,
            )
            with os.fdopen(fd, "w") as handle:
                handle.write(wire_dumps(job_to_wire(job)) + "\n")
            return job

    def _next_number(self) -> int:
        highest = 0
        for name in os.listdir(self.jobs_dir):
            if name.startswith("job-") and name.endswith(".json"):
                try:
                    highest = max(highest, int(name[4:-5]))
                except ValueError:
                    continue
        return highest + 1

    # -- reads -------------------------------------------------------------------------

    def get(self, job_id: str) -> Job:
        """One job's current envelope; unknown ids raise."""
        path = self._job_path(job_id)
        try:
            with open(path) as handle:
                return job_from_wire(wire_loads(handle.read()))
        except FileNotFoundError:
            raise FleetError(f"unknown job {job_id!r}") from None

    def jobs(self) -> List[Job]:
        """Every job in the queue, ordered by job id."""
        out = []
        for name in sorted(os.listdir(self.jobs_dir)):
            if name.endswith(".json"):
                out.append(self.get(name[:-5]))
        return out

    def by_state(self, *states: str) -> List[Job]:
        """Jobs currently in any of ``states``, ordered by job id."""
        for state in states:
            if state not in JOB_STATES:
                raise FleetError(f"unknown job state {state!r}")
        return [job for job in self.jobs() if job.state in states]

    def depth(self) -> Dict[str, int]:
        """Queue depth per state (every state present, possibly 0)."""
        counts = {state: 0 for state in JOB_STATES}
        for job in self.jobs():
            counts[job.state] += 1
        return counts

    # -- transitions -------------------------------------------------------------------

    def transition(self, job_id: str, state: str, error: str = "") -> Job:
        """Atomically move a job to ``state``; invalid moves raise.

        One deliberate exception: completing a job (``done``/``failed``)
        that a concurrent ``cancel`` beat to the envelope is *not* an
        error — cancellation wins and the cancelled job is returned
        unchanged, so the coordinator's happy path and a user's cancel
        can race safely.
        """
        if state not in JOB_STATES:
            raise FleetError(f"unknown job state {state!r}")
        job = self.get(job_id)
        if job.state == "cancelled" and state in ("done", "failed"):
            return job
        if state not in _TRANSITIONS[job.state]:
            raise FleetError(
                f"job {job_id} cannot move {job.state!r} -> {state!r}"
            )
        updated = replace(
            job, state=state, error=error, updated_at=time.time()
        )
        _write_atomic(
            self._job_path(job_id), wire_dumps(job_to_wire(updated)) + "\n"
        )
        return updated

    def cancel(self, job_id: str) -> Job:
        """Cancel a pending or running job (terminal states raise)."""
        return self.transition(job_id, "cancelled")

    def set_unit_size(self, job_id: str, unit_size: int) -> Job:
        """Persist a planner-chosen unit size onto a *pending* job.

        The coordinator's sizing pass calls this before the
        job first dispatches: once the size is in the envelope, a
        coordinator killed mid-job re-derives the identical shard
        geometry on resume, which is what keeps the persisted unit log
        valid.  Only pending jobs may be resized — a running job's
        geometry is pinned by its unit store; anything else raises.
        """
        if unit_size < 1:
            raise FleetError("unit_size must be >= 1")
        job = self.get(job_id)
        if job.state != "pending":
            raise FleetError(
                f"job {job_id} is {job.state!r}; only pending jobs "
                "can be resized"
            )
        updated = replace(job, unit_size=unit_size, updated_at=time.time())
        _write_atomic(
            self._job_path(job_id), wire_dumps(job_to_wire(updated)) + "\n"
        )
        return updated

    # -- merged results ----------------------------------------------------------------

    def results_path(self, job_id: str) -> str:
        return os.path.join(self.results_dir, job_id, "merged.json")

    def save_results(
        self, job_id: str, results: Sequence[TrialResult]
    ) -> None:
        """Persist a job's merged, trial-ordered results."""
        doc = {
            "version": WIRE_VERSION,
            "kind": "job-results",
            "job_id": job_id,
            "results": [result_to_wire(r) for r in results],
        }
        os.makedirs(os.path.dirname(self.results_path(job_id)), exist_ok=True)
        _write_atomic(self.results_path(job_id), wire_dumps(doc) + "\n")

    def load_results(self, job_id: str) -> Optional[List[TrialResult]]:
        """A completed job's merged results (None when not finished)."""
        try:
            with open(self.results_path(job_id)) as handle:
                doc = wire_loads(handle.read())
        except FileNotFoundError:
            return None
        require_wire(doc, "job-results")
        return [result_from_wire(r) for r in doc["results"]]


class UnitStore:
    """Per-unit result persistence — the coordinator's resume log.

    Each completed work unit becomes one on-disk document the moment
    its envelope is collected: the unit itself via its wire codec (so a
    resumed coordinator can verify the plan geometry did not shift
    underneath the job) plus one result envelope per trial.  A restart
    loads what exists, re-dispatches only what is missing, and the
    merged sweep stays bit-identical to an uninterrupted run.
    """

    def __init__(self, root: str, job_id: str) -> None:
        self.dir = os.path.join(root, "results", job_id, "units")
        os.makedirs(self.dir, exist_ok=True)

    def _path(self, unit_index: int) -> str:
        return os.path.join(self.dir, f"unit-{unit_index:06d}.json")

    def save(
        self,
        unit_index: int,
        unit: WorkUnit,
        results: Sequence[TrialResult],
    ) -> None:
        """Persist one completed unit (atomic; replaces any prior write)."""
        doc = {
            "version": WIRE_VERSION,
            "kind": "unit-results",
            "unit_index": unit_index,
            "unit": unit_to_wire(unit),
            "results": [result_to_wire(r) for r in results],
        }
        _write_atomic(self._path(unit_index), wire_dumps(doc) + "\n")

    def load(
        self, unit_index: int, expected: WorkUnit
    ) -> Optional[List[TrialResult]]:
        """A persisted unit's results, or None when it never completed.

        The stored unit must match ``expected`` exactly — a resumed job
        whose spec or geometry changed under it is a real fault, not
        a cache miss, and raises :class:`FleetError`.
        """
        try:
            with open(self._path(unit_index)) as handle:
                doc = wire_loads(handle.read())
        except FileNotFoundError:
            return None
        require_wire(doc, "unit-results")
        stored = unit_from_wire(doc["unit"])
        if stored != expected:
            raise FleetError(
                f"persisted unit {unit_index} does not match the plan "
                f"(stored {stored.indices!r} of "
                f"{stored.spec.describe()}, expected "
                f"{expected.indices!r} of {expected.spec.describe()})"
            )
        results = [result_from_wire(r) for r in doc["results"]]
        if [r.trial_index for r in results] != list(expected.indices):
            raise FleetError(
                f"persisted unit {unit_index} results do not cover its "
                "indices"
            )
        return results

    def completed_indices(self) -> Tuple[int, ...]:
        """Indices of the units already persisted, sorted."""
        out = []
        for name in os.listdir(self.dir):
            if name.startswith("unit-") and name.endswith(".json"):
                try:
                    out.append(int(name[5:-5]))
                except ValueError:
                    continue
        return tuple(sorted(out))
