"""Worker discovery: registration files, heartbeats, eviction.

PR 5's distributed backend took a static ``--hosts`` list on every
invocation; the fleet replaces that with *registration*: each ``repro
worker serve --fleet <root>`` announces itself by writing (and
periodically rewriting) one heartbeat file under ``<root>/workers/``,
carrying its dial address, its capacity weight, and a wall-clock
heartbeat stamp.  The coordinator derives its host list from whichever
registrations are currently *fresh* — a worker whose heartbeat goes
stale is evicted (its file removed) and any unit in flight on it is
rebalanced by the existing ``run_units`` retry path, exactly as if the
host had died mid-sweep.

The registry is the same medium as the queue — atomically-written JSON
files on a shared directory — so it needs no extra server, survives
coordinator restarts, and `repro fleet` can render host health without
talking to anything live.
"""

from __future__ import annotations

import os
import socket as socket_module
import threading
import time
from dataclasses import dataclass, replace
from typing import Any, Dict, List, Optional, Tuple

from ..engine.spec import (
    WIRE_VERSION,
    require_wire,
    wire_dumps,
    wire_loads,
)
from .queue import FleetError, _write_atomic

#: A worker whose heartbeat is older than this (seconds) is dead.
DEFAULT_HEARTBEAT_TIMEOUT = 10.0

#: How often a live worker rewrites its heartbeat file.
DEFAULT_HEARTBEAT_INTERVAL = 2.0


@dataclass(frozen=True)
class WorkerInfo:
    """One registered worker: dial address, capacity, liveness stamp."""

    worker_id: str
    host: str
    port: int
    capacity: int = 1
    started_at: float = 0.0
    heartbeat_at: float = 0.0
    #: Advisory: the worker's own served-unit counter at last heartbeat.
    units_served: int = 0

    def __post_init__(self) -> None:
        if not self.worker_id:
            raise FleetError("worker_id must be non-empty")
        if not 0 < self.port < 65536:
            raise FleetError(
                f"worker {self.worker_id!r}: port {self.port} outside "
                "1..65535"
            )
        if self.capacity < 1:
            raise FleetError(
                f"worker {self.worker_id!r}: capacity {self.capacity} "
                "must be >= 1"
            )

    @property
    def address(self) -> Tuple[str, int, int]:
        """The ``(host, port, weight)`` triple the dispatch plane dials."""
        return (self.host, self.port, self.capacity)

    def age(self, now: Optional[float] = None) -> float:
        """Seconds since the last heartbeat, on the observer's clock.

        Clamped at zero: a heartbeat stamped *ahead* of the observer's
        clock (cross-host skew, an NTP step on either side) reads as
        freshly alive instead of as a negative age.  Callers comparing
        several workers must pass one shared ``now`` — as
        :meth:`FleetRegistry.alive`, :meth:`FleetRegistry.evict_dead`
        and the fleet monitor's snapshot do — so a roster pass ranks
        every stamp against a single observer reading rather than a
        drifting per-worker ``time.time()``.
        """
        reference = time.time() if now is None else now
        return max(0.0, reference - self.heartbeat_at)


def worker_to_wire(info: WorkerInfo) -> Dict[str, Any]:
    """A :class:`WorkerInfo` as a version-1 wire document."""
    return {
        "version": WIRE_VERSION,
        "kind": "worker",
        "worker_id": info.worker_id,
        "host": info.host,
        "port": info.port,
        "capacity": info.capacity,
        "started_at": info.started_at,
        "heartbeat_at": info.heartbeat_at,
        "units_served": info.units_served,
    }


def worker_from_wire(doc: Any) -> WorkerInfo:
    """Decode a worker registration; inverse of :func:`worker_to_wire`."""
    require_wire(doc, "worker")
    try:
        return WorkerInfo(
            worker_id=str(doc["worker_id"]),
            host=str(doc["host"]),
            port=int(doc["port"]),
            capacity=int(doc["capacity"]),
            started_at=float(doc["started_at"]),
            heartbeat_at=float(doc["heartbeat_at"]),
            units_served=int(doc["units_served"]),
        )
    except FleetError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise FleetError(f"malformed worker document: {exc}") from None


def default_worker_id(host: str, port: int) -> str:
    """A stable, filename-safe worker id for one listening address."""
    node = socket_module.gethostname().split(".")[0] or "worker"
    return f"{node}-{host.replace(':', '_')}-{port}"


class FleetRegistry:
    """The worker roster under ``<root>/workers/``.

    Readers (coordinator, monitor) and writers (workers) share nothing
    but the directory; every registration write is atomic, so a reader
    racing a heartbeat sees either the old stamp or the new one.
    """

    def __init__(
        self,
        root: str,
        heartbeat_timeout: float = DEFAULT_HEARTBEAT_TIMEOUT,
    ) -> None:
        if heartbeat_timeout <= 0:
            raise FleetError("heartbeat_timeout must be > 0")
        self.root = root
        self.heartbeat_timeout = heartbeat_timeout
        self.workers_dir = os.path.join(root, "workers")
        os.makedirs(self.workers_dir, exist_ok=True)

    def _path(self, worker_id: str) -> str:
        if "/" in worker_id or worker_id in (".", ".."):
            raise FleetError(f"unsafe worker id {worker_id!r}")
        return os.path.join(self.workers_dir, f"{worker_id}.json")

    # -- worker side -------------------------------------------------------------------

    def register(
        self,
        host: str,
        port: int,
        capacity: int = 1,
        worker_id: Optional[str] = None,
    ) -> WorkerInfo:
        """Announce one worker; returns the registration just written."""
        now = time.time()
        info = WorkerInfo(
            worker_id=worker_id or default_worker_id(host, port),
            host=host,
            port=port,
            capacity=capacity,
            started_at=now,
            heartbeat_at=now,
        )
        self._write(info)
        return info

    def heartbeat(
        self, info: WorkerInfo, units_served: Optional[int] = None
    ) -> WorkerInfo:
        """Refresh one worker's liveness stamp."""
        updated = replace(
            info,
            heartbeat_at=time.time(),
            units_served=(
                info.units_served if units_served is None else units_served
            ),
        )
        self._write(updated)
        return updated

    def deregister(self, worker_id: str) -> None:
        """Withdraw a worker (idempotent — eviction may have won)."""
        try:
            os.remove(self._path(worker_id))
        except FileNotFoundError:
            pass

    def _write(self, info: WorkerInfo) -> None:
        _write_atomic(
            self._path(info.worker_id),
            wire_dumps(worker_to_wire(info)) + "\n",
        )

    # -- reader side -------------------------------------------------------------------

    def workers(self) -> List[WorkerInfo]:
        """Every registration on disk, fresh or stale, ordered by id."""
        out = []
        for name in sorted(os.listdir(self.workers_dir)):
            if not name.endswith(".json"):
                continue
            path = os.path.join(self.workers_dir, name)
            try:
                with open(path) as handle:
                    out.append(worker_from_wire(wire_loads(handle.read())))
            except FileNotFoundError:
                continue  # evicted between listdir and open
        return out

    def alive(self, now: Optional[float] = None) -> List[WorkerInfo]:
        """Workers whose heartbeat is within the timeout."""
        now = time.time() if now is None else now
        return [
            w for w in self.workers() if w.age(now) <= self.heartbeat_timeout
        ]

    def evict_dead(self, now: Optional[float] = None) -> List[WorkerInfo]:
        """Remove stale registrations; returns what was evicted.

        Eviction only touches the roster — a unit in flight on an
        evicted host keeps running client-side until its lane fails,
        at which point the collect loop rebalances it (the lane is
        excluded from the retry) through the unchanged ``run_units``
        path.
        """
        now = time.time() if now is None else now
        evicted = []
        for worker in self.workers():
            if worker.age(now) > self.heartbeat_timeout:
                self.deregister(worker.worker_id)
                evicted.append(worker)
        return evicted

    def addresses(self) -> List[Tuple[str, int, int]]:
        """Dial triples of the currently-alive workers.

        What the coordinator feeds the capacity-weighted dispatch plane
        in place of a static host list.
        """
        return [w.address for w in self.alive()]


class HeartbeatThread:
    """The worker-process side of liveness: a periodic heartbeat writer.

    ``repro worker serve --fleet <root>`` starts one next to its
    :class:`~repro.engine.distributed.WorkerServer`; the thread
    registers on start, rewrites the heartbeat file every ``interval``
    seconds (carrying the server's served-unit counter), and
    deregisters on :meth:`stop` — so a cleanly drained worker leaves
    the roster immediately instead of waiting out the timeout.
    """

    def __init__(
        self,
        registry: FleetRegistry,
        host: str,
        port: int,
        capacity: int = 1,
        worker_id: Optional[str] = None,
        interval: float = DEFAULT_HEARTBEAT_INTERVAL,
        units_served: Any = None,
    ) -> None:
        if interval <= 0:
            raise FleetError("heartbeat interval must be > 0")
        self.registry = registry
        self.interval = interval
        #: Zero-argument callable polled for the served-unit counter.
        self.units_served = units_served
        self.info = registry.register(
            host, port, capacity=capacity, worker_id=worker_id
        )
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    def start(self) -> "HeartbeatThread":
        if self._thread is None:
            self._thread = threading.Thread(
                target=self._run,
                name=f"repro-heartbeat-{self.info.worker_id}",
                daemon=True,
            )
            self._thread.start()
        return self

    def _run(self) -> None:
        while not self._stop.wait(self.interval):
            count = self.units_served() if self.units_served else 0
            self.info = self.registry.heartbeat(
                self.info, units_served=count
            )

    def stop(self) -> None:
        """Stop heartbeating and withdraw the registration (idempotent)."""
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None
        self.registry.deregister(self.info.worker_id)

    def __enter__(self) -> "HeartbeatThread":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()
