"""Multi-host dispatch: TCP workers behind the ExecutionBackend seam.

The distributed backend is deliberately *thin*: everything hard —
unit sizing, submit/collect/retry, canonical-order merge, the
spawn-safe worker entry — already lives in
:class:`~repro.engine.backends.ShardedBackend` and the
transport-agnostic :mod:`~repro.engine.dispatch` plane.  This module
only adds the transport (:class:`SocketTransport`), the worker process
(:class:`WorkerServer`, served by ``repro worker serve``) and the
:class:`DistributedBackend` configuration that joins them.

Protocol — every message is one :mod:`~repro.engine.wire` frame
carrying a versioned JSON document:

* client → worker: a ``unit`` wire document
  (:func:`~repro.engine.dispatch.unit_to_wire` — versioned, carries
  the spec as data plus trial indices) tagged with the client's unit
  ``id``;
* worker → client: a ``results`` document wrapping one
  :func:`~repro.engine.spec.result_to_wire` envelope per trial plus
  the unit's compute ``stats``, or an ``error`` document (version
  mismatch, unknown scenario, malformed unit); either way echoing the
  request's ``id``.

Each lane is **pipelined**: up to ``lane_depth`` units ride the
connection concurrently, and replies match their units by the echoed
id.  Completion is out of order across lanes and feeds the same
retry/rebalance collect loop one envelope at a time.  The client
starts no thread: every lane is a non-blocking socket driven from the
collect loop's thread, which writes request frames as it submits and
waits on all lanes at once with one ``select``.

Workers rebuild scenarios *by name* from their own registry import —
the same contract that makes ``spawn`` pool workers bit-identical to
``fork`` — so a remote host executes literally the construction the
serial backend executes, and ``distributed == process == serial``
holds bit for bit, registry-wide
(``tests/test_distributed.py``, ``tests/test_scenarios.py``).

Failure containment: a worker host that dies mid-sweep surfaces as
one failure envelope per in-flight unit; the collect loop retries
each on another worker with the dead lane excluded, and the sweep
completes — still bit-identical — as long as one worker survives.
Only when every live lane has failed does the sweep raise.

Scope: the wire format authenticates nothing and encrypts nothing —
run workers on trusted networks (loopback, a private cluster fabric),
exactly like a ``multiprocessing`` listener.
"""

from __future__ import annotations

import functools
import select
import socket
import socketserver
import threading
import time
from collections import deque
from typing import (
    Any,
    Deque,
    Dict,
    FrozenSet,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from .backends import ShardedBackend
from .dispatch import (
    DispatchError,
    Envelope,
    Transport,
    WorkUnit,
    run_unit_timed,
    total_capacity,
    unit_from_wire,
    unit_to_wire,
)
from .spec import (
    EngineError,
    WIRE_VERSION,
    WireFormatError,
    require_wire,
    result_from_wire,
    result_to_wire,
    stats_from_wire,
    stats_to_wire,
)
from .wire import (
    DEFAULT_MAX_FRAME_BYTES,
    FrameReader,
    check_frame_cap,
    decode_document,
    encode_frame,
)

#: Default TCP port of ``repro worker serve``.
DEFAULT_PORT = 7045

#: Default in-flight window per transport lane (``--lane-depth``).
#: Depth 1 reproduces the old one-exchange-at-a-time behaviour; depth
#: 2 already overlaps a unit's compute with the next unit's transfer.
DEFAULT_LANE_DEPTH = 2

HostSpec = Union[str, Tuple[str, int], Tuple[str, int, int]]


def _host_error(entry: Any, why: str) -> EngineError:
    """A parse error that always names the offending entry."""
    return EngineError(f"bad worker host {entry!r}: {why}")


def parse_hosts(hosts: Sequence[HostSpec]) -> List[Tuple[str, int, int]]:
    """Normalise host specs into ``(host, port, weight)`` triples.

    Accepted forms — strings ``host``, ``host:port`` and
    ``host:port:weight``, and tuples ``(host, port)`` /
    ``(host, port, weight)``.  A bare ``host`` gets
    :data:`DEFAULT_PORT`; the capacity ``weight`` (units the host keeps
    in flight at once — see :func:`~repro.engine.dispatch.total_capacity`)
    defaults to 1.  Malformed specs raise an :class:`EngineError`
    naming the offending entry.  (IPv6 literals need the tuple form —
    the string form splits on colons.)
    """
    parsed: List[Tuple[str, int, int]] = []
    for entry in hosts:
        if isinstance(entry, tuple):
            if len(entry) == 2:
                host, port = entry
                weight: Any = 1
            elif len(entry) == 3:
                host, port, weight = entry
            else:
                raise _host_error(
                    entry, "expected (host, port) or (host, port, weight)"
                )
            try:
                port = int(port)
                weight = int(weight)
            except (TypeError, ValueError):
                raise _host_error(
                    entry, "port and weight must be integers"
                ) from None
        else:
            text = str(entry).strip()
            if not text:
                raise _host_error(entry, "empty worker host entry")
            parts = text.split(":")
            if len(parts) > 3 or any(not p for p in parts):
                raise _host_error(
                    entry, "expected host, host:port or host:port:weight"
                )
            host = parts[0]
            try:
                port = int(parts[1]) if len(parts) > 1 else DEFAULT_PORT
            except ValueError:
                raise _host_error(
                    entry, f"port {parts[1]!r} is not an integer"
                ) from None
            try:
                weight = int(parts[2]) if len(parts) > 2 else 1
            except ValueError:
                raise _host_error(
                    entry, f"weight {parts[2]!r} is not an integer"
                ) from None
        if not 0 < port < 65536:
            raise _host_error(entry, f"port {port} outside 1..65535")
        if weight < 1:
            raise _host_error(entry, f"weight {weight} must be >= 1")
        parsed.append((str(host), port, weight))
    return parsed


# -- the worker process ---------------------------------------------------------------


class _WorkerTCPServer(socketserver.ThreadingTCPServer):
    allow_reuse_address = True
    daemon_threads = True
    #: Set by :class:`WorkerServer` after construction.
    owner: "WorkerServer"


class _WorkerHandler(socketserver.BaseRequestHandler):
    """One client connection: serve framed requests until EOF."""

    def handle(self) -> None:
        server: "WorkerServer" = self.server.owner
        sock = self.request
        # Frames are small relative to TCP segments; without NODELAY the
        # Nagle/delayed-ACK interaction stalls the exchange for tens of
        # milliseconds per round trip on an otherwise idle connection.
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        except OSError:
            pass  # non-TCP test doubles
        reader = FrameReader(sock, max_frame_bytes=server.max_frame_bytes)

        def send(doc: dict, reply_id: Any) -> None:
            if reply_id is not None:
                doc["id"] = reply_id
            sock.sendall(encode_frame(doc))

        def error(message: str, reply_id: Any = None) -> None:
            send(
                {"version": WIRE_VERSION, "kind": "error", "error": message},
                reply_id,
            )

        while True:
            if server.crashed:
                # Simulated (or administratively forced) death: drop the
                # connection without a reply, exactly what a killed
                # worker process looks like from the client side.
                return
            try:
                frame = reader.read_frame()
            except WireFormatError as exc:
                # Broken framing (not a frame, oversized, bad header):
                # the stream cannot be resynchronised — answer and hang
                # up.
                try:
                    error(str(exc))
                except OSError:
                    pass
                return
            except (ConnectionError, OSError):
                return
            if frame is None:
                return
            try:
                doc = decode_document(frame.payload)
            except WireFormatError as exc:
                # Damage inside a cleanly-delimited frame: report it and
                # keep serving, the next frame is independent.
                error(str(exc))
                continue
            fields = doc if isinstance(doc, dict) else {}
            reply_id = fields.get("id")
            if fields.get("kind") != "unit":
                error(
                    f"unsupported request kind {fields.get('kind')!r}",
                    reply_id,
                )
                continue
            if server.note_unit_and_check_crash():
                return
            if not server.begin_unit():
                # Draining: refuse new work with an answer (an error
                # envelope keeps the lane alive client-side just long
                # enough to rebalance the unit elsewhere), then hang up.
                error("worker is draining", reply_id)
                return
            try:
                try:
                    unit = unit_from_wire(doc)
                    results, stats = run_unit_timed(unit)
                    reply = {
                        "version": WIRE_VERSION,
                        "kind": "results",
                        "results": [result_to_wire(r) for r in results],
                        "stats": stats_to_wire(stats),
                    }
                    send(reply, reply_id)
                except Exception as exc:  # report, keep serving
                    error(f"{type(exc).__name__}: {exc}", reply_id)
            finally:
                # The reply (or error) is flushed before the unit is
                # released — close() may tear the socket down the
                # moment the in-flight count reaches zero.
                server.finish_unit()
            if server.draining:
                return


class WorkerServer:
    """A ``repro`` work-unit server: one TCP listener, threaded handlers.

    Usable two ways: the ``repro worker serve`` CLI constructs one and
    calls the blocking :meth:`serve_forever`; tests construct one with
    ``port=0`` (ephemeral) and call :meth:`start` to serve from a
    daemon thread in-process.

    ``max_frame_bytes`` caps any single request frame; an oversized one
    is refused with a clean error.  A cap too small for any frame is
    refused at construction, before the listener binds.

    ``crash_after_units`` is the failure-injection hook behind the
    worker-kill tests: the server answers that many units normally,
    then drops every connection without replying — indistinguishable,
    from the client side, from the worker process being killed
    mid-sweep.

    :meth:`close` performs a **graceful drain**: new unit requests are
    refused, but any unit already executing finishes and its response
    is flushed before the sockets come down — a worker asked to stop
    (SIGTERM on ``repro worker serve``) never cuts an exchange
    mid-envelope.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        crash_after_units: Optional[int] = None,
        drain_timeout: float = 30.0,
        max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES,
    ) -> None:
        self.max_frame_bytes = check_frame_cap(max_frame_bytes)
        self._server = _WorkerTCPServer((host, port), _WorkerHandler)
        self._server.owner = self
        self.host, self.port = self._server.server_address[:2]
        self.crash_after_units = crash_after_units
        self.drain_timeout = drain_timeout
        self.crashed = False
        self.draining = False
        self._units_seen = 0
        self._count_lock = threading.Lock()
        self._inflight = 0
        self._drain_cond = threading.Condition()
        self._thread: Optional[threading.Thread] = None
        self._serving = False
        self._closed = False

    @property
    def address(self) -> str:
        """The ``host:port`` string clients dial."""
        return f"{self.host}:{self.port}"

    @property
    def units_served(self) -> int:
        """How many unit requests this server has received."""
        with self._count_lock:
            return self._units_seen

    def note_unit_and_check_crash(self) -> bool:
        """Count one received unit; True when the crash budget is spent."""
        with self._count_lock:
            self._units_seen += 1
            if (
                self.crash_after_units is not None
                and self._units_seen > self.crash_after_units
            ):
                self.crashed = True
        return self.crashed

    def begin_unit(self) -> bool:
        """Claim one unit execution slot; False once draining started."""
        with self._drain_cond:
            if self.draining:
                return False
            self._inflight += 1
            return True

    def finish_unit(self) -> None:
        """Release a unit slot (its response is already flushed)."""
        with self._drain_cond:
            self._inflight -= 1
            self._drain_cond.notify_all()

    def serve_forever(self) -> None:
        """Serve until :meth:`close` (blocking; the CLI entry point)."""
        self._serving = True
        self._server.serve_forever(poll_interval=0.1)

    def start(self) -> "WorkerServer":
        """Serve from a daemon thread (the in-process/test entry point)."""
        if self._thread is not None:
            return self
        # Flag before spawning: a close() racing the thread's entry into
        # serve_forever must go through shutdown() (which BaseServer
        # handles at any point of that race) rather than closing the
        # socket under the about-to-serve thread.
        self._serving = True
        self._thread = threading.Thread(
            target=self._server.serve_forever,
            kwargs={"poll_interval": 0.1},
            name=f"repro-worker-{self.port}",
            daemon=True,
        )
        self._thread.start()
        return self

    def close(self) -> None:
        """Drain in-flight units, stop serving, release the socket.

        Idempotent.  The drain happens *first*: ``draining`` flips (new
        unit requests are refused from here on) and the call blocks —
        up to ``drain_timeout`` — until every in-flight unit has
        finished and flushed its response.  Only then do the accept
        loop and sockets come down, so a close never cuts an exchange
        mid-envelope (pinned by ``tests/test_distributed.py``).
        """
        if self._closed:
            return
        self._closed = True
        with self._drain_cond:
            self.draining = True
            self._drain_cond.wait_for(
                lambda: self._inflight == 0, timeout=self.drain_timeout
            )
        if self._serving:
            self._server.shutdown()
        self._server.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None

    def __enter__(self) -> "WorkerServer":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


# -- the transport --------------------------------------------------------------------


class _Lane:
    """One worker connection carrying a window of in-flight units.

    ``inflight`` maps unit id → (unit, submit offset); ``unsent`` holds
    request bytes the kernel has not taken yet; ``deadline`` is the
    monotonic time by which a busy lane must next move a byte.
    """

    def __init__(
        self, lane_id: str, host: str, port: int, depth: int
    ) -> None:
        self.id = lane_id
        self.host = host
        self.port = port
        self.depth = depth
        self.sock: Optional[socket.socket] = None
        self.reader: Optional[FrameReader] = None
        self.dead = False
        self.inflight: Dict[int, Tuple[WorkUnit, float]] = {}
        self.unsent = bytearray()
        self.deadline: Optional[float] = None

    def drop_socket(self) -> None:
        sock, self.sock = self.sock, None
        self.reader = None
        self.unsent.clear()
        if sock is not None:
            try:
                sock.close()
            except OSError:
                pass


class SocketTransport(Transport):
    """Dispatch work units to ``repro worker serve`` hosts over TCP.

    Each worker host is one lane with a persistent, non-blocking
    connection and a pipelined in-flight window of ``lane_depth``
    units, all driven from the caller's thread: :meth:`try_submit`
    claims a window slot and writes the unit's request frame (keeping
    whatever the kernel does not take yet), and :meth:`collect` waits
    on every open connection with one ``select`` — flushing unsent
    request bytes, cutting whole replies, expiring deadlines — so a
    unit's network transfer overlaps the previous unit's remote
    compute.  Only a lane's first use blocks, to dial it (bounded by
    ``connect_timeout``).

    Any socket failure — refused dial, dropped connection, EOF
    mid-reply, an oversized reply frame, a reply with no unit id or
    one matching no unit in flight — marks the lane dead and surfaces
    one failure envelope per in-flight unit; the collect loop turns
    each into a retry on a surviving lane (this lane excluded).  So
    does ``io_timeout``: a lane with units in flight that moves no
    byte for that long fails, while an idle lane never times out.  A
    worker that *answers* a unit with an ``error`` document stays alive
    (it is reachable and sane — the unit, not the lane, is the
    problem).

    A host's capacity weight expands into that many lanes (each with
    its own connection and window), so a weight-3 machine holds
    ``3 * lane_depth`` units concurrently and the greedy collect loop
    feeds it a proportionate share of the sweep.
    """

    name = "socket"

    def __init__(
        self,
        hosts: Sequence[HostSpec],
        connect_timeout: float = 5.0,
        io_timeout: Optional[float] = None,
        lane_depth: int = DEFAULT_LANE_DEPTH,
        max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES,
    ) -> None:
        addresses = parse_hosts(hosts)
        if not addresses:
            raise EngineError("socket transport needs at least one host")
        if lane_depth < 1:
            raise EngineError("lane_depth must be >= 1")
        self.connect_timeout = connect_timeout
        self.io_timeout = io_timeout
        self.lane_depth = lane_depth
        self.max_frame_bytes = check_frame_cap(max_frame_bytes)
        self._lanes: List[_Lane] = []
        seen: dict = {}
        for host, port, weight in addresses:
            base = f"{host}:{port}"
            for _ in range(weight):
                count = seen.get(base, 0)
                seen[base] = count + 1
                lane_id = base if count == 0 else f"{base}#{count}"
                self._lanes.append(_Lane(lane_id, host, port, lane_depth))
        #: Envelopes completed but not yet collected, in completion order.
        self._ready: Deque[Envelope] = deque()
        self._closed = False

    def lanes(self) -> Tuple[str, ...]:
        if any(
            lane.sock is not None and not lane.inflight for lane in self._lanes
        ):
            # Nothing reads an idle connection until its next unit: look
            # now, without waiting, so a worker that hung up (restarted
            # between runs) is reported dead before it is offered work.
            self._poll(0.0)
        return tuple(lane.id for lane in self._lanes if not lane.dead)

    def try_submit(
        self,
        unit_id: int,
        unit: WorkUnit,
        exclude: FrozenSet[str] = frozenset(),
    ) -> bool:
        if self._closed:
            raise EngineError("socket transport is closed")
        for lane in self._lanes:
            if (
                lane.dead
                or len(lane.inflight) >= lane.depth
                or lane.id in exclude
            ):
                continue
            doc = unit_to_wire(unit)
            doc["id"] = unit_id  # the worker echoes it on the reply
            frame = encode_frame(doc)
            lane.inflight[unit_id] = (unit, time.perf_counter())
            if self.telemetry is not None:
                self.telemetry.note_inflight(lane.id, len(lane.inflight))
            if lane.sock is None:
                try:
                    self._dial(lane)
                except Exception as exc:
                    self._fail_lane(lane, f"{type(exc).__name__}: {exc}")
                    return True
            if lane.unsent:
                lane.unsent += frame  # behind the bytes still queued
            else:
                self._send(lane, frame)
            if not lane.dead:
                if self.telemetry is not None:
                    self.telemetry.note_send(lane.id, len(frame))
                self._progress(lane)
            return True
        return False

    def collect(self) -> Envelope:
        while not self._ready:
            if not any(lane.inflight for lane in self._lanes):
                # Every accepted unit is in flight on an open lane or
                # already completed: nothing to wait for is a caller bug.
                raise DispatchError("collect() with no unit in flight")
            self._poll(None)
        return self._ready.popleft()

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        for lane in self._lanes:
            lane.dead = True
            lane.inflight.clear()
            lane.drop_socket()
        self._ready.clear()

    # -- one lane's bytes --------------------------------------------------------------

    def _dial(self, lane: _Lane) -> None:
        sock = lane.sock = socket.create_connection(
            (lane.host, lane.port), timeout=self.connect_timeout
        )
        # Request frames must leave immediately: Nagle would hold a
        # small frame until the previous one is ACKed, serialising the
        # very window the pipeline exists to keep full.
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        except OSError:
            pass
        sock.setblocking(False)
        lane.reader = FrameReader(sock, max_frame_bytes=self.max_frame_bytes)
        if self.telemetry is not None:
            self.telemetry.note_lane_event(lane.id, "dial")

    def _send(self, lane: _Lane, data: Any) -> None:
        """Write what the kernel takes now; queue the rest as ``unsent``."""
        try:
            sent = lane.sock.send(data)
        except BlockingIOError:
            sent = 0
        except OSError as exc:
            self._fail_lane(lane, f"{type(exc).__name__}: {exc}")
            return
        if data is lane.unsent:
            del lane.unsent[:sent]
        elif sent < len(data):
            lane.unsent += memoryview(data)[sent:]

    def _progress(self, lane: _Lane) -> None:
        """The lane moved bytes: restart its ``io_timeout`` clock.

        Only a lane with units in flight has a deadline, so an idle
        connection never times out.
        """
        if self.io_timeout is not None:
            lane.deadline = (
                time.monotonic() + self.io_timeout if lane.inflight else None
            )

    def _reply_envelope(self, lane: _Lane, doc: Any) -> Envelope:
        """A reply document as an envelope (validating its shape)."""
        if not isinstance(doc, dict) or doc.get("id") is None:
            # Only a reply to no request lacks an id: the worker refused
            # the stream itself, and the lane cannot continue.
            detail = doc.get("error") if isinstance(doc, dict) else None
            raise WireFormatError(
                "worker reply carries no unit id"
                + (f": {detail}" if detail else "")
            )
        unit_id = int(doc["id"])
        if doc.get("kind") == "error":
            require_wire(doc, "error")
            return Envelope(
                unit_id=unit_id,
                lane=lane.id,
                error=f"worker error: {doc.get('error', 'unknown')}",
            )
        require_wire(doc, "results")
        results = tuple(result_from_wire(r) for r in doc["results"])
        return Envelope(
            unit_id=unit_id,
            lane=lane.id,
            results=results,
            # Tolerant decode: malformed or unknown-version stats -> None.
            stats=stats_from_wire(doc.get("stats")),
        )

    def _receive(self, lane: _Lane) -> None:
        """Complete in-flight units off a readable lane, out of order."""
        try:
            frames = lane.reader.read_frames()
        except Exception as exc:
            self._fail_lane(lane, f"{type(exc).__name__}: {exc}")
            return
        if frames is None:
            # Clean hangup at a frame boundary.  With an empty window (a
            # drained worker between units) the lane just retires;
            # in-flight units become failure envelopes.
            self._fail_lane(lane, "worker closed the connection")
            return
        for frame in frames:
            try:
                envelope = self._reply_envelope(
                    lane, decode_document(frame.payload)
                )
            except Exception as exc:
                self._fail_lane(lane, f"{type(exc).__name__}: {exc}")
                return
            entry = lane.inflight.pop(envelope.unit_id, None)
            if entry is None:
                self._fail_lane(
                    lane,
                    "worker sent an unmatched reply for unit "
                    f"{envelope.unit_id}",
                )
                return
            if self.telemetry is not None:
                self.telemetry.note_receive(
                    lane.id,
                    frame.size,
                    round_trip_seconds=time.perf_counter() - entry[1],
                )
            self._ready.append(envelope)
        damage = lane.reader.error
        if damage is not None:
            # Behind the replies just completed: the stream cannot be
            # resynchronised.
            self._fail_lane(lane, f"{type(damage).__name__}: {damage}")
            return
        self._progress(lane)

    def _poll(self, timeout: Optional[float]) -> None:
        """One ``select`` over every open connection, then serve it.

        Readable lanes deliver replies, writable lanes with unsent
        bytes take more, and busy lanes past their deadline fail.
        ``timeout`` ``None`` waits for the first event or the nearest
        deadline; ``0.0`` only looks.
        """
        open_lanes = [lane for lane in self._lanes if lane.sock is not None]
        deadlines = [
            lane.deadline for lane in open_lanes if lane.deadline is not None
        ]
        if timeout is None and deadlines:
            timeout = max(0.0, min(deadlines) - time.monotonic())
        readable, writable, _ = select.select(
            [lane.sock for lane in open_lanes],
            [lane.sock for lane in open_lanes if lane.unsent],
            [],
            timeout,
        )
        for lane in open_lanes:
            if lane.sock in writable:
                self._send(lane, lane.unsent)
                if not lane.dead:
                    self._progress(lane)
            if lane.sock is not None and lane.sock in readable:
                self._receive(lane)
        if deadlines:
            now = time.monotonic()
            for lane in open_lanes:
                if lane.deadline is not None and lane.deadline <= now:
                    self._fail_lane(lane, "TimeoutError: timed out")

    def _fail_lane(self, lane: _Lane, cause: str) -> None:
        """Kill one lane: every in-flight unit becomes a failure envelope.

        Idempotent: a dead lane stays dead and yields nothing more.
        """
        if lane.dead:
            return
        lane.dead = True
        pending = list(lane.inflight)
        lane.inflight.clear()
        lane.deadline = None
        lane.drop_socket()
        if self.telemetry is not None:
            self.telemetry.note_lane_event(lane.id, "dead")
        for unit_id in pending:
            self._ready.append(
                Envelope(unit_id=unit_id, lane=lane.id, error=cause)
            )


# -- the backend ----------------------------------------------------------------------


class DistributedBackend(ShardedBackend):
    """Dispatch a spec's trials to remote worker hosts.

    A :class:`~repro.engine.backends.ShardedBackend` over a
    :class:`SocketTransport`.  Results are bit-identical to the serial
    backend, because seeds derive from the spec and hosts rebuild
    scenarios by name — the pipeline depth changes overlap, never
    content.  There is no in-process
    shortcut: asking for this backend means *run it on the workers*,
    even for one worker or one trial.

    Parameters:
        hosts: worker addresses — ``host:port[:weight]`` strings or
            ``(host, port[, weight])`` tuples, one ``repro worker
            serve`` each; the capacity weight (default 1) gives the
            host that many concurrent lanes and counts that many times
            in the capacity unit sizing scales with.  (The pipeline
            window does not: depth hides latency within a lane, it
            adds no compute.)
        unit_size: as for every sharded backend.
        connect_timeout: seconds a lane's dial may take.
        io_timeout: seconds a lane with units in flight may go without
            moving a byte before it fails (``None`` waits indefinitely
            for a unit's results); an idle lane never times out.
        lane_depth: in-flight window per lane (``--lane-depth``;
            default :data:`DEFAULT_LANE_DEPTH`; 1 = serial exchanges).
        max_frame_bytes: reply frames above this fail the lane cleanly;
            a cap too small for any frame is refused here, at
            construction.

    The TCP connections persist across runs; a run that lost a lane
    re-dials every host on the next run, so a worker that restarted
    between sweeps rejoins instead of staying excluded forever.
    """

    name = "distributed"

    def __init__(
        self,
        hosts: Sequence[HostSpec],
        unit_size: Optional[int] = None,
        connect_timeout: float = 5.0,
        io_timeout: Optional[float] = None,
        lane_depth: int = DEFAULT_LANE_DEPTH,
        max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES,
    ) -> None:
        addresses = parse_hosts(hosts)
        if not addresses:
            raise EngineError(
                "distributed backend needs at least one worker host"
            )
        if lane_depth < 1:
            raise EngineError("lane_depth must be >= 1")
        # The transport is built lazily, on the first run: check the
        # cap now so a bad one fails here, not mid-sweep.
        check_frame_cap(max_frame_bytes)
        super().__init__(
            functools.partial(
                SocketTransport,
                addresses,
                connect_timeout=connect_timeout,
                io_timeout=io_timeout,
                lane_depth=lane_depth,
                max_frame_bytes=max_frame_bytes,
            ),
            capacity=total_capacity([weight for *_, weight in addresses]),
            unit_size=unit_size,
        )

    @property
    def total_lanes(self) -> int:
        """The fleet's capacity: one lane per unit of host weight."""
        return self.capacity

    # The end-to-end benchmark's layer tracer wraps ``plan`` in this
    # class's own namespace (benchmarks/e2e/layertrace.py).
    plan = ShardedBackend.plan
