"""Tests for the multi-host distributed backend and its socket plumbing.

Everything here runs against real TCP sockets on loopback —
:class:`WorkerServer` instances serving from daemon threads are
byte-for-byte the same code path ``repro worker serve`` runs in a
separate process (the CI job exercises that spawn path).  Pinned:

* **parity** — distributed == process == batch == serial, for sync
  and async scenarios, at several unit sizes;
* **worker death mid-sweep** — a worker that answers some units and
  then drops connections (indistinguishable from a killed process) is
  excluded and its units retried on the survivor; results stay
  bit-identical; a dead address (nothing listening) is rebalanced the
  same way; when *every* worker is dead the sweep raises instead of
  returning partial results;
* **lifecycle** — idempotent close, context-manager use, reuse after
  close (lazy reconnect).
"""

import random
import socket

import pytest

from repro.engine import (
    BatchBackend,
    DispatchError,
    DistributedBackend,
    Engine,
    EngineError,
    ExperimentSpec,
    ProcessPoolBackend,
    SerialBackend,
    SocketTransport,
    WorkerServer,
    get_backend,
    parse_hosts,
)
from repro.engine.engine import BACKEND_NAMES
from repro.engine.wire import FrameReader, decode_document, encode_frame


def _async_spec(trials=6, seed=3):
    return ExperimentSpec(
        runner="bracha-broadcast", n=5, trials=trials, seed=seed
    )


def _sync_spec(trials=5, seed=11):
    return ExperimentSpec(runner="vss-coin", n=7, trials=trials, seed=seed)


def _dead_port():
    """A port that was bound and released: nothing listens there."""
    probe = socket.socket()
    probe.bind(("127.0.0.1", 0))
    port = probe.getsockname()[1]
    probe.close()
    return port


@pytest.fixture()
def workers():
    servers = [WorkerServer().start(), WorkerServer().start()]
    yield servers
    for server in servers:
        server.close()


# -- host parsing ----------------------------------------------------------------------


def test_parse_hosts():
    assert parse_hosts(["10.0.0.1:7045", ("h", 9)]) == [
        ("10.0.0.1", 7045, 1),
        ("h", 9, 1),
    ]
    assert parse_hosts(["bare-host"]) == [("bare-host", 7045, 1)]
    # The host:port:weight form feeds the capacity-weighted plan.
    assert parse_hosts(["big:7045:3", ("h2", 9, 2)]) == [
        ("big", 7045, 3),
        ("h2", 9, 2),
    ]
    with pytest.raises(EngineError, match="host"):
        DistributedBackend([])


def test_parse_hosts_errors_name_the_offending_entry():
    """Every malformed spec is rejected with a message carrying the
    entry itself, so a bad element of a long --hosts list is findable."""
    cases = [
        ("host:notaport", "not an integer"),
        (" ", "empty"),
        ("a:1:2:3", "host:port:weight"),
        ("host::7045", "host:port:weight"),
        ("h:7045:zero", "not an integer"),
        ("h:7045:0", "weight 0 must be >= 1"),
        ("h:99999", "outside 1..65535"),
        (("h", "x"), "port and weight must be integers"),
        (("h", 1, 2, 3), "(host, port)"),
    ]
    for entry, why in cases:
        with pytest.raises(EngineError) as err:
            parse_hosts([entry])
        message = str(err.value)
        assert repr(entry) in message, entry
        assert "bad worker host" in message
        assert why in message, entry


def test_capacity_weight_expands_into_lanes():
    """A weight-w host is w independent lanes on the transport and w
    effective workers in the plan geometry."""
    transport = SocketTransport([("a", 7045, 3), "b:7045:2", ("c", 7045)])
    assert transport.lanes() == (
        "a:7045", "a:7045#1", "a:7045#2", "b:7045", "b:7045#1", "c:7045"
    )
    transport.close()
    backend = DistributedBackend(["a:7045:3", "b:7045"])
    assert backend.total_lanes == 4
    assert (
        backend.plan(_sync_spec(trials=64)).unit_size
        == DistributedBackend(
            ["a:7045", "b:7045", "c:7045", "d:7045"]
        ).plan(_sync_spec(trials=64)).unit_size
    )
    backend.close()


def test_weighted_host_keeps_multiple_units_in_flight_bit_identically():
    """One weight-2 worker serves two concurrent lanes (the threaded
    server really does execute them in parallel) and the merged sweep
    stays bit-identical to serial."""
    spec = _sync_spec(trials=6)
    serial = SerialBackend().run_trials(spec)
    server = WorkerServer().start()
    try:
        with DistributedBackend(
            [f"{server.address}:2"], unit_size=1
        ) as dist:
            assert dist.total_lanes == 2
            assert dist.run_trials(spec) == serial
        report = dist.telemetry.report(results=serial)
        lanes = {lane.lane for lane in report.lanes if lane.units_ok}
        assert lanes == {server.address, f"{server.address}#1"}
    finally:
        server.close()


# -- parity: the acceptance criterion --------------------------------------------------


def test_distributed_equals_process_equals_serial(workers):
    """The headline chain, both scenario families, the sharded ones
    through the shared dispatch core."""
    hosts = [w.address for w in workers]

    async_spec = _async_spec(trials=8, seed=17)
    serial = SerialBackend().run_trials(async_spec)
    with ProcessPoolBackend(workers=2, unit_size=3) as pool:
        process = pool.run_trials(async_spec)
    batch = BatchBackend(max_live=3).run_trials(async_spec)
    with DistributedBackend(hosts, unit_size=3) as dist:
        distributed = dist.run_trials(async_spec)
    assert distributed == process == batch == serial

    sync_spec = _sync_spec(trials=5)
    serial_sync = SerialBackend().run_trials(sync_spec)
    process_sync = ProcessPoolBackend(workers=2, unit_size=2).run_trials(
        sync_spec
    )
    with DistributedBackend(hosts, unit_size=2) as dist:
        distributed_sync = dist.run_trials(sync_spec)
    assert distributed_sync == process_sync == serial_sync


def test_unit_size_is_unobservable(workers):
    hosts = [w.address for w in workers]
    spec = _async_spec(trials=7, seed=5)
    serial = SerialBackend().run_trials(spec)
    for unit_size in (1, 2, 5, 100, None):
        with DistributedBackend(hosts, unit_size=unit_size) as dist:
            assert dist.run_trials(spec) == serial, f"unit_size={unit_size}"


def test_distributed_through_engine_and_get_backend(workers):
    hosts = [w.address for w in workers]
    assert "distributed" in BACKEND_NAMES
    backend = get_backend("distributed", unit_size=2, hosts=hosts)
    assert isinstance(backend, DistributedBackend)
    assert backend.unit_size == 2
    spec = _async_spec(trials=4)
    with Engine(backend) as engine:
        result = engine.run(spec)
    assert result.backend == "distributed"
    assert list(result.trials) == SerialBackend().run_trials(spec)


def test_get_backend_distributed_requires_hosts():
    with pytest.raises(EngineError, match="hosts"):
        get_backend("distributed")


def test_distributed_contains_trial_crashes_like_serial(workers):
    """Protocol crashes are trial-level failures, not lane failures:
    the sweep completes with the same failed TrialResult rows serial
    produces.  (Built-in scenario, so remote registries resolve it.)"""
    hosts = [w.address for w in workers]
    # dealer=9 passes value-level validation without n and fails inside
    # the builder at runtime — on the worker, not in the client.
    spec = ExperimentSpec(
        runner="bracha-broadcast", n=5, trials=3, seed=2,
        params={"dealer": 9},
    )
    serial = SerialBackend().run_trials(spec)
    assert all(not t.ok for t in serial)
    with DistributedBackend(hosts, unit_size=1) as dist:
        assert dist.run_trials(spec) == serial


# -- worker death, retry, rebalance ----------------------------------------------------


def test_worker_killed_mid_sweep_is_retried_on_survivor():
    """The acceptance criterion's kill test: a worker that dies after
    answering one unit loses its in-flight unit; the dispatch plane
    excludes the dead lane, reruns the unit on the survivor, and the
    sweep stays bit-identical to serial."""
    spec = _async_spec(trials=6, seed=9)
    serial = SerialBackend().run_trials(spec)
    crashing = WorkerServer(crash_after_units=1).start()
    healthy = WorkerServer().start()
    try:
        with DistributedBackend(
            [crashing.address, healthy.address], unit_size=1
        ) as dist:
            assert dist.run_trials(spec) == serial
        assert crashing.crashed  # the kill actually happened mid-sweep
    finally:
        crashing.close()
        healthy.close()


def test_restarted_worker_rejoins_on_the_next_run():
    """A lane lost in one sweep is re-dialed on the next run_trials:
    a worker that restarted between sweeps rejoins instead of the
    backend running degraded forever on its surviving hosts."""
    spec = _sync_spec(trials=4)
    serial = SerialBackend().run_trials(spec)
    port = _dead_port()
    healthy = WorkerServer().start()
    backend = DistributedBackend(
        [f"127.0.0.1:{port}", healthy.address],
        unit_size=1,
        connect_timeout=1.0,
    )
    try:
        assert backend.run_trials(spec) == serial  # degraded: one lane
        assert len(backend._transport.lanes()) == 1
        revived = WorkerServer(port=port).start()  # the worker returns
        try:
            assert backend.run_trials(spec) == serial
            assert len(backend._transport.lanes()) == 2  # both rejoined
        finally:
            revived.close()
    finally:
        healthy.close()
        backend.close()


def test_worker_dead_from_the_start_is_rebalanced():
    spec = _sync_spec(trials=4)
    serial = SerialBackend().run_trials(spec)
    healthy = WorkerServer().start()
    try:
        with DistributedBackend(
            [f"127.0.0.1:{_dead_port()}", healthy.address],
            unit_size=1,
            connect_timeout=1.0,
        ) as dist:
            assert dist.run_trials(spec) == serial
    finally:
        healthy.close()


def test_all_workers_dead_raises_instead_of_partial_results():
    spec = _sync_spec(trials=4)
    backend = DistributedBackend(
        [f"127.0.0.1:{_dead_port()}", f"127.0.0.1:{_dead_port()}"],
        unit_size=1,
        connect_timeout=0.5,
    )
    with pytest.raises(DispatchError):
        backend.run_trials(spec)
    backend.close()


def test_socket_transport_lane_death_is_visible():
    transport = SocketTransport(
        [f"127.0.0.1:{_dead_port()}"], connect_timeout=0.5
    )
    from repro.engine import WorkUnit

    assert transport.lanes()  # optimistic until proven dead
    assert transport.try_submit(
        0, WorkUnit(spec=_sync_spec(trials=1), indices=(0,))
    )
    envelope = transport.collect()
    assert not envelope.ok
    assert transport.lanes() == ()  # the refused connect killed the lane
    transport.close()
    transport.close()  # idempotent


# -- lifecycle -------------------------------------------------------------------------


def test_distributed_backend_reusable_after_close(workers):
    hosts = [w.address for w in workers]
    spec = _async_spec(trials=4)
    backend = DistributedBackend(hosts, unit_size=2)
    first = backend.run_trials(spec)
    backend.close()
    backend.close()  # idempotent
    assert backend.run_trials(spec) == first  # lazy reconnect
    backend.close()


def test_distributed_constructor_validation(workers):
    hosts = [w.address for w in workers]
    with pytest.raises(EngineError, match="unit_size"):
        DistributedBackend(hosts, unit_size=0)


def test_unknown_scenario_fails_fast_in_the_client(workers):
    backend = DistributedBackend([w.address for w in workers])
    with pytest.raises(EngineError, match="unknown experiment runner"):
        backend.run_trials(
            ExperimentSpec(runner="no-such-scenario", n=3, trials=1)
        )
    backend.close()


def test_worker_server_close_is_idempotent():
    server = WorkerServer().start()
    server.close()
    server.close()
    unstarted = WorkerServer()
    unstarted.close()  # never served: still safe


def test_close_drains_inflight_unit_before_teardown():
    """The graceful-drain regression: a close() racing an executing
    unit blocks until that unit's response is flushed — the client
    still collects a success envelope, never a cut connection."""
    import threading
    import time

    from repro.engine import Scenario, TrialResult, WorkUnit, register

    started = threading.Event()

    def _slow_trial(ctx):
        started.set()
        time.sleep(0.5)
        return TrialResult.make(ctx, {"value": 1.0})

    register(
        Scenario(
            name="test-slow-drain",
            run_trial=_slow_trial,
            description="test-only: sleeps long enough to race close()",
        )
    )
    spec = ExperimentSpec(runner="test-slow-drain", n=1, trials=1)
    server = WorkerServer().start()
    transport = SocketTransport([server.address])
    try:
        assert transport.try_submit(
            0, WorkUnit(spec=spec, indices=(0,))
        )
        assert started.wait(5.0)  # the unit is executing on the server
        begin = time.monotonic()
        server.close()  # must drain: finish the unit, flush the reply
        drained_after = time.monotonic() - begin
        envelope = transport.collect()
        assert envelope.ok, envelope.error
        assert [r.trial_index for r in envelope.results] == [0]
        assert drained_after >= 0.2  # close really waited for the unit
        assert server.units_served == 1
    finally:
        transport.close()
        server.close()


def test_draining_server_refuses_new_units_with_an_error_envelope():
    """A unit offered to a draining server is answered (an error
    envelope, so the client can rebalance it) rather than ignored."""
    from repro.engine import WorkUnit

    server = WorkerServer()
    server.draining = True  # drain mode without tearing sockets down
    server.start()
    transport = SocketTransport([server.address])
    try:
        assert transport.try_submit(
            0, WorkUnit(spec=_sync_spec(trials=1), indices=(0,))
        )
        envelope = transport.collect()
        assert not envelope.ok
        assert "draining" in envelope.error
    finally:
        transport.close()
        server.close()


# -- pipelined lanes and the wire -------------------------------------------------------


def test_lane_depth_is_unobservable():
    """Pipeline depth changes overlap, never content: every depth
    merges bit-identically to serial, for both scenario families."""
    server = WorkerServer().start()
    try:
        for spec in (_sync_spec(trials=6), _async_spec(trials=6)):
            serial = SerialBackend().run_trials(spec)
            for depth in (1, 2, 4):
                with DistributedBackend(
                    [server.address], unit_size=1, lane_depth=depth
                ) as dist:
                    assert dist.run_trials(spec) == serial, f"depth={depth}"
    finally:
        server.close()


def test_pipelined_lane_fills_its_window_and_reports_it():
    """A depth-4 lane really holds several units in flight (telemetry's
    inflight_peak) and never exceeds its window; the per-lane frame
    count lands in the lane report."""
    spec = _sync_spec(trials=6)
    serial = SerialBackend().run_trials(spec)
    server = WorkerServer().start()
    try:
        with DistributedBackend(
            [server.address], unit_size=1, lane_depth=4
        ) as dist:
            results = dist.run_trials(spec)
        assert results == serial
        report = dist.telemetry.report(results)
        (lane,) = report.lanes
        assert 2 <= lane.inflight_peak <= 4
        # One reply frame per unit (unit_size=1: one unit per trial).
        assert lane.frames == spec.trials
        assert lane.bytes_in > 0 and lane.bytes_out > 0
    finally:
        server.close()


def test_worker_killed_mid_pipelined_sweep_rebalances_every_inflight_unit():
    """With several units riding the dead lane, every one of them is
    retried on the survivor — not just the unit at the head."""
    spec = _async_spec(trials=8, seed=13)
    serial = SerialBackend().run_trials(spec)
    crashing = WorkerServer(crash_after_units=2).start()
    healthy = WorkerServer().start()
    try:
        with DistributedBackend(
            [crashing.address, healthy.address], unit_size=1, lane_depth=4
        ) as dist:
            assert dist.run_trials(spec) == serial
        assert crashing.crashed
    finally:
        crashing.close()
        healthy.close()


def test_oversized_reply_fails_the_lane_with_a_named_error():
    """The reply-frame cap: a reply larger than max_frame_bytes kills
    the lane cleanly — the sweep's error names the lane and the cap
    instead of the client growing its buffer without bound."""
    spec = _sync_spec(trials=2)
    server = WorkerServer().start()
    backend = DistributedBackend(
        [server.address], unit_size=1, max_frame_bytes=256
    )
    try:
        with pytest.raises(DispatchError) as err:
            backend.run_trials(spec)
        message = str(err.value)
        assert server.address in message  # names the lane
        assert "frame cap" in message  # names the bound
    finally:
        backend.close()
        server.close()


def _exchange_raw(server, request: bytes):
    """Send raw bytes to a live worker; return its replies up to EOF.

    Each reply is decoded from one frame; the read ends when the
    worker hangs up.
    """
    with socket.create_connection(
        (server.host, server.port), timeout=5.0
    ) as sock:
        sock.sendall(request)
        reader = FrameReader(sock)
        replies = []
        while True:
            frame = reader.read_frame()
            if frame is None:
                return replies
            replies.append(decode_document(frame.payload))


def test_worker_refuses_oversized_request_frame():
    """The server-side cap mirrors the client's: an oversized request
    is answered with an error naming the cap, then the worker hangs up
    (framing cannot be resynchronised mid-stream)."""
    server = WorkerServer(max_frame_bytes=512).start()
    try:
        # Incompressible padding: the length prefix itself is over cap.
        pad = random.Random(0).randbytes(2048).hex()
        (reply,) = _exchange_raw(
            server, encode_frame({"version": 1, "kind": "unit", "pad": pad})
        )
        assert reply["kind"] == "error"
        assert "frame cap" in reply["error"]
    finally:
        server.close()
    # Through the client: the refusal answers no unit id, so it fails
    # the lane, and the sweep's error carries the worker's reason.
    small = WorkerServer(max_frame_bytes=64).start()
    try:
        with DistributedBackend([small.address], unit_size=1) as dist:
            with pytest.raises(DispatchError, match="frame cap"):
                dist.run_trials(_sync_spec(trials=1))
    finally:
        small.close()


def test_worker_answers_a_json_line_with_one_framed_error():
    """A peer speaking JSON lines gets exactly one framed error naming
    the offending first byte, then the worker hangs up — instead of the
    connection hanging while the worker waits for a frame header."""
    server = WorkerServer().start()
    try:
        (reply,) = _exchange_raw(server, b'{"version":1,"kind":"unit"}\n')
        assert reply["kind"] == "error"
        assert "0x7b" in reply["error"]
        assert server.units_served == 0
    finally:
        server.close()


def test_lane_depth_validation():
    server = WorkerServer().start()
    try:
        with pytest.raises(EngineError, match="lane_depth"):
            DistributedBackend([server.address], lane_depth=0)
        with pytest.raises(EngineError, match="lane_depth"):
            SocketTransport([server.address], lane_depth=0)
        # A frame cap too small for any frame fails at construction
        # (the backend builds its transport lazily, so it checks too).
        with pytest.raises(EngineError, match="max_frame_bytes"):
            DistributedBackend([server.address], max_frame_bytes=4)
        with pytest.raises(EngineError, match="max_frame_bytes"):
            SocketTransport([server.address], max_frame_bytes=4)
        with pytest.raises(EngineError, match="max_frame_bytes"):
            WorkerServer(max_frame_bytes=4)
    finally:
        server.close()
