"""Tests for the fleet control plane: queue, registry, coordinator, monitor.

The load-bearing guarantees, pinned end to end against real loopback
workers:

* **queue durability** — jobs are versioned wire documents with an
  atomic state machine (illegal transitions raise; a cancel racing a
  completion wins), and job ids allocate race-free;
* **crash-resume bit-identity** — a coordinator killed mid-sweep
  leaves persisted units behind; a restarted coordinator re-dispatches
  *only the missing units* (measured at the workers) and the merged
  result is bit-identical to an uninterrupted serial run;
* **discovery over static lists** — the coordinator dispatches to
  whatever workers are currently registered and heartbeating, honours
  their capacity weights, and evicts stale registrations;
* **the monitor** — ``repro fleet`` renders worker health, queue
  depth and per-lane throughput purely from the on-disk state, and
  raises the documented alerts.
"""

import os
import signal
import subprocess
import sys
import time

import pytest

from repro.cli import main
from repro.engine import (
    EngineError,
    ExperimentSpec,
    LaneReport,
    RunReport,
    SerialBackend,
    WorkerServer,
    write_report,
)
from repro.fleet import (
    Coordinator,
    CoordinatorInterrupted,
    CoordinatorKilled,
    FleetError,
    FleetRegistry,
    HeartbeatThread,
    JobQueue,
    UnitStore,
    alerts,
    job_from_wire,
    job_to_wire,
    render,
    snapshot,
    worker_from_wire,
    worker_to_wire,
)


def _spec(trials=4, seed=5, runner="vss-coin", n=7):
    return ExperimentSpec(runner=runner, n=n, trials=trials, seed=seed)


@pytest.fixture()
def root(tmp_path):
    return str(tmp_path / "fleet")


@pytest.fixture()
def workers(root):
    """Two real loopback workers, registered in the fleet roster."""
    registry = FleetRegistry(root)
    servers = [WorkerServer().start(), WorkerServer().start()]
    for server in servers:
        registry.register(server.host, server.port)
    yield servers
    for server in servers:
        server.close()


# -- the job queue ---------------------------------------------------------------------


def test_job_wire_round_trip(root):
    queue = JobQueue(root)
    job = queue.submit(_spec(), unit_size=2)
    assert job.job_id == "job-000001"
    assert job.state == "pending"
    assert job_from_wire(job_to_wire(job)) == job
    assert queue.get(job.job_id) == job
    with pytest.raises(FleetError, match="unknown job"):
        queue.get("job-999999")
    with pytest.raises(FleetError, match="malformed job"):
        job_from_wire({"version": 1, "kind": "job"})


def test_job_ids_are_dense_and_collision_free(root):
    queue = JobQueue(root)
    ids = [queue.submit(_spec(seed=i)).job_id for i in range(3)]
    assert ids == ["job-000001", "job-000002", "job-000003"]
    # A second queue handle over the same root continues the sequence.
    assert JobQueue(root).submit(_spec()).job_id == "job-000004"


def test_job_state_machine(root):
    queue = JobQueue(root)
    job = queue.submit(_spec())
    # pending cannot complete without running first.
    with pytest.raises(FleetError, match="cannot move"):
        queue.transition(job.job_id, "done")
    assert queue.transition(job.job_id, "running").state == "running"
    assert queue.transition(job.job_id, "done").state == "done"
    # Terminal states are sticky.
    with pytest.raises(FleetError, match="cannot move"):
        queue.transition(job.job_id, "running")
    with pytest.raises(FleetError, match="unknown job state"):
        queue.transition(job.job_id, "exploded")


def test_cancellation_wins_a_race_with_completion(root):
    queue = JobQueue(root)
    job = queue.submit(_spec())
    queue.transition(job.job_id, "running")
    queue.cancel(job.job_id)
    # The coordinator's happy-path completion arrives late: no error,
    # and the cancel is preserved.
    assert queue.transition(job.job_id, "done").state == "cancelled"
    assert queue.get(job.job_id).state == "cancelled"
    # But a cancel of an already-done job is a real error.
    done = queue.submit(_spec(seed=9))
    queue.transition(done.job_id, "running")
    queue.transition(done.job_id, "done")
    with pytest.raises(FleetError, match="cannot move"):
        queue.cancel(done.job_id)


def test_depth_and_results_round_trip(root):
    queue = JobQueue(root)
    job = queue.submit(_spec(trials=3))
    assert queue.depth()["pending"] == 1
    results = SerialBackend().run_trials(job.spec)
    queue.save_results(job.job_id, results)
    assert queue.load_results(job.job_id) == results
    assert queue.load_results("job-000099") is None


def test_unit_store_resume_log(root):
    spec = _spec(trials=4)
    store = UnitStore(root, "job-000001")
    from repro.engine import DispatchPlan

    units = DispatchPlan(trials=4, unit_size=2).units(spec)
    results = SerialBackend().run_trials(spec)
    store.save(0, units[0], results[:2])
    assert store.completed_indices() == (0,)
    assert store.load(0, units[0]) == results[:2]
    assert store.load(1, units[1]) is None
    # A store written under a different plan/spec is a fault, not a miss.
    other = DispatchPlan(trials=4, unit_size=2).units(_spec(trials=4, seed=99))
    with pytest.raises(FleetError, match="does not match the plan"):
        store.load(0, other[0])


def test_documents_from_before_wave_units_still_decode(root):
    """A fleet root written when async scenarios shipped as step-loop
    waves resumes across the upgrade: a job envelope carrying
    ``max_live`` and persisted unit documents carrying ``mode`` /
    ``max_live`` decode with those keys ignored, and each stored unit
    equals the freshly planned one."""
    from repro.engine import plan_specs, result_to_wire, spec_to_wire
    from repro.engine.spec import wire_dumps

    spec = _spec(runner="bracha-broadcast", n=5, trials=4)
    job = job_from_wire(
        {
            "version": 1, "kind": "job", "job_id": "job-000001",
            "spec": spec_to_wire(spec), "state": "running",
            "unit_size": 2, "max_live": 64, "error": "",
            "submitted_at": 1.0, "updated_at": 2.0,
        }
    )
    assert (job.spec, job.unit_size, job.state) == (spec, 2, "running")
    assert "max_live" not in job_to_wire(job)
    (plan,) = plan_specs([spec], 2, unit_size=job.unit_size)
    units = plan.units(spec)
    results = SerialBackend().run_trials(spec)
    store = UnitStore(root, job.job_id)
    for index, (mode, max_live) in enumerate((("wave", 64), ("trials", None))):
        unit_doc = {
            "version": 1, "kind": "unit", "spec": spec_to_wire(spec),
            "indices": list(units[index].indices), "mode": mode,
            "max_live": max_live, "predicted_cost": None,
        }
        path = os.path.join(store.dir, f"unit-{index:06d}.json")
        with open(path, "w") as handle:
            handle.write(
                wire_dumps(
                    {
                        "version": 1, "kind": "unit-results",
                        "unit_index": index, "unit": unit_doc,
                        "results": [
                            result_to_wire(r)
                            for r in results[2 * index : 2 * index + 2]
                        ],
                    }
                )
                + "\n"
            )
        assert store.load(index, units[index]) == results[
            2 * index : 2 * index + 2
        ]


# -- the worker registry ---------------------------------------------------------------


def test_registry_register_heartbeat_evict(root):
    registry = FleetRegistry(root, heartbeat_timeout=5.0)
    info = registry.register("127.0.0.1", 7100, capacity=3, worker_id="w1")
    assert worker_from_wire(worker_to_wire(info)) == info
    # Registrations written with the retired advisory codecs field
    # still decode.
    assert worker_from_wire({**worker_to_wire(info), "codecs": [2, 1]}) == info
    assert registry.addresses() == [("127.0.0.1", 7100, 3)]
    # A stale heartbeat drops the worker from the live set and gets
    # evicted; eviction is what frees its units for rebalancing.
    future = time.time() + 60
    assert registry.alive(now=future) == []
    evicted = registry.evict_dead(now=future)
    assert [w.worker_id for w in evicted] == ["w1"]
    assert registry.workers() == []
    registry.deregister("w1")  # idempotent after eviction
    with pytest.raises(FleetError, match="capacity"):
        registry.register("h", 7100, capacity=0)
    with pytest.raises(FleetError, match="unsafe"):
        registry.deregister("../escape")


def test_heartbeat_thread_registers_and_withdraws(root):
    registry = FleetRegistry(root)
    served = [0]
    thread = HeartbeatThread(
        registry,
        "127.0.0.1",
        7200,
        capacity=2,
        worker_id="hb",
        interval=0.05,
        units_served=lambda: served[0],
    )
    with thread:
        assert registry.addresses() == [("127.0.0.1", 7200, 2)]
        served[0] = 7
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline:
            workers = registry.workers()
            if workers and workers[0].units_served == 7:
                break
            time.sleep(0.02)
        assert registry.workers()[0].units_served == 7
    # Clean shutdown withdraws immediately — no timeout wait.
    assert registry.workers() == []


# -- the coordinator -------------------------------------------------------------------


def test_coordinator_drains_queue_bit_identical_to_serial(root, workers):
    queue = JobQueue(root)
    specs = [_spec(trials=5, seed=3), _spec(trials=6, seed=4)]
    jobs = [queue.submit(spec, unit_size=2) for spec in specs]
    finished = Coordinator(root).run_once()
    assert sorted(j.job_id for j in finished) == [j.job_id for j in jobs]
    assert all(j.state == "done" for j in finished)
    for job, spec in zip(jobs, specs):
        assert queue.load_results(job.job_id) == (
            SerialBackend().run_trials(spec)
        )
        # Each job left a telemetry report for the monitor to merge.
        assert os.path.exists(queue.report_path(job.job_id))


def test_coordinator_requires_registered_workers(root):
    JobQueue(root).submit(_spec())
    with pytest.raises(FleetError, match="live worker"):
        Coordinator(root).run_once(worker_timeout=0.2)


def test_coordinator_skips_cancelled_and_reports_failed(root, workers):
    queue = JobQueue(root)
    cancelled = queue.submit(_spec(seed=1))
    queue.cancel(cancelled.job_id)
    # An unknown scenario fails the job, not the coordinator.
    bad = queue.submit(
        ExperimentSpec(runner="vss-coin", n=7, trials=2, seed=2)
    )
    broken_path = JobQueue(root)._job_path(bad.job_id)
    with open(broken_path) as handle:
        doc = handle.read()
    with open(broken_path, "w") as handle:
        handle.write(doc.replace("vss-coin", "no-such-scenario"))
    finished = Coordinator(root).run_once()
    states = {j.job_id: j.state for j in finished}
    assert states[bad.job_id] == "failed"
    assert "unknown" in JobQueue(root).get(bad.job_id).error
    assert queue.get(cancelled.job_id).state == "cancelled"


def test_crash_resume_runs_only_missing_units_bit_identically(root, workers):
    """The satellite acceptance test: kill the coordinator mid-sweep,
    restart it, and verify (a) only the not-yet-persisted units are
    re-dispatched — counted at the workers — and (b) the merged result
    is bit-identical to an uninterrupted serial run."""
    queue = JobQueue(root)
    spec = _spec(trials=8, seed=13)
    job = queue.submit(spec, unit_size=1)  # 8 single-trial units

    crashing = Coordinator(root, max_jobs=1, crash_after_units=3)
    with pytest.raises(CoordinatorKilled):
        crashing.run_once()

    # The kill left the job mid-flight: envelope still running, exactly
    # the crash budget persisted, the rest missing.
    assert queue.get(job.job_id).state == "running"
    store = UnitStore(root, job.job_id)
    assert len(store.completed_indices()) == 3
    # A unit the crashed run had already written to a socket may still
    # be draining into a worker's receive counter; wait for the counters
    # to settle so the resume delta counts only the resume's dispatches.
    served_before = sum(w.units_served for w in workers)
    settle_deadline = time.monotonic() + 5.0
    while time.monotonic() < settle_deadline:
        time.sleep(0.2)
        now_served = sum(w.units_served for w in workers)
        if now_served == served_before:
            break
        served_before = now_served

    finished = Coordinator(root, max_jobs=1).run_once()
    assert [j.state for j in finished] == ["done"]
    # Only the 5 missing units hit the workers on resume.
    assert sum(w.units_served for w in workers) - served_before == 5
    assert queue.load_results(job.job_id) == (
        SerialBackend().run_trials(spec)
    )


def test_two_jobs_survive_a_mid_run_kill(root, workers):
    """The issue's end-to-end criterion: two submitted jobs, a kill and
    restart mid-run, both jobs completing bit-identical to serial."""
    queue = JobQueue(root)
    specs = [_spec(trials=6, seed=21), _spec(trials=6, seed=22)]
    jobs = [queue.submit(spec, unit_size=1) for spec in specs]
    with pytest.raises(CoordinatorKilled):
        Coordinator(root, max_jobs=2, crash_after_units=2).run_once()
    finished = Coordinator(root, max_jobs=2).run_once()
    assert all(j.state == "done" for j in finished)
    for job, spec in zip(jobs, specs):
        assert queue.load_results(job.job_id) == (
            SerialBackend().run_trials(spec)
        )


def test_coordinator_lock_excludes_live_peers_but_steals_stale(root):
    coordinator = Coordinator(root)
    lock = coordinator._lock_path
    # A live foreign pid holds the lock: refuse to start.
    with open(lock, "w") as handle:
        handle.write("1")  # pid 1 is always alive (init)
    with pytest.raises(FleetError, match="another coordinator"):
        coordinator.run_once()
    # A dead pid's lock is stale: steal it and proceed (empty queue).
    with open(lock, "w") as handle:
        handle.write("999999999")
    assert coordinator.run_once() == []
    assert not os.path.exists(lock)  # released after the pass


def test_capacity_weights_flow_from_registry_to_plan(root):
    registry = FleetRegistry(root)
    server = WorkerServer().start()
    try:
        registry.register(
            server.host, server.port, capacity=4, worker_id="big"
        )
        coordinator = Coordinator(root)
        queue = JobQueue(root)
        job = queue.submit(_spec(trials=64))
        finished = coordinator.run_once()
        assert [j.state for j in finished] == ["done"]
        # weight 4 -> sized for 4 effective workers (64/16), persisted.
        assert queue.get(job.job_id).unit_size == 4
        assert queue.load_results(job.job_id) == (
            SerialBackend().run_trials(job.spec)
        )
    finally:
        server.close()


# -- the monitor -----------------------------------------------------------------------


def test_monitor_renders_roster_queue_and_alerts(root, workers):
    queue = JobQueue(root)
    job = queue.submit(_spec(trials=4))
    Coordinator(root).run_once()
    snap = snapshot(root)
    assert len(snap.workers) == 2
    assert snap.depth()["done"] == 1
    assert snap.report.trials == 4
    text = render(snap)
    assert "fleet workers" in text
    assert "job queue" in text
    assert "done:1" in text
    assert "lane throughput" in text
    assert job.job_id in text


def test_monitor_alerts(root):
    registry = FleetRegistry(root, heartbeat_timeout=5.0)
    registry.register("127.0.0.1", 7300, worker_id="sleepy")
    queue = JobQueue(root)
    queue.submit(_spec())
    failed = queue.submit(_spec(seed=2))
    queue.transition(failed.job_id, "running")
    queue.transition(failed.job_id, "failed", error="boom")
    # A saturated lane with dead events, via a synthetic merged report.
    write_report(
        RunReport(
            backend="fleet",
            trials=10,
            wall_seconds=1.0,
            lanes=(
                LaneReport(
                    lane="hot:1",
                    units_ok=5,
                    trials=10,
                    unit_seconds=(0.95,),
                    dead_events=1,
                ),
            ),
        ),
        queue.report_path(failed.job_id),
    )
    snap = snapshot(root, heartbeat_timeout=5.0, now=time.time() + 60)
    lines = "\n".join(alerts(snap))
    assert "sleepy is stale" in lines
    assert "no live worker" in lines
    assert "failed: boom" in lines
    assert "usage 95% exceeds" in lines
    assert "1 dead event" in lines
    assert "alerts:" in render(snap)


def test_monitor_on_an_empty_root(root):
    text = render(snapshot(root))
    assert "(none registered)" in text
    assert "(empty)" in text
    assert "alerts: none" in text


# -- the CLI ---------------------------------------------------------------------------


def test_cli_queue_submit_status_cancel(root, capsys):
    assert main([
        "queue", "submit", "--root", root, "--name", "vss-coin",
        "-n", "7", "--trials", "2", "--seed", "5",
    ]) == 0
    assert "job-000001" in capsys.readouterr().out
    assert main(["queue", "status", "--root", root]) == 0
    out = capsys.readouterr().out
    assert "pending:1" in out and "vss-coin" in out
    assert main(["queue", "cancel", "--root", root, "job-000001"]) == 0
    capsys.readouterr()
    assert main(["queue", "status", "--root", root, "job-000001"]) == 0
    assert "[cancelled]" in capsys.readouterr().out
    # Unknown scenarios are rejected at submit time, exit code 2.
    assert main([
        "queue", "submit", "--root", root, "--name", "nope",
    ]) == 2


def test_cli_queue_run_and_fleet_render(root, workers, capsys):
    assert main([
        "queue", "submit", "--root", root, "--name", "vss-coin",
        "-n", "7", "--trials", "3", "--seed", "8", "--unit-size", "1",
    ]) == 0
    assert main(["queue", "run", "--root", root]) == 0
    out = capsys.readouterr().out
    assert "[done]" in out
    assert JobQueue(root).load_results("job-000001") == (
        SerialBackend().run_trials(_spec(trials=3, seed=8))
    )
    assert main(["fleet", "--root", root, "--once"]) == 0
    out = capsys.readouterr().out
    assert "fleet workers" in out
    assert "alerts" in out


def test_cli_queue_run_empty_queue(root, capsys):
    FleetRegistry(root)  # create the directories
    assert main(["queue", "run", "--root", root]) == 0
    assert "queue is empty" in capsys.readouterr().out


def test_cli_worker_serve_fleet_flags_registered():
    """The serve parser accepts the fleet flags (the live spawn path is
    exercised by the CI fleet job)."""
    from repro.cli import build_parser

    args = build_parser().parse_args([
        "worker", "serve", "--port", "0", "--fleet", "/tmp/f",
        "--capacity", "3", "--worker-id", "w", "--heartbeat-interval",
        "0.5",
    ])
    assert args.fleet == "/tmp/f"
    assert args.capacity == 3
    assert args.worker_id == "w"


def test_fleet_error_is_an_engine_error():
    assert issubclass(FleetError, EngineError)


# -- clock skew ------------------------------------------------------------------------


def test_worker_age_clamps_skewed_clocks(root):
    """A heartbeat stamped *ahead* of the observer's clock (cross-host
    skew, an NTP step) must read as freshly alive — never as a negative
    age that could misorder or misclassify the roster."""
    registry = FleetRegistry(root, heartbeat_timeout=5.0)
    info = registry.register("127.0.0.1", 7300, worker_id="skewed")
    past = info.heartbeat_at - 30.0  # observer's clock runs 30s behind
    assert info.age(now=past) == 0.0
    assert [w.worker_id for w in registry.alive(now=past)] == ["skewed"]
    assert registry.evict_dead(now=past) == []
    assert [w.worker_id for w in registry.workers()] == ["skewed"]
    # The stale direction still evicts on the observer's clock.
    future = info.heartbeat_at + 60.0
    assert info.age(now=future) == pytest.approx(60.0)
    assert registry.alive(now=future) == []
    assert [w.worker_id for w in registry.evict_dead(now=future)] == [
        "skewed"
    ]


def test_monitor_renders_future_stamped_worker_alive(root):
    """``repro fleet`` on a skewed observer: a future-stamped heartbeat
    renders alive at age 0.0, with no stale alert."""
    registry = FleetRegistry(root, heartbeat_timeout=5.0)
    info = registry.register("127.0.0.1", 7301, worker_id="ahead")
    observer = info.heartbeat_at - 30.0
    snap = snapshot(root, now=observer)
    assert [w.worker_id for w in snap.alive_workers()] == ["ahead"]
    assert snap.stale_workers() == []
    assert alerts(snap) == []
    text = render(snap)
    assert "alive" in text and "STALE" not in text
    assert "-3" not in text  # no negative age ever reaches the table


# -- graceful interrupts ---------------------------------------------------------------


class _StopAfter(Coordinator):
    """Coordinator that requests its own stop after N persisted units —
    the deterministic in-process stand-in for Ctrl-C mid-sweep."""

    def __init__(self, root, stop_after, **kwargs):
        super().__init__(root, **kwargs)
        self._stop_after = stop_after
        self._seen = 0

    def _note_collect(self):
        self._seen += 1
        if self._seen > self._stop_after:
            self.request_stop()
        super()._note_collect()


def test_request_stop_releases_lock_and_leaves_job_resumable(root, workers):
    """The interrupt satellite, in process: a stop requested mid-sweep
    unwinds through CoordinatorInterrupted, releases the advisory pid
    lock, leaves the job ``running`` with only the already-persisted
    units on disk, and a plain restart resumes bit-identically."""
    queue = JobQueue(root)
    spec = _spec(trials=8, seed=31)
    job = queue.submit(spec, unit_size=1)

    stopping = _StopAfter(root, stop_after=3, max_jobs=1)
    with pytest.raises(CoordinatorInterrupted):
        stopping.run_once()

    assert not os.path.exists(stopping._lock_path)  # lock released
    assert queue.get(job.job_id).state == "running"  # not "failed"
    persisted = UnitStore(root, job.job_id).completed_indices()
    assert len(persisted) == 3

    finished = Coordinator(root, max_jobs=1).run_once()
    assert [j.state for j in finished] == ["done"]
    assert queue.load_results(job.job_id) == (
        SerialBackend().run_trials(spec)
    )


def test_stop_requested_before_run_never_takes_the_lock(root):
    coordinator = Coordinator(root)
    coordinator.request_stop()
    assert coordinator.stop_requested
    with pytest.raises(CoordinatorInterrupted):
        coordinator.run_once()
    assert not os.path.exists(coordinator._lock_path)


def test_sigint_mid_run_exits_130_and_resumes_bit_identically(
    root, workers, tmp_path
):
    """``repro queue run`` under a real SIGINT: the first Ctrl-C drains
    gracefully (exit 130, lock released, job left ``running``), and a
    fresh coordinator completes the job bit-identical to serial."""
    queue = JobQueue(root)
    spec = _spec(trials=32, seed=47)
    job = queue.submit(spec, unit_size=1)

    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "queue", "run",
            "--root", root, "--max-jobs", "1",
        ],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    store = UnitStore(root, job.job_id)
    try:
        deadline = time.monotonic() + 60.0
        while time.monotonic() < deadline:
            if proc.poll() is not None or store.completed_indices():
                break
            time.sleep(0.02)
        interrupted = proc.poll() is None
        if interrupted:
            proc.send_signal(signal.SIGINT)
        stdout, stderr = proc.communicate(timeout=60.0)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()

    if interrupted and proc.returncode == 130:
        assert "resume" in stderr
        lock = os.path.join(root, "coordinator.lock")
        assert not os.path.exists(lock)
        assert queue.get(job.job_id).state == "running"
        assert len(store.completed_indices()) < spec.trials
        finished = Coordinator(root, max_jobs=1).run_once()
        assert [j.state for j in finished] == ["done"]
    else:
        # The sweep outran the poll loop (or the signal landed after
        # the last collect) — the run must have finished cleanly.
        assert proc.returncode == 0, (stdout, stderr)
    assert queue.load_results(job.job_id) == (
        SerialBackend().run_trials(spec)
    )
