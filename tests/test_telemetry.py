"""Tests for the engine telemetry plane (spans, reports, wire, monitor).

The contract, pinned piece by piece:

* **stats wire field** — ``UnitStats`` round-trips through the reply
  envelope's versioned ``stats`` field, and a worker that sends none
  (or an unknown version) decodes to *absent*, never to an error:
  old workers stay interoperable.
* **RunReport.merge** — exactly associative over arbitrary shards,
  because raw samples concatenate and derived metrics are computed at
  read time.
* **edge cases** — empty sweeps and zero-unit telemetry freeze, render
  and round-trip without special-casing.
* **non-perturbation** — with telemetry always on, every backend's
  results stay bit-identical to the serial seed, registry-wide.
"""

import io
import math
import random

import pytest

from repro.engine import (
    BatchBackend,
    Engine,
    ExperimentSpec,
    LaneReport,
    LedgerStats,
    ProcessPoolBackend,
    RunReport,
    RunTelemetry,
    SerialBackend,
    SweepMonitor,
    UnitStats,
    WireFormatError,
    WorkerServer,
    get_runner,
    report_from_wire,
    report_to_wire,
    run_units,
    scenario_names,
    stats_from_wire,
    stats_to_wire,
)
from repro.engine.dispatch import DispatchPlan, InlineTransport
from repro.engine.distributed import DistributedBackend
from repro.engine.spec import wire_dumps, wire_loads


def _spec(runner="bracha-broadcast", n=5, trials=6, seed=3, **params):
    return ExperimentSpec(
        runner=runner, n=n, trials=trials, seed=seed, params=params
    )


# -- the stats wire field --------------------------------------------------------------


class TestStatsWire:
    def test_round_trip(self):
        stats = UnitStats(
            compute_seconds=0.125, trial_seconds=(0.06, 0.065)
        )
        assert stats_from_wire(stats_to_wire(stats)) == stats
        empty = UnitStats()
        assert stats_from_wire(stats_to_wire(empty)) == empty

    def test_absent_field_decodes_to_none(self):
        """The legacy-worker rule: a reply without ``stats`` is fine."""
        assert stats_from_wire(None) is None

    def test_unknown_version_decodes_to_none(self):
        """Stats are advisory: a future version degrades to absent,
        it never breaks the dispatch."""
        doc = stats_to_wire(UnitStats(compute_seconds=1.0))
        doc["stats_version"] = 999
        assert stats_from_wire(doc) is None

    def test_malformed_decodes_to_none(self):
        assert stats_from_wire("nonsense") is None
        assert stats_from_wire({"stats_version": 1}) is None
        doc = stats_to_wire(UnitStats(compute_seconds=1.0))
        doc["compute_seconds"] = float("nan")
        assert stats_from_wire(doc) is None

    def test_non_finite_stats_refuse_to_encode(self):
        with pytest.raises(WireFormatError):
            stats_to_wire(UnitStats(compute_seconds=float("inf")))

    def test_stats_survive_json(self):
        stats = UnitStats(compute_seconds=0.5, trial_seconds=(0.25, 0.25))
        assert stats_from_wire(
            wire_loads(wire_dumps(stats_to_wire(stats)))
        ) == stats


class TestLegacyWorkerInterop:
    def test_mixed_stats_and_legacy_workers(self):
        """Two workers share one sweep: parity holds, and each lane
        carries one compute sample per unit plus its wire counters."""
        spec = _spec(trials=8)
        serial = SerialBackend().run_trials(spec)
        first = WorkerServer().start()
        second = WorkerServer().start()
        try:
            with DistributedBackend(
                [first.address, second.address], unit_size=2
            ) as backend:
                assert backend.run_trials(spec) == serial
                report = backend.telemetry.report(serial)
        finally:
            first.close()
            second.close()
        lanes = report.lane_map()
        first_lane = lanes[first.address]
        second_lane = lanes[second.address]
        assert first_lane.units_ok + second_lane.units_ok == 4
        for lane in (first_lane, second_lane):
            # Every reply carries stats: one compute sample per unit.
            assert len(lane.compute_seconds) == lane.units_ok
            # Wire counters come from the transport, not the worker.
            if lane.units_ok:
                assert lane.bytes_out > 0 and lane.bytes_in > 0
                assert len(lane.round_trip_seconds) >= lane.units_ok
                assert lane.dials >= 1


# -- merge algebra ---------------------------------------------------------------------


def _random_report(rng: random.Random) -> RunReport:
    # Lanes in canonical (sorted) order, as RunTelemetry.report and
    # RunReport.merge both emit them.
    lanes = []
    for lane_id in sorted(
        rng.sample(["a", "b", "c", "d"], rng.randint(0, 3))
    ):
        units = rng.randint(1, 4)
        lanes.append(
            LaneReport(
                lane=lane_id,
                units_ok=units,
                units_failed=rng.randint(0, 2),
                trials=units * 2,
                unit_seconds=tuple(
                    rng.random() for _ in range(units)
                ),
                compute_seconds=tuple(
                    rng.random() for _ in range(rng.randint(0, units))
                ),
                round_trip_seconds=tuple(
                    rng.random() for _ in range(rng.randint(0, 5))
                ),
                bytes_out=rng.randint(0, 10_000),
                bytes_in=rng.randint(0, 10_000),
                dials=rng.randint(0, 2),
                redials=rng.randint(0, 2),
                dead_events=rng.randint(0, 1),
            )
        )
    samples = tuple(s for lane in lanes for s in lane.unit_seconds)
    return RunReport(
        backend=rng.choice(["distributed", "process", ""]),
        trials=sum(lane.trials for lane in lanes),
        failures=rng.randint(0, 2),
        wall_seconds=rng.random() * 10,
        unit_attempts=sum(lane.units_ok for lane in lanes),
        retries=rng.randint(0, 3),
        rebalances=rng.randint(0, 2),
        unit_seconds=samples,
        lanes=tuple(lanes),
        ledger=LedgerStats(
            total_bits=rng.randint(0, 1 << 20),
            total_messages=rng.randint(0, 1000),
            max_bits_per_processor=rng.randint(0, 1 << 10),
            rounds=rng.randint(0, 100),
        ),
        trial_bits=tuple(
            rng.randint(0, 4096) for _ in range(rng.randint(0, 6))
        ),
    )


class TestMergeAlgebra:
    def test_merge_is_associative_over_random_shards(self):
        rng = random.Random(0xC0FFEE)
        for _ in range(50):
            a, b, c = (_random_report(rng) for _ in range(3))
            assert a.merge(b).merge(c) == a.merge(b.merge(c))

    def test_empty_report_is_identity(self):
        rng = random.Random(7)
        empty = RunReport()
        for _ in range(10):
            report = _random_report(rng)
            assert empty.merge(report) == report
            merged = report.merge(empty)
            # Right identity up to the backend fold (empty never wins).
            assert merged == report

    def test_differing_backends_fold_to_mixed(self):
        a = RunReport(backend="process", trials=1)
        b = RunReport(backend="distributed", trials=2)
        assert a.merge(b).backend == "mixed"
        assert a.merge(RunReport(backend="process")).backend == "process"

    def test_merge_survives_the_wire(self):
        """Percentiles computed after wire round-trip + merge match the
        in-memory fold: the artifact loses nothing."""
        rng = random.Random(21)
        a, b = _random_report(rng), _random_report(rng)
        folded = a.merge(b)
        rewired = report_from_wire(
            wire_loads(wire_dumps(report_to_wire(a)))
        ).merge(
            report_from_wire(wire_loads(wire_dumps(report_to_wire(b))))
        )
        assert rewired == folded
        for q in (50, 90, 99):
            assert rewired.unit_latency(q) == folded.unit_latency(q)
        # Artifacts written with the retired per-lane codec label load.
        old = report_to_wire(RunReport(lanes=(LaneReport(lane="a"),)))
        old["lanes"][0]["codec"] = "binary"
        assert report_from_wire(old).lanes == (LaneReport(lane="a"),)
        # Artifacts written with the retired trace-counter bridge load,
        # the counters ignored.
        traced = report_to_wire(a)
        traced["trace_counters"] = [["corrupt", 1], ["deliver", 3]]
        assert report_from_wire(traced) == a

    def test_lane_merge_rejects_mismatched_ids(self):
        with pytest.raises(ValueError, match="lane"):
            LaneReport(lane="a").merge(LaneReport(lane="b"))


# -- edge cases ------------------------------------------------------------------------


class TestEdgeCases:
    def test_zero_unit_telemetry_freezes_cleanly(self):
        telemetry = RunTelemetry(backend="serial", total_trials=0)
        telemetry.finish()
        report = telemetry.report([])
        assert report.trials == 0
        assert report.unit_attempts == 0
        assert report.unit_latency(50) == 0.0
        assert report.straggler_ratio() == 0.0
        assert report.trials_per_second() == 0.0
        assert "run summary" in report.render()
        assert report_from_wire(report_to_wire(report)) == report

    def test_empty_unit_list_with_telemetry(self):
        telemetry = RunTelemetry(backend="test")
        assert run_units([], InlineTransport(), telemetry=telemetry) == []
        telemetry.finish()
        assert telemetry.report([]).unit_attempts == 0

    def test_non_finite_report_refuses_to_encode(self):
        with pytest.raises(WireFormatError):
            report_to_wire(RunReport(wall_seconds=float("nan")))
        with pytest.raises(WireFormatError):
            report_to_wire(
                RunReport(
                    lanes=(
                        LaneReport(lane="a", unit_seconds=(math.inf,)),
                    )
                )
            )

    def test_report_from_wire_rejects_malformed(self):
        doc = report_to_wire(RunReport(backend="serial"))
        del doc["lanes"]
        with pytest.raises(WireFormatError, match="malformed"):
            report_from_wire(doc)
        with pytest.raises(WireFormatError):
            report_from_wire({"version": 1, "kind": "result"})

# -- dispatch integration --------------------------------------------------------------


class TestDispatchIntegration:
    def test_run_units_records_every_attempt(self):
        spec = _spec(trials=6)
        units = DispatchPlan(trials=6, unit_size=2).units(spec)
        telemetry = RunTelemetry(backend="test", total_trials=6)
        results = run_units(units, InlineTransport(), telemetry=telemetry)
        telemetry.finish()
        assert results == SerialBackend().run_trials(spec)
        report = telemetry.report(results)
        assert report.unit_attempts == 3
        assert report.retries == 0
        assert report.trials == 6
        assert len(report.unit_seconds) == 3
        # Inline lanes execute in-process, so every unit carries stats.
        (lane,) = report.lanes
        assert lane.lane == "inline"
        assert len(lane.compute_seconds) == 3

    def test_engine_attaches_report(self):
        spec = _spec(trials=4)
        result = Engine("serial").run(spec)
        assert result.report is not None
        assert result.report.backend == "serial"
        assert result.report.trials == 4
        assert result.report.unit_attempts == 4
        assert len(result.report.trial_bits) == 4
        assert result.report.ledger.total_bits == sum(
            t.ledger.total_bits for t in result.trials
        )


# -- non-perturbation, registry-wide ---------------------------------------------------


class TestTelemetryParity:
    def test_registry_parity_with_telemetry_enabled(self):
        """Telemetry watches, never steers: every in-process backend
        stays bit-identical to serial for every declared scenario."""
        for name in scenario_names(declared_only=True):
            runner = get_runner(name)
            spec = ExperimentSpec(
                runner=name,
                n=runner.smoke_n,
                trials=3,
                seed=11,
                params=dict(runner.smoke_params),
            )
            serial = SerialBackend()
            seed = serial.run_trials(spec)
            assert serial.telemetry is not None, name
            assert serial.telemetry.report(seed).trials == 3, name
            for backend in (BatchBackend(), BatchBackend(max_live=2)):
                assert backend.run_trials(spec) == seed, (
                    name, backend.name
                )
                assert backend.telemetry.report(seed).trials == 3, name

    def test_process_pool_parity_with_telemetry(self):
        spec = _spec(trials=6)
        seed = SerialBackend().run_trials(spec)
        backend = ProcessPoolBackend(workers=2, unit_size=2)
        assert backend.run_trials(spec) == seed
        report = backend.telemetry.report(seed)
        assert report.backend == "process"
        assert report.trials == 6
        assert report.unit_attempts == 3


# -- the live monitor ------------------------------------------------------------------


class _TtyBuffer(io.StringIO):
    def isatty(self):
        return True


class TestSweepMonitor:
    def test_non_tty_stream_stays_silent(self):
        stream = io.StringIO()
        monitor = SweepMonitor(stream=stream)
        assert not monitor.enabled
        monitor.update(done=1, total=4, elapsed=0.5, lane_rates={})
        monitor.finish()
        assert stream.getvalue() == ""

    def test_tty_stream_draws_and_finishes(self):
        stream = _TtyBuffer()
        monitor = SweepMonitor(stream=stream, min_interval=0.0)
        monitor.update(
            done=2, total=4, elapsed=1.0, lane_rates={"w1": 2.0}
        )
        monitor.update(done=4, total=4, elapsed=2.0, lane_rates={})
        monitor.finish()
        out = stream.getvalue()
        assert "\r[sweep] 2/4 trials" in out
        assert "w1:2.0/s" in out
        assert "4/4 trials" in out
        assert out.endswith("\n")

    def test_backend_threads_monitor_through_degrade_paths(self):
        stream = _TtyBuffer()
        backend = ProcessPoolBackend(workers=1)  # degrades to serial
        backend.monitor = SweepMonitor(stream=stream, min_interval=0.0)
        backend.run_trials(_spec(trials=3))
        assert "3/3 trials" in stream.getvalue()


# -- the CLI surface -------------------------------------------------------------------


class TestCli:
    def test_telemetry_flag_writes_renderable_artifact(
        self, tmp_path, capsys
    ):
        from repro.cli import main
        from repro.engine.telemetry import load_report

        out = tmp_path / "telemetry.json"
        assert main([
            "run-experiment", "--name", "bracha-broadcast", "-n", "5",
            "--trials", "4", "--telemetry", str(out),
        ]) == 0
        report = load_report(str(out))
        assert report.backend == "serial"
        assert report.trials == 4
        capsys.readouterr()
        assert main(["report", str(out)]) == 0
        rendered = capsys.readouterr().out
        assert "run summary [serial]" in rendered
        assert "protocol bridge" in rendered

    def test_report_rejects_garbage_artifact(self, tmp_path, capsys):
        from repro.cli import main

        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["report", str(bad)]) == 2
        assert "error:" in capsys.readouterr().err
