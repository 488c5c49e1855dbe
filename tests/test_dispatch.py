"""Tests for the transport-agnostic dispatch plane.

The dispatch plane's contract, pinned piece by piece:

* **DispatchPlan** is the single home of shard geometry — contiguous
  slices covering each trial exactly once, sized by one rule
  (:func:`~repro.engine.costplan.plan_specs`) for every backend.
* **run_unit** is the one spawn-safe worker entry: every unit
  reproduces the serial path, trial for trial, sync and async
  scenarios alike.
* **run_units** (the collect loop) keeps lanes fed, retries failed
  units on other lanes with the failing lane excluded, raises instead
  of returning partial results, and merges in canonical trial order —
  scripted through a fake transport so every branch is deterministic.
"""

import pytest

from repro.engine import (
    DispatchError,
    DispatchPlan,
    EngineError,
    Envelope,
    ExperimentSpec,
    InlineTransport,
    SerialBackend,
    Transport,
    WorkUnit,
    run_unit,
    run_unit_timed,
    run_units,
)
from repro.engine.dispatch import unit_from_wire, unit_to_wire
from repro.engine.telemetry import RunTelemetry


def _spec(runner="vss-coin", n=7, trials=4, seed=5, **params):
    return ExperimentSpec(
        runner=runner, n=n, trials=trials, seed=seed, params=params
    )


# -- plan geometry ---------------------------------------------------------------------


def test_plan_validation():
    with pytest.raises(EngineError, match="trial"):
        DispatchPlan(trials=0, unit_size=1)
    with pytest.raises(EngineError, match="unit_size"):
        DispatchPlan(trials=4, unit_size=0)


def test_plan_slices_trials_contiguously():
    assert DispatchPlan(trials=7, unit_size=3).indices() == [
        [0, 1, 2], [3, 4, 5], [6]
    ]
    for trials in (1, 2, 7, 24, 25, 100):
        for size in (1, 3, 7, 200):
            plan = DispatchPlan(trials=trials, unit_size=size)
            flat = [i for unit in plan.indices() for i in unit]
            assert flat == list(range(trials)), (trials, size)


def test_unit_sizes_follow_one_rule_for_every_mode():
    """Async and sync scenarios size alike: ~4 units per worker
    (rounded, at least 1), or exactly the explicit size."""
    from repro.engine.costplan import plan_specs

    waves = _spec(runner="bracha-broadcast", n=5, trials=25)
    trials = _spec(trials=64)
    wave_plan, trial_plan = plan_specs([waves], 3) + plan_specs([trials], 2)
    assert wave_plan.unit_size == 2  # round(25 / 12)
    assert trial_plan.unit_size == 8  # round(64 / 8)
    assert plan_specs([_spec(trials=1)], 3)[0].unit_size == 1
    (explicit,) = plan_specs([waves], 2, unit_size=4)
    assert explicit.indices()[-1] == [24]
    assert explicit.unit_size == 4


def test_legacy_geometry_helpers_are_gone():
    """The PR-3 aliases (deprecated in PR 6) are removed: geometry is
    DispatchPlan, pool lifecycle is PoolTransport.create_pool."""
    import repro.engine
    import repro.engine.backends

    for module in (repro.engine, repro.engine.backends):
        assert not hasattr(module, "chunk_indices")
        assert not hasattr(module, "make_pool")
        assert "chunk_indices" not in module.__all__
        assert "make_pool" not in module.__all__


def test_capacity_weights_scale_effective_workers():
    """``weights=`` replaces the worker count with total capacity, so a
    weight-3 host shards like three workers."""
    from repro.engine import total_capacity

    assert total_capacity([1, 1, 1]) == 3
    assert total_capacity([3, 1]) == 4
    with pytest.raises(EngineError, match=">= 1"):
        total_capacity([1, 0])
    with pytest.raises(EngineError, match="integer"):
        total_capacity([1.5])
    with pytest.raises(EngineError, match="integer"):
        total_capacity([True])
    with pytest.raises(EngineError, match="at least one"):
        total_capacity([])
    # Weighted capacity sizes units like the equivalent worker count.
    from repro.engine import ProcessPoolBackend
    from repro.engine.costplan import plan_specs

    spec = _spec(trials=64)
    assert (
        plan_specs([spec], total_capacity([3, 1]))[0].unit_size
        == ProcessPoolBackend(workers=4).plan(spec).unit_size
    )


def test_units_carry_spec_and_reject_mismatched_trials():
    spec = _spec(trials=5)
    plan = DispatchPlan(trials=5, unit_size=2)
    units = plan.units(spec)
    assert [u.indices for u in units] == [(0, 1), (2, 3), (4,)]
    assert all(u.spec == spec for u in units)
    with pytest.raises(EngineError, match="plan covers"):
        plan.units(_spec(trials=6))


# -- run_unit, the unified worker entry ------------------------------------------------


@pytest.mark.parametrize(
    "spec",
    [
        _spec(trials=5),
        _spec(runner="bracha-broadcast", n=5, trials=5, seed=3),
    ],
    ids=["sync", "async"],
)
def test_run_unit_matches_serial_slice(spec):
    serial = SerialBackend().run_trials(spec)
    unit = WorkUnit(spec=spec, indices=(1, 3))
    assert run_unit(unit) == [serial[1], serial[3]]
    results, stats = run_unit_timed(unit)
    assert results == [serial[1], serial[3]]
    assert len(stats.trial_seconds) == 2


def test_work_unit_wire_round_trip():
    spec = _spec(runner="bracha-broadcast", n=5, trials=6, seed=3)
    unit = WorkUnit(spec=spec, indices=(0, 2), predicted_cost=1.5)
    decoded = unit_from_wire(unit_to_wire(unit))
    assert decoded == unit and decoded.predicted_cost == 1.5
    plain = WorkUnit(spec=_spec(), indices=(1,))
    assert unit_from_wire(unit_to_wire(plain)) == plain


# -- the collect loop, scripted --------------------------------------------------------


class ScriptedTransport(Transport):
    """Scriptable lanes: chosen (unit, lane) pairs fail, the rest run.

    ``fail`` maps ``(unit_id, lane)`` to an error string; a submitted
    unit matching an entry yields a failure envelope and kills that
    lane (what a dead worker host looks like), so retry/exclusion paths
    are exercised deterministically and in-process.
    """

    name = "scripted"

    def __init__(self, units, fail=None, lanes=("lane-a", "lane-b")):
        self._units = units
        self._lane_ids = list(lanes)
        self._busy = {lane: None for lane in self._lane_ids}
        self._dead = set()
        self.fail = dict(fail or {})
        self.submissions = []  # (unit_id, lane) in submission order

    def lanes(self):
        return tuple(
            lane for lane in self._lane_ids if lane not in self._dead
        )

    def try_submit(self, unit_id, unit, exclude=frozenset()):
        for lane in self._lane_ids:
            if lane in self._dead or lane in exclude:
                continue
            if self._busy[lane] is None:
                self._busy[lane] = (unit_id, unit)
                self.submissions.append((unit_id, lane))
                return True
        return False

    def collect(self):
        for lane in self._lane_ids:
            if self._busy[lane] is not None:
                unit_id, unit = self._busy[lane]
                self._busy[lane] = None
                key = (unit_id, lane)
                if key in self.fail:
                    # A failing lane is a dead lane, like a killed host.
                    self._dead.add(lane)
                    return Envelope(
                        unit_id=unit_id, lane=lane, error=self.fail[key]
                    )
                return Envelope(
                    unit_id=unit_id,
                    lane=lane,
                    results=tuple(run_unit(unit)),
                )
        raise AssertionError("collect() with nothing in flight")


class WindowedTransport(Transport):
    """Lanes with a window of ``depth`` units that finish oldest first.

    Logs every offer and collect as ``("submit", unit_id, lane)``,
    ``("decline", unit_id, None)`` and ``("collect", unit_id, lane)``.
    ``fail`` maps ``(unit_id, lane)`` to an error reply; the lane
    survives it, as a worker that answers ``error`` does.
    """

    name = "windowed"

    def __init__(self, depth, fail=None, lanes=("lane-a", "lane-b")):
        self._lane_ids = list(lanes)
        self._depth = depth
        self._inflight = []  # (unit_id, unit, lane), oldest first
        self.fail = dict(fail or {})
        self.events = []

    @property
    def offers(self):
        return sum(1 for kind, _, _ in self.events if kind != "collect")

    def lanes(self):
        return tuple(self._lane_ids)

    def try_submit(self, unit_id, unit, exclude=frozenset()):
        for lane in self._lane_ids:
            busy = sum(1 for _, _, held in self._inflight if held == lane)
            if lane not in exclude and busy < self._depth:
                self._inflight.append((unit_id, unit, lane))
                self.events.append(("submit", unit_id, lane))
                return True
        self.events.append(("decline", unit_id, None))
        return False

    def collect(self):
        unit_id, unit, lane = self._inflight.pop(0)
        self.events.append(("collect", unit_id, lane))
        if (unit_id, lane) in self.fail:
            return Envelope(
                unit_id=unit_id, lane=lane, error=self.fail[unit_id, lane]
            )
        return Envelope(
            unit_id=unit_id, lane=lane, results=tuple(run_unit(unit))
        )


def test_run_units_offers_about_once_per_free_slot():
    """250 one-trial units behind two depth-2 lanes: a pass ends at the
    first unit declined with no lane excluded, so the sweep makes about
    one offer per freed slot instead of re-offering the whole queue
    after every collect (30,631 offers)."""
    spec = _spec(runner="phase-king", n=8, trials=250, inputs="split")
    units = DispatchPlan(trials=250, unit_size=1).units(spec)
    transport = WindowedTransport(depth=2)
    telemetry = RunTelemetry()
    results = run_units(units, transport, telemetry=telemetry)
    assert results == SerialBackend().run_trials(spec)
    assert transport.offers <= 2 * len(units)
    assert sorted(r.unit_id for r in telemetry.records) == list(range(250))
    assert all(r.ok and r.attempt == 1 for r in telemetry.records)


def test_declined_retry_does_not_end_the_pass():
    """Unit 0 failed on lane-a and unit 1 on lane-b.  When lane-a frees
    up, retry 0 at the head of the queue is declined (lane-a is
    excluded, lane-b is full), and retry 1 behind it takes lane-a
    before the next collect."""
    spec = _spec(trials=4)
    units = DispatchPlan(trials=4, unit_size=1).units(spec)
    transport = WindowedTransport(
        depth=1,
        fail={(0, "lane-a"): "error reply", (1, "lane-b"): "error reply"},
    )
    assert run_units(units, transport) == SerialBackend().run_trials(spec)
    events = transport.events
    freed = events.index(("collect", 2, "lane-a"))
    assert events[freed + 1 : freed + 4] == [
        ("decline", 0, None),
        ("submit", 1, "lane-a"),
        ("collect", 3, "lane-b"),
    ]
    assert ("submit", 0, "lane-b") in events[freed:]


def test_run_units_inline_matches_serial():
    spec = _spec(trials=6)
    units = DispatchPlan(trials=6, unit_size=2).units(spec)
    assert run_units(units, InlineTransport()) == (
        SerialBackend().run_trials(spec)
    )
    assert run_units([], InlineTransport()) == []


def test_run_units_retries_on_surviving_lane_with_exclusion():
    """A lane that kills a unit is excluded from the retry; the sweep
    completes on the survivor, bit-identical to serial."""
    spec = _spec(trials=6)
    units = DispatchPlan(trials=6, unit_size=2).units(spec)
    transport = ScriptedTransport(
        units, fail={(0, "lane-a"): "worker killed"}
    )
    assert run_units(units, transport) == SerialBackend().run_trials(spec)
    # Unit 0 went to lane-a first, then was retried — on lane-b only.
    retries = [lane for uid, lane in transport.submissions if uid == 0]
    assert retries[0] == "lane-a"
    assert all(lane == "lane-b" for lane in retries[1:])
    assert len(retries) >= 2


def test_run_units_raises_when_every_lane_fails_a_unit():
    spec = _spec(trials=4)
    units = DispatchPlan(trials=4, unit_size=2).units(spec)
    transport = ScriptedTransport(
        units,
        fail={(0, "lane-a"): "killed", (0, "lane-b"): "killed again"},
    )
    with pytest.raises(DispatchError, match="every dispatch lane is dead|every live lane"):
        run_units(units, transport)


def test_run_units_respects_max_attempts():
    spec = _spec(trials=2)
    units = DispatchPlan(trials=2, unit_size=1).units(spec)
    transport = ScriptedTransport(
        units, fail={(0, "lane-a"): "flaky"}, lanes=("lane-a",)
    )
    with pytest.raises(DispatchError, match="failed 1 time"):
        run_units(units, transport, max_attempts=1)


def test_run_units_rejects_wrong_trial_coverage():
    """A worker returning the wrong trials is an error, never a silent
    hole in the sweep."""
    spec = _spec(trials=4)
    units = DispatchPlan(trials=4, unit_size=2).units(spec)
    serial = SerialBackend().run_trials(spec)

    class LyingTransport(InlineTransport):
        def try_submit(self, unit_id, unit, exclude=frozenset()):
            # Every unit answers with trial 0's result only.
            self._ready.append(
                Envelope(
                    unit_id=unit_id,
                    lane="inline",
                    results=(serial[0],),
                )
            )
            return True

    with pytest.raises(DispatchError, match="exactly"):
        run_units(units, LyingTransport())


def test_inline_transport_contains_unit_crash_as_envelope():
    bad_unit = WorkUnit(
        spec=_spec(runner="vss-coin", trials=2),
        indices=(0, 5),  # index 5 is outside the spec -> run_unit raises
    )
    transport = InlineTransport()
    assert transport.try_submit(0, bad_unit)
    envelope = transport.collect()
    assert not envelope.ok
    assert "outside" in envelope.error
    with pytest.raises(DispatchError, match="failed"):
        run_units([bad_unit], InlineTransport())
