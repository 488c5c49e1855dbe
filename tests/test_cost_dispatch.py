"""The cost plane: symbolic per-trial cost models sized into dispatch.

Pinned here:

* **model fidelity** — for three exactly-deterministic scenarios
  (phase-king, rabin, unreliable-coin-ba) the symbolic bits model,
  calibrated against measured BitLedger totals at one n, predicts the
  measured totals at a *different* n within a tight tolerance band;
* **plan properties** — over random grids and capacities, planned
  units cover every trial exactly once in contiguous slices and merge
  canonically (bit-identical to a bare serial loop);
* **grid parity** — the fused ``run_grid`` path of the process and
  distributed backends equals per-spec serial execution on mixed-n
  grids, cost-aware and uniform alike;
* **fallback** — an unpriceable spec anywhere in a grid degrades the
  whole plan to uniform geometry (no predicted costs stamped);
* **wire tolerance** — ``predicted_cost`` round-trips on unit and
  report documents and is optional on old documents;
* **fleet sizing** — the coordinator persists the same rule's unit
  sizes into pending job envelopes (resume-safe), never into running
  ones.
"""

import random

import pytest

from repro.analysis.costmodel import (
    CostSample,
    calibrate,
    cost_model_names,
    get_cost_model,
)
from repro.engine import (
    DispatchPlan,
    Engine,
    EngineError,
    ExperimentSpec,
    InlineTransport,
    ProcessPoolBackend,
    SerialBackend,
    WorkerServer,
    plan_grid,
    plan_specs,
    report_from_wire,
    report_to_wire,
    run_units,
    spec_trial_cost,
)
from repro.engine.dispatch import (
    run_one_trial,
    unit_from_wire,
    unit_to_wire,
)
from repro.engine.distributed import DistributedBackend
from repro.engine.telemetry import RunTelemetry

pytestmark = pytest.mark.skipif(
    get_cost_model("phase-king") is None,
    reason="cost models need sympy",
)


def _serial(spec):
    return [run_one_trial(spec, i) for i in range(spec.trials)]


# -- model fidelity against measured ledgers -------------------------------------------


FIDELITY_CASES = [
    # (scenario, calibrate-at n, predict-at n)
    ("phase-king", 8, 16),
    ("rabin", 8, 14),
    ("unreliable-coin-ba", 16, 24),
]


@pytest.mark.parametrize("name,n_fit,n_check", FIDELITY_CASES)
def test_bits_model_calibrated_at_one_n_predicts_another(
    name, n_fit, n_check
):
    """The acceptance-criterion fidelity band: fit constants from
    measured BitLedger snapshots at one size, predict a different size
    within 5% (these scenarios are exactly deterministic, so the model
    should in fact be exact)."""
    model = get_cost_model(name)
    measured = {}
    for n in (n_fit, n_check):
        spec = ExperimentSpec(runner=name, n=n, trials=2, seed=5)
        results = SerialBackend().run_trials(spec)
        totals = {r.ledger.total_bits for r in results}
        assert len(totals) == 1  # deterministic communication pattern
        measured[n] = totals.pop()
    fitted = calibrate(
        model, [CostSample(n=n_fit, bits=measured[n_fit])]
    )
    predicted = fitted.predict(n_check).bits
    assert predicted == pytest.approx(measured[n_check], rel=0.05)


def test_bits_model_is_exact_for_deterministic_scenarios():
    for name, n, _ in FIDELITY_CASES:
        spec = ExperimentSpec(runner=name, n=n, trials=1, seed=9)
        (result,) = SerialBackend().run_trials(spec)
        predicted = get_cost_model(name).predict(n).bits
        assert predicted == result.ledger.total_bits


def test_calibrate_recovers_a_known_scale_factor():
    model = get_cost_model("phase-king")
    samples = [
        CostSample(n=n, bits=2.5 * model.predict(n).bits)
        for n in (8, 12, 16)
    ]
    fitted = calibrate(model, samples)
    assert fitted.bits_scale == pytest.approx(2.5 * model.bits_scale)
    # The seconds axis fits the work scale independently.
    timed = calibrate(
        model,
        [CostSample(n=8, seconds=3e-6 * model.predict(8).work)],
    )
    assert timed.work_scale == pytest.approx(3e-6 * model.work_scale)
    assert timed.bits_scale == model.bits_scale  # untouched axis


def test_every_builtin_scenario_has_a_cost_model():
    from repro.engine import scenario_names

    # Pinned explicitly: other test modules register throwaway
    # scenarios into the shared registry, so compare against the
    # shipped set, not whatever scenario_names() has accumulated.
    builtin = {
        "everywhere-ba",
        "unreliable-coin-ba",
        "vss-coin",
        "sampler-quality",
        "benor",
        "eig",
        "phase-king",
        "rabin",
        "cpa",
        "disc09-ae2e",
        "async-benor",
        "common-coin-ba",
        "bracha-broadcast",
        "async-sparse-aeba",
    }
    assert builtin <= set(scenario_names())
    assert set(cost_model_names()) == builtin
    for name in builtin:
        model = get_cost_model(name)
        predicted = model.predict(16)
        assert predicted.bits >= 0
        assert predicted.work > 0


def test_ignored_params_names_what_the_model_does_not_price():
    model = get_cost_model("phase-king")
    assert "corrupt" in model.ignored_params(
        ("corrupt", "num_phases")
    )
    assert "num_phases" not in model.ignored_params(
        ("corrupt", "num_phases")
    )


# -- plan properties over random grids -------------------------------------------------


def _random_grid(rng):
    return [
        ExperimentSpec(
            runner=rng.choice(["phase-king", "rabin", "bracha-broadcast"]),
            n=rng.randint(4, 20),
            trials=rng.randint(1, 60),
            seed=rng.randint(0, 9),
        )
        for _ in range(rng.randint(1, 4))
    ]


def test_cost_plans_partition_random_grids_exactly_once():
    rng = random.Random(20260808)
    for _ in range(40):
        specs = list(dict.fromkeys(_random_grid(rng)))
        units = plan_grid(
            specs,
            capacity=rng.randint(1, 12),
            unit_size=rng.choice([None, None, rng.randint(1, 9)]),
            cost_aware=rng.random() < 0.7,
        )
        for spec in specs:
            groups = [list(u.indices) for u in units if u.spec == spec]
            flat = sorted(i for group in groups for i in group)
            assert flat == list(range(spec.trials))
            for group in groups:  # contiguous slices
                assert group == list(range(group[0], group[-1] + 1))


def test_cost_weighted_units_merge_canonically():
    """A cost-sized grid submitted heaviest-first merges back to the
    exact serial results, grouped per spec (unit order never leaks)."""
    specs = _mixed_sync_specs()
    units = plan_grid(specs, capacity=3)
    assert [u.spec for u in units][0] != specs[0]  # reordered by cost
    order = list(dict.fromkeys(u.spec for u in units))
    results = run_units(units, InlineTransport())
    assert results == [r for spec in order for r in _serial(spec)]
    for unit in units:
        assert unit.predicted_cost == pytest.approx(
            spec_trial_cost(unit.spec) * len(unit.indices)
        )


def test_uniform_costs_degenerate_to_contiguous_chunks():
    for cost_aware in (True, False):
        for unit in plan_grid(_mixed_sync_specs(), 3, cost_aware=cost_aware):
            group = list(unit.indices)
            assert group == list(range(group[0], group[-1] + 1))


# -- grid planning and backend parity --------------------------------------------------


def _mixed_sync_specs():
    return [
        ExperimentSpec(runner="phase-king", n=6, trials=7, seed=3),
        ExperimentSpec(runner="phase-king", n=12, trials=3, seed=3),
        ExperimentSpec(runner="rabin", n=8, trials=5, seed=1),
    ]


def test_plan_grid_equalises_predicted_unit_cost():
    specs = _mixed_sync_specs()
    units = plan_grid(specs, capacity=2)
    assert sorted(
        i for u in units if u.spec == specs[0] for i in u.indices
    ) == list(range(specs[0].trials))
    costs = [u.predicted_cost for u in units]
    assert all(c is not None and c > 0 for c in costs)
    # Heaviest-first submit order (LPT across lanes).
    assert costs == sorted(costs, reverse=True)


def test_plan_grid_falls_back_to_uniform_when_any_spec_is_unpriceable():
    from repro.engine import Scenario, TrialResult, register

    def _noop(ctx):
        return TrialResult(
            trial_index=ctx.trial_index, seed=ctx.seed,
            metrics=(("one", 1.0),),
        )

    register(
        Scenario(
            name="cost-test-unpriced",
            run_trial=_noop,
            description="cost tests: a scenario with no cost model",
        )
    )
    specs = _mixed_sync_specs() + [
        ExperimentSpec(runner="cost-test-unpriced", n=1, trials=4)
    ]
    assert spec_trial_cost(specs[-1]) is None
    units = plan_grid(specs, capacity=2)
    assert all(u.predicted_cost is None for u in units)
    # Coverage still exact per spec.
    for spec in specs:
        assert sorted(
            i for u in units if u.spec == spec for i in u.indices
        ) == list(range(spec.trials))


def test_run_units_checks_per_spec_coverage():
    spec = ExperimentSpec(runner="phase-king", n=6, trials=4, seed=3)
    other = ExperimentSpec(runner="rabin", n=8, trials=2, seed=1)
    units = DispatchPlan(trials=spec.trials, unit_size=2).units(spec)
    others = DispatchPlan(trials=other.trials, unit_size=1).units(other)
    assert run_units(units + others, InlineTransport()) == (
        _serial(spec) + _serial(other)
    )
    with pytest.raises(EngineError, match="exactly once"):
        run_units(units + [units[0]] + others, InlineTransport())


def test_process_grid_parity_cost_aware_and_uniform():
    specs = _mixed_sync_specs()
    expected = [_serial(spec) for spec in specs]
    for aware in (True, False):
        with ProcessPoolBackend(workers=2) as backend:
            assert backend.run_grid(specs, cost_aware=aware) == expected


def test_process_grid_duplicate_specs_share_results():
    specs = _mixed_sync_specs()
    doubled = [specs[0], specs[1], specs[0]]
    with ProcessPoolBackend(workers=2) as backend:
        results = backend.run_grid(doubled)
    assert results[0] == results[2] == _serial(specs[0])
    assert results[1] == _serial(specs[1])


def test_process_grid_parity_on_mixed_n_async_specs():
    specs = [
        ExperimentSpec(runner="bracha-broadcast", n=4, trials=6, seed=5),
        ExperimentSpec(runner="bracha-broadcast", n=7, trials=3, seed=5),
    ]
    expected = [_serial(spec) for spec in specs]
    with ProcessPoolBackend(workers=2) as backend:
        assert backend.run_grid(specs) == expected


def test_distributed_grid_parity_mixed_modes():
    """One fused grid mixing a sync and an async scenario over real
    loopback workers equals serial, bit for bit."""
    specs = [
        ExperimentSpec(runner="phase-king", n=6, trials=6, seed=3),
        ExperimentSpec(runner="bracha-broadcast", n=5, trials=4, seed=3),
    ]
    expected = [_serial(spec) for spec in specs]
    servers = [WorkerServer().start(), WorkerServer().start()]
    try:
        with DistributedBackend(
            [s.address for s in servers]
        ) as backend:
            assert backend.run_grid(specs) == expected
    finally:
        for server in servers:
            server.close()


def test_engine_run_grid_wraps_results_per_spec():
    specs = _mixed_sync_specs()
    results = Engine("serial").run_grid(specs)
    assert [r.spec for r in results] == specs
    for spec, result in zip(specs, results):
        assert result.trials == _serial(spec)
        assert result.backend == "serial"


def test_cost_sized_unit_size_clamps_to_the_trial_range():
    cheap = ExperimentSpec(runner="phase-king", n=6, trials=10, seed=0)
    costly = ExperimentSpec(runner="phase-king", n=24, trials=2, seed=0)
    assert 0 < spec_trial_cost(cheap) < spec_trial_cost(costly)
    # Next to a costly spec, the cheap one's size clamps up to its
    # trials and the costly one's down to 1.
    sizes = [p.unit_size for p in plan_specs([cheap, costly], 2)]
    assert sizes == [cheap.trials, 1]
    # Alone on one lane: ~4 units, sized against its own cost.
    assert plan_specs([cheap], 1)[0].unit_size == 2  # round(10 / 4)
    # An explicit size is honoured exactly, priced or not.
    assert [p.unit_size for p in plan_specs([cheap, costly], 2, 3)] == [3, 3]


# -- wire tolerance --------------------------------------------------------------------


def test_unit_wire_roundtrips_predicted_cost_and_tolerates_old_docs():
    spec = ExperimentSpec(runner="phase-king", n=6, trials=4, seed=3)
    (unit,) = DispatchPlan(
        trials=spec.trials, unit_size=4, trial_cost=2.0
    ).units(spec)
    assert unit.predicted_cost == pytest.approx(8.0)
    doc = unit_to_wire(unit)
    assert unit_from_wire(doc).predicted_cost == pytest.approx(8.0)
    del doc["predicted_cost"]  # a document from before the cost plane
    old = unit_from_wire(doc)
    assert old.predicted_cost is None
    assert old == unit  # advisory field: excluded from equality


def test_report_wire_roundtrips_lane_predicted_costs():
    spec = ExperimentSpec(runner="phase-king", n=6, trials=4, seed=3)
    plan = DispatchPlan(trials=spec.trials, unit_size=2, trial_cost=5.0)
    telemetry = RunTelemetry(backend="test", total_trials=spec.trials)
    results = run_units(
        plan.units(spec), InlineTransport(), telemetry=telemetry
    )
    telemetry.finish()
    report = telemetry.report(results)
    assert any(lane.predicted_costs for lane in report.lanes)
    doc = report_to_wire(report)
    decoded = report_from_wire(doc)
    assert [
        lane.predicted_costs for lane in decoded.lanes
    ] == [lane.predicted_costs for lane in report.lanes]
    for lane_doc in doc["lanes"]:
        lane_doc.pop("predicted_costs", None)  # pre-cost-plane report
    old = report_from_wire(doc)
    assert all(lane.predicted_costs == () for lane in old.lanes)


def test_lane_cost_skew_is_one_when_model_matches_clock():
    from repro.engine.telemetry import LaneReport

    lane = LaneReport(
        lane="w0",
        unit_seconds=(1.0, 2.0),
        compute_seconds=(1.0, 2.0),
        predicted_costs=(10.0, 20.0),
    )
    # Run-wide rate of 0.1 s per cost unit -> this lane is dead on.
    assert lane.cost_skew(0.1) == pytest.approx(1.0)
    empty = LaneReport(lane="w1", unit_seconds=(1.0,))
    assert empty.cost_skew(0.1) is None


# -- fleet sizing ----------------------------------------------------------------------


def test_queue_set_unit_size_only_on_pending_jobs(tmp_path):
    from repro.fleet import JobQueue

    queue = JobQueue(str(tmp_path))
    spec = ExperimentSpec(runner="phase-king", n=6, trials=8, seed=0)
    job = queue.submit(spec)
    assert queue.set_unit_size(job.job_id, 3).unit_size == 3
    assert queue.get(job.job_id).unit_size == 3  # persisted
    queue.transition(job.job_id, "running")
    with pytest.raises(EngineError, match="only pending"):
        queue.set_unit_size(job.job_id, 2)
    with pytest.raises(EngineError, match=">= 1"):
        queue.set_unit_size(job.job_id, 0)


def test_coordinator_persists_cost_sizes_before_dispatch(tmp_path):
    from repro.fleet import JobQueue
    from repro.fleet.coordinator import Coordinator

    queue = JobQueue(str(tmp_path))
    cheap = queue.submit(
        ExperimentSpec(runner="phase-king", n=6, trials=24, seed=0)
    )
    costly = queue.submit(
        ExperimentSpec(runner="phase-king", n=24, trials=6, seed=0)
    )
    pinned = queue.submit(
        ExperimentSpec(runner="phase-king", n=24, trials=6, seed=0),
        unit_size=5,
    )
    coordinator = Coordinator(str(tmp_path))
    sized = coordinator.size_pending(
        queue.by_state("pending"), [("localhost", 7045, 2)]
    )
    by_id = {job.job_id: job for job in sized}
    assert by_id[cheap.job_id].unit_size is not None
    assert by_id[costly.job_id].unit_size is not None
    # Cheaper trials pack into bigger units than costly ones.
    assert (
        by_id[cheap.job_id].unit_size > by_id[costly.job_id].unit_size
    )
    # The sizes are durable: a resumed coordinator re-reads the same
    # geometry from the envelopes.
    assert queue.get(cheap.job_id).unit_size == by_id[cheap.job_id].unit_size
    # An explicit unit size is never overridden.
    assert by_id[pinned.job_id].unit_size == 5
