"""The cost plane: per-trial cost models sized into dispatch.

Pinned here:

* **model values** — every built-in model's (bits, work) prediction at
  n = 8 and 27, at default params and at one non-default set per
  model that reads a param, matches literal values to 1e-12;
* **model fidelity** — for three exactly-deterministic scenarios
  (phase-king, rabin, unreliable-coin-ba) the bits model equals the
  measured BitLedger totals exactly, at two sizes each;
* **coverage** — every built-in scenario's smoke spec is priced, so no
  sweep of one silently falls back to uniform sizes;
* **plan properties** — over random grids and capacities, planned
  units cover every trial exactly once in contiguous slices and merge
  canonically (bit-identical to a bare serial loop);
* **grid parity** — the fused ``run_grid`` path of the process and
  distributed backends equals per-spec serial execution on mixed-n
  grids, cost-sized and at an explicit unit size alike;
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

from repro.analysis.costmodel import cost_model_names, get_cost_model
from repro.engine import (
    DispatchPlan,
    Engine,
    EngineError,
    ExperimentSpec,
    InlineTransport,
    ProcessPoolBackend,
    SerialBackend,
    WorkerServer,
    get_scenario,
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


def _serial(spec):
    return [run_one_trial(spec, i) for i in range(spec.trials)]


# -- model values ----------------------------------------------------------------------

#: (scenario, n, params, predicted bits, predicted work), recorded from
#: the symbolic models these plain functions replaced.
PINNED_PREDICTIONS = [
    ("phase-king", 8, {}, 6174.0, 158.0),
    ("phase-king", 27, {}, 249704.0, 5474.0),
    ("phase-king", 8, {"num_phases": 3}, 9261.0, 237.0),
    ("phase-king", 27, {"num_phases": 3}, 107016.0, 2346.0),
    ("rabin", 8, {}, 8232.0, 216.0),
    ("rabin", 27, {}, 103194.0, 2268.0),
    ("rabin", 8, {"corrupt": 0.2, "max_rounds": 8}, 12622.4, 331.2),
    ("rabin", 27, {"corrupt": 0.2, "max_rounds": 8}, 158230.8, 3477.6),
    ("benor", 8, {}, 10976.0, 288.0),
    ("benor", 27, {}, 137592.0, 3024.0),
    (
        "benor", 8, {"corrupt": 0.2, "max_phases": 16},
        33273.01006803626, 873.0527423099893,
    ),
    ("benor", 27, {"corrupt": 0.2, "max_phases": 16}, 1100736.0, 24192.0),
    ("eig", 8, {}, 128800.0, 2800.0),
    ("eig", 27, {}, 2986825762717056.0, 46669152542454.0),
    ("eig", 8, {"t": 1}, 19264.0, 448.0),
    ("eig", 27, {"t": 1}, 815022.0, 18954.0),
    ("bracha-broadcast", 8, {}, 6973.400000000001, 238.0),
    ("bracha-broadcast", 27, {}, 83798.0, 2860.0),
    ("async-benor", 8, {}, 20720.0, 560.0),
    ("async-benor", 27, {}, 259740.0, 7020.0),
    ("async-benor", 8, {"max_phases": 3}, 12432.0, 336.0),
    ("async-benor", 27, {"max_phases": 3}, 155844.0, 4212.0),
    ("common-coin-ba", 8, {}, 20720.0, 560.0),
    ("common-coin-ba", 27, {}, 259740.0, 7020.0),
    ("common-coin-ba", 8, {"max_phases": 3}, 12432.0, 336.0),
    ("common-coin-ba", 27, {"max_phases": 3}, 155844.0, 4212.0),
    ("unreliable-coin-ba", 8, {}, 2744.0, 72.0),
    ("unreliable-coin-ba", 27, {}, 25137.0, 567.0),
    ("unreliable-coin-ba", 8, {"degree": 6, "num_rounds": 3}, 7056.0, 192.0),
    ("unreliable-coin-ba", 27, {"degree": 6, "num_rounds": 3}, 23814.0, 648.0),
    ("async-sparse-aeba", 8, {}, 60328.799999999996, 1008.0),
    ("async-sparse-aeba", 27, {}, 614061.0, 10260.0),
    ("async-sparse-aeba", 8, {"degree": 20}, 210672.0, 3520.0),
    ("async-sparse-aeba", 27, {"degree": 20}, 711018.0, 11880.0),
    ("vss-coin", 8, {}, 55888.0, 736.0),
    ("vss-coin", 27, {}, 2007720.0, 22491.0),
    ("vss-coin", 8, {"k": 5}, 14080.0, 205.0),
    ("vss-coin", 27, {"k": 5}, 14080.0, 205.0),
    ("cpa", 8, {}, 0.0, 768.0),
    ("cpa", 27, {}, 0.0, 10935.0),
    ("cpa", 8, {"rounds": 4, "degree": 3}, 0.0, 96.0),
    ("cpa", 27, {"rounds": 4, "degree": 3}, 0.0, 324.0),
    ("disc09-ae2e", 8, {}, 4092.3409540259167, 99.81319400063211),
    ("disc09-ae2e", 27, {}, 21890.948464000754, 533.9255722927013),
    ("disc09-ae2e", 8, {"a": 2.5}, 1705.1420641774653, 41.58883083359672),
    ("disc09-ae2e", 27, {"a": 2.5}, 9121.22852666698, 222.46898845529222),
    ("sampler-quality", 8, {}, 0.0, 480000.0),
    ("sampler-quality", 27, {}, 0.0, 480000.0),
    ("sampler-quality", 8, {"r": 10, "s": 20, "inner_trials": 3}, 0.0, 800.0),
    ("sampler-quality", 27, {"r": 10, "s": 20, "inner_trials": 3}, 0.0, 800.0),
    ("everywhere-ba", 8, {}, 33984.0, 1096.258064516129),
    ("everywhere-ba", 27, {}, 365726.6862835551, 11797.635041405003),
]


def test_models_reproduce_pinned_predictions():
    for name, n, params, bits, work in PINNED_PREDICTIONS:
        predicted = get_cost_model(name).predict(n, params)
        case = (name, n, params)
        assert predicted.bits == pytest.approx(bits, rel=1e-12), case
        assert predicted.work == pytest.approx(work, rel=1e-12), case
    assert {row[0] for row in PINNED_PREDICTIONS} == set(cost_model_names())


# -- model fidelity against measured ledgers -------------------------------------------


FIDELITY_CASES = [
    # (scenario, first size, second size)
    ("phase-king", 8, 16),
    ("rabin", 8, 14),
    ("unreliable-coin-ba", 16, 24),
]


@pytest.mark.parametrize("name,n_fit,n_check", FIDELITY_CASES)
def test_bits_model_calibrated_at_one_n_predicts_another(
    name, n_fit, n_check
):
    """These scenarios' traffic does not depend on the seed, and their
    bits models count it exactly: with no fitted constants left, the
    model that matches the measured ledger at one size matches it at a
    different size too (prediction == measured total at both)."""
    model = get_cost_model(name)
    for n in (n_fit, n_check):
        spec = ExperimentSpec(runner=name, n=n, trials=2, seed=5)
        totals = {
            r.ledger.total_bits for r in SerialBackend().run_trials(spec)
        }
        assert len(totals) == 1  # deterministic communication pattern
        assert totals == {model.predict(n).bits}, (name, n)


def test_bits_model_is_exact_for_deterministic_scenarios():
    for name, n, _ in FIDELITY_CASES:
        spec = ExperimentSpec(runner=name, n=n, trials=1, seed=9)
        (result,) = SerialBackend().run_trials(spec)
        predicted = get_cost_model(name).predict(n).bits
        assert predicted == result.ledger.total_bits


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
        # The smoke spec, at its smoke params, is priced: a sweep of
        # this scenario never falls back to uniform sizes.
        runner = get_scenario(name)
        smoke = ExperimentSpec(
            runner=name, n=runner.smoke_n, trials=2,
            params=dict(runner.smoke_params),
        )
        cost = spec_trial_cost(smoke)
        assert isinstance(cost, float) and cost > 0, name


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
    for unit in plan_grid(_mixed_sync_specs(), 3):
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
    """The cost-sized plan and an explicit unit size both merge back to
    the serial results."""
    specs = _mixed_sync_specs()
    expected = [_serial(spec) for spec in specs]
    for unit_size in (None, 2):
        with ProcessPoolBackend(workers=2, unit_size=unit_size) as backend:
            assert backend.run_grid(specs) == expected


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
