"""Tests for the hybrid backend and the spawn-safe worker path.

The hybrid backend's contract: shard waves of asynchronous trials
across pool workers, each worker rebuilding the scenario *by name* and
driving a local async step loop, with results merged in canonical trial
order — bit-identical to serial, whatever the wave geometry, worker
count, or ``multiprocessing`` start method.

The spawn regression tests are the teeth behind the "resolve by name in
the worker" rule: a ``spawn`` worker inherits nothing from the parent
(no forked registry, no closures), so these passing proves that specs
really do cross the process boundary as plain data.  Ad-hoc scenarios
registered at runtime remain fork-only by design, so every spec here
names a built-in.
"""

import multiprocessing

import pytest

from repro.engine import (
    AsyncBackend,
    Engine,
    EngineError,
    ExperimentSpec,
    HybridBackend,
    ProcessPoolBackend,
    SerialBackend,
    get_backend,
    run_wave,
)
from repro.engine.engine import BACKEND_NAMES


def _bracha_spec(trials: int = 6, seed: int = 3) -> ExperimentSpec:
    return ExperimentSpec(
        runner="bracha-broadcast", n=5, trials=trials, seed=seed
    )


# -- wave geometry (lives in DispatchPlan; backends expose it via .plan()) -------------


def test_waves_cover_every_trial_exactly_once():
    for unit_size in (None, 1, 2, 3, 5, 100):
        backend = HybridBackend(workers=3, unit_size=unit_size)
        for trials in (1, 2, 7, 24, 25):
            spec = _bracha_spec(trials=trials)
            flat = [
                i for wave in backend.plan(spec).indices() for i in wave
            ]
            assert flat == list(range(trials)), (unit_size, trials)


def test_geometry_lives_in_dispatch_plan():
    from repro.engine import DispatchPlan
    from repro.engine.dispatch import MODE_TRIALS, MODE_WAVE

    assert DispatchPlan(trials=7, unit_size=3).indices() == [
        [0, 1, 2], [3, 4, 5], [6]
    ]
    # Both pool backends shard through the same plan type; the mode
    # follows the scenario, not the backend.
    sync_spec = ExperimentSpec(runner="vss-coin", n=7, trials=7)
    process_plan = ProcessPoolBackend(workers=2, unit_size=3).plan(sync_spec)
    assert process_plan.indices() == DispatchPlan(7, 3).indices()
    assert process_plan.mode == MODE_TRIALS
    hybrid_plan = HybridBackend(workers=2, unit_size=3).plan(_bracha_spec(7))
    assert hybrid_plan.indices() == DispatchPlan(7, 3).indices()
    assert hybrid_plan.mode == MODE_WAVE


def test_hybrid_constructor_validation():
    with pytest.raises(EngineError, match="worker"):
        HybridBackend(workers=-1)
    with pytest.raises(EngineError, match="unit_size"):
        HybridBackend(unit_size=0)
    with pytest.raises(EngineError, match="max_live"):
        HybridBackend(max_live=0)


# -- parity and degradation -----------------------------------------------------------


def test_single_worker_hybrid_degrades_to_in_process_async():
    spec = _bracha_spec()
    assert (
        HybridBackend(workers=1).run_trials(spec)
        == AsyncBackend().run_trials(spec)
        == SerialBackend().run_trials(spec)
    )


def test_hybrid_single_trial_skips_the_pool():
    spec = _bracha_spec(trials=1)
    assert (
        HybridBackend(workers=4).run_trials(spec)
        == SerialBackend().run_trials(spec)
    )


def test_hybrid_through_engine_and_get_backend():
    assert "hybrid" in BACKEND_NAMES
    backend = get_backend("hybrid", workers=2, unit_size=3)
    assert isinstance(backend, HybridBackend)
    assert backend.unit_size == 3
    spec = _bracha_spec(trials=4)
    result = Engine(backend).run(spec)
    assert result.backend == "hybrid"
    assert list(result.trials) == SerialBackend().run_trials(spec)


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="ad-hoc scenarios only cross a fork boundary",
)
def test_hybrid_contains_builder_crashes_per_trial():
    """A raising async builder becomes a failed TrialResult inside the
    worker's wave — the sweep survives, identically to serial.  (Uses a
    fork pool: ad-hoc registrations don't cross a spawn boundary.)"""
    from repro.engine import Scenario, get_scenario, register

    def _fragile(ctx):
        if ctx.trial_index == 2:
            raise RuntimeError(f"bad wave build in trial {ctx.trial_index}")
        return get_scenario("bracha-broadcast").build_async_instance(ctx)

    register(
        Scenario(
            name="test-fragile-wave-bracha",
            build_async_instance=_fragile,
            description="test-only: one trial's async builder raises",
        )
    )
    spec = ExperimentSpec(
        runner="test-fragile-wave-bracha", n=5, trials=4, seed=2
    )
    serial = SerialBackend().run_trials(spec)
    sharded = HybridBackend(
        workers=2, unit_size=2, start_method="fork"
    ).run_trials(spec)
    assert serial == sharded
    assert [t.ok for t in sharded] == [True, True, False, True]
    assert "bad wave build in trial 2" in sharded[2].failure


# -- run_wave, the worker entry point -------------------------------------------------


def test_run_wave_matches_the_serial_slice():
    spec = _bracha_spec(trials=6)
    serial = SerialBackend().run_trials(spec)
    wave = run_wave(spec, [4, 1, 3])  # arbitrary order in
    assert wave == [serial[1], serial[3], serial[4]]  # index order out
    assert run_wave(spec, []) == []


def test_run_wave_honours_max_live():
    spec = _bracha_spec(trials=5)
    serial = SerialBackend().run_trials(spec)
    assert run_wave(spec, range(5), max_live=2) == serial


def test_run_wave_rejects_non_async_scenarios():
    spec = ExperimentSpec(runner="vss-coin", n=7, trials=2, seed=1)
    with pytest.raises(EngineError, match="async"):
        run_wave(spec, [0])


# -- spawn start method: the worker-rebuild regression --------------------------------


def test_process_pool_spawn_bit_identical_to_serial():
    spec = ExperimentSpec(runner="vss-coin", n=7, trials=3, seed=5)
    serial = SerialBackend().run_trials(spec)
    spawned = ProcessPoolBackend(
        workers=2, unit_size=2, start_method="spawn"
    ).run_trials(spec)
    assert spawned == serial


def test_hybrid_spawn_bit_identical_to_serial():
    spec = _bracha_spec(trials=6, seed=9)
    serial = SerialBackend().run_trials(spec)
    spawned = HybridBackend(
        workers=2, unit_size=2, start_method="spawn"
    ).run_trials(spec)
    assert spawned == serial


# -- per-process scenario resolution memo ---------------------------------------------


def test_worker_scenario_resolution_memoised(monkeypatch):
    """Waves resolve the scenario by name exactly once per process.

    ``run_wave`` is what a pool worker executes per wave; resolution
    must go through the per-process memo so repeated waves of the same
    spec skip the registry lookup (and its lazy-builtins guard).
    """
    from repro.engine import registry

    registry._RESOLVED.pop("bracha-broadcast", None)
    lookups = []
    real_get_runner = registry.get_runner

    def counting_get_runner(name):
        lookups.append(name)
        return real_get_runner(name)

    monkeypatch.setattr(registry, "get_runner", counting_get_runner)
    spec = _bracha_spec(trials=6)
    serial = SerialBackend().run_trials(spec)
    first = run_wave(spec, [0, 1])
    second = run_wave(spec, [2, 3])
    assert first + second == serial[:4]
    assert lookups.count("bracha-broadcast") == 1


def test_resolution_memo_invalidated_by_reregistration():
    """Latest registration wins even through the memo."""
    from repro.engine import Scenario, registry
    from repro.engine.spec import TrialResult

    def _trial_a(ctx):
        return TrialResult(
            trial_index=ctx.trial_index, seed=ctx.seed, metrics=(), ok=True
        )

    name = "test-memo-reregister"
    a = Scenario(name=name, run_trial=_trial_a, description="first")
    registry.register(a)
    assert registry.resolve_cached(name) is a
    b = Scenario(name=name, run_trial=_trial_a, description="second")
    registry.register(b)
    assert registry.resolve_cached(name) is b
