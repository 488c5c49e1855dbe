"""Tests for the repro.engine subsystem.

The engine's central contract: a trial's outcome is a pure function of
its spec — *which backend executes it must be unobservable*.  These
tests pin that down (serial == process pool == batch, bit for bit),
plus the aggregation arithmetic, batch-multiplexing isolation, and the
repository-wide seeded-randomness audit the engine's reproducibility
rests on.
"""

import pathlib
import re

import pytest

from repro.engine import (
    BatchBackend,
    Engine,
    EngineError,
    ExperimentSpec,
    LedgerStats,
    ProcessPoolBackend,
    SerialBackend,
    TrialResult,
    get_backend,
    get_runner,
    make_context,
    merge_ledger_stats,
    percentile,
    register,
    run_one_trial,
    runner_names,
)
from repro.engine.registry import Scenario, drive_instance
from repro.net.rng import child_rng, derive_seed, fork_rng

SRC_ROOT = pathlib.Path(__file__).resolve().parent.parent / "src"


# -- spec layer -------------------------------------------------------------------


def test_spec_validation():
    with pytest.raises(EngineError):
        ExperimentSpec(runner="vss-coin", n=7, trials=0)
    with pytest.raises(EngineError):
        ExperimentSpec(runner="vss-coin", n=0, trials=1)


def test_spec_params_normalise_to_sorted_tuple():
    a = ExperimentSpec(
        runner="vss-coin", n=7, trials=1, params={"b": 2, "a": 1}
    )
    b = ExperimentSpec(
        runner="vss-coin", n=7, trials=1, params={"a": 1, "b": 2}
    )
    assert a == b
    assert a.params == (("a", 1), ("b", 2))
    assert a.param_dict() == {"a": 1, "b": 2}


def test_trial_seeds_deterministic_and_distinct():
    spec = ExperimentSpec(runner="vss-coin", n=7, trials=16, seed=5)
    seeds = [spec.trial_seed(i) for i in range(spec.trials)]
    assert seeds == [spec.trial_seed(i) for i in range(spec.trials)]
    assert len(set(seeds)) == spec.trials
    # Derivation depends only on (seed, runner, index) — backend-free.
    assert seeds[3] == derive_seed(5, "engine", "vss-coin", 3)


def test_make_context_bounds():
    spec = ExperimentSpec(runner="vss-coin", n=7, trials=2)
    with pytest.raises(EngineError):
        make_context(spec, 2)
    ctx = make_context(spec, 1)
    assert ctx.n == 7
    assert ctx.seed == spec.trial_seed(1)


# -- backend identity: the acceptance property ----------------------------------------


@pytest.mark.parametrize(
    "spec",
    [
        ExperimentSpec(
            runner="vss-coin", n=7, trials=5, seed=11,
            params={"adversary": "withhold"},
        ),
        ExperimentSpec(
            runner="unreliable-coin-ba", n=40, trials=4, seed=3,
            params={"num_rounds": 2},
        ),
        ExperimentSpec(
            runner="sampler-quality", n=60, trials=3, seed=9,
            params={"r": 20, "s": 60, "degree": 8, "inner_trials": 4},
        ),
        ExperimentSpec(runner="bracha-broadcast", n=5, trials=1, seed=3),
    ],
    ids=[
        "vss-coin", "unreliable-coin-ba", "sampler-quality",
        "bracha-broadcast-one-trial",
    ],
)
def test_serial_process_batch_bit_identical(spec):
    serial = SerialBackend().run_trials(spec)
    pooled = ProcessPoolBackend(workers=2, unit_size=2).run_trials(spec)
    batched = BatchBackend().run_trials(spec)
    assert serial == pooled
    assert serial == batched
    assert [t.trial_index for t in serial] == list(range(spec.trials))


def test_process_pool_chunking_covers_all_trials():
    backend = ProcessPoolBackend(workers=3, unit_size=None)
    for trials in (1, 2, 7, 24, 25):
        spec = ExperimentSpec(runner="vss-coin", n=7, trials=trials)
        chunks = backend.plan(spec).indices()
        flat = [i for chunk in chunks for i in chunk]
        assert flat == list(range(trials))


def test_process_pool_constructor_validation():
    with pytest.raises(EngineError, match="worker"):
        ProcessPoolBackend(workers=-1)
    with pytest.raises(EngineError, match="unit_size"):
        ProcessPoolBackend(unit_size=0)


def test_single_worker_pool_degrades_to_serial():
    spec = ExperimentSpec(runner="vss-coin", n=7, trials=2, seed=1)
    assert (
        ProcessPoolBackend(workers=1).run_trials(spec)
        == SerialBackend().run_trials(spec)
    )


# -- backend lifecycle: idempotent close, context managers ------------------------------


def test_backends_are_idempotently_closable_context_managers():
    """Every backend supports `with backend:` and double-close —
    the lifecycle contract pools/sockets hang off."""
    backends = [
        SerialBackend(),
        ProcessPoolBackend(workers=2),
        BatchBackend(),
    ]
    for backend in backends:
        with backend as entered:
            assert entered is backend
        backend.close()
        backend.close()  # idempotent


def test_backend_usable_after_close():
    """close() releases resources but leaves the backend reusable."""
    spec = ExperimentSpec(runner="vss-coin", n=7, trials=2, seed=1)
    backend = ProcessPoolBackend(workers=2, unit_size=1)
    first = backend.run_trials(spec)
    backend.close()
    assert backend.run_trials(spec) == first


def _lane_failure(unit):
    raise RuntimeError("lane down")


def test_pool_is_reused_across_runs_and_reaped_by_close(monkeypatch):
    """One pool per backend: opened by the first run, reused by the
    next, dropped by a run a failing lane aborted, reaped by close()."""
    import multiprocessing

    import repro.engine.dispatch as dispatch
    from repro.engine import DispatchError

    before = set(multiprocessing.active_children())
    spec = ExperimentSpec(runner="vss-coin", n=7, trials=4, seed=1)
    backend = ProcessPoolBackend(workers=2, unit_size=1, start_method="fork")
    first = backend.run_trials(spec)
    transport = backend._transport
    assert backend.run_trials(spec) == first
    assert backend._transport is transport  # no second pool forked
    backend.close()
    assert set(multiprocessing.active_children()) <= before
    monkeypatch.setattr(dispatch, "run_unit_timed", _lane_failure)
    with pytest.raises(DispatchError, match="lane down"):
        backend.run_trials(spec)
    assert backend._transport is None  # dropped with the aborted run
    backend.close()
    assert set(multiprocessing.active_children()) <= before


def test_engine_releases_backend_on_error_paths():
    """A backend that dies mid-run is closed before the error
    propagates — no orphaned pools or sockets."""

    class ExplodingBackend(SerialBackend):
        def __init__(self):
            self.closed = 0

        def run_trials(self, spec):
            raise RuntimeError("backend blew up")

        def close(self):
            self.closed += 1

    backend = ExplodingBackend()
    spec = ExperimentSpec(runner="vss-coin", n=7, trials=1, seed=0)
    with pytest.raises(RuntimeError, match="backend blew up"):
        Engine(backend).run(spec)
    assert backend.closed == 1


def test_engine_is_a_context_manager():
    class ClosableBackend(SerialBackend):
        def __init__(self):
            self.closed = 0

        def close(self):
            self.closed += 1

    backend = ClosableBackend()
    spec = ExperimentSpec(runner="vss-coin", n=7, trials=1, seed=0)
    with Engine(backend) as engine:
        assert engine.run(spec).failure_count == 0
    assert backend.closed == 1


# -- ledger merge arithmetic -----------------------------------------------------------


def test_ledger_stats_merge_arithmetic():
    a = LedgerStats(
        total_bits=100, total_messages=10, max_bits_per_processor=40,
        rounds=3, phase_bits=(("deal", 60), ("reveal", 40)),
    )
    b = LedgerStats(
        total_bits=50, total_messages=5, max_bits_per_processor=45,
        rounds=2, phase_bits=(("deal", 50),),
    )
    merged = a.merge(b)
    assert merged.total_bits == 150
    assert merged.total_messages == 15
    assert merged.max_bits_per_processor == 45  # max, not sum
    assert merged.rounds == 5
    assert dict(merged.phase_bits) == {"deal": 110, "reveal": 40}


def test_ledger_merge_associative_commutative():
    stats = [
        LedgerStats(total_bits=b, total_messages=m,
                    max_bits_per_processor=x, rounds=r)
        for b, m, x, r in [(10, 1, 5, 1), (20, 2, 9, 2), (30, 3, 7, 3)]
    ]
    forward = merge_ledger_stats(stats)
    backward = merge_ledger_stats(list(reversed(stats)))
    assert forward == backward
    left = stats[0].merge(stats[1]).merge(stats[2])
    right = stats[0].merge(stats[1].merge(stats[2]))
    assert left == right == forward


def test_percentiles():
    values = [10.0, 20.0, 30.0, 40.0]
    assert percentile(values, 0) == 10.0
    assert percentile(values, 100) == 40.0
    assert percentile(values, 50) == 25.0  # linear interpolation
    assert percentile([7.0], 90) == 7.0
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile(values, 101)


# -- batch multiplexing isolation ------------------------------------------------------


def _mixed_vss_instance(ctx):
    """Odd trials suffer crash corruption; even trials are fault-free."""
    base = get_runner("vss-coin").build_instance
    kind = "crash" if ctx.trial_index % 2 else "none"
    patched_spec = ExperimentSpec(
        runner="vss-coin",
        n=ctx.n,
        trials=ctx.spec.trials,
        seed=ctx.spec.seed,
        params={"k": ctx.n, "adversary": kind},
    )
    # Keep this trial's identity (index + seed) while flipping adversary.
    from repro.engine.spec import TrialContext

    return base(
        TrialContext(
            spec=patched_spec, trial_index=ctx.trial_index, seed=ctx.seed
        )
    )


register(
    Scenario(
        name="test-mixed-vss",
        run_trial=lambda ctx: drive_instance(_mixed_vss_instance(ctx)),
        build_instance=_mixed_vss_instance,
        description="test-only: alternating clean/corrupted vss trials",
    )
)


def test_batch_isolation_corruption_does_not_leak():
    """Corrupted and clean instances share one batch round loop; the
    clean instances' ledgers and corruption sets must be untouched."""
    spec = ExperimentSpec(runner="test-mixed-vss", n=7, trials=6, seed=2)
    serial = SerialBackend().run_trials(spec)
    batched = BatchBackend().run_trials(spec)
    # Interleaving the round loops changes nothing, trial for trial.
    assert serial == batched
    for trial in batched:
        metrics = trial.metric_dict()
        if trial.trial_index % 2:
            assert metrics["corrupted"] == 2  # t = (7-1)//3 crash
        else:
            assert metrics["corrupted"] == 0  # neighbours' crashes stay put
        assert metrics["agreed"] == 1.0


def test_batch_window_bounds_live_instances():
    spec = ExperimentSpec(runner="vss-coin", n=7, trials=5, seed=4)
    assert (
        BatchBackend(max_live=2).run_trials(spec)
        == BatchBackend(max_live=64).run_trials(spec)
    )


def test_batch_falls_back_to_serial_for_unbatchable_runner():
    spec = ExperimentSpec(
        runner="sampler-quality", n=60, trials=2, seed=1,
        params={"r": 20, "s": 60, "degree": 4, "inner_trials": 3},
    )
    assert (
        BatchBackend().run_trials(spec)
        == SerialBackend().run_trials(spec)
    )


# -- the wave-bulk preparation hook ----------------------------------------------------


def test_prepare_wave_keeps_batch_bit_identical_to_serial():
    """vss-coin declares ``prepare_wave`` (bulk pre-dealing); a batched
    run with the hook active must still match serial bit for bit —
    including across wave boundaries (max_live smaller than trials)."""
    spec = ExperimentSpec(runner="vss-coin", n=7, trials=6, seed=11)
    serial = SerialBackend().run_trials(spec)
    assert BatchBackend(max_live=2).run_trials(spec) == serial
    assert BatchBackend(max_live=64).run_trials(spec) == serial


def _raise_prep(instances):
    raise RuntimeError("prep boom")


register(
    Scenario(
        name="test-exploding-prepare",
        build_instance=_mixed_vss_instance,
        prepare_wave=_raise_prep,
        description="test-only: wave preparation hook raises",
    )
)


def test_prepare_wave_failure_fails_the_whole_wave():
    """A raising prepare hook may have mutated any instance in its
    wave, so the whole wave becomes failed results — while the serial
    path (which never runs the hook) is unaffected."""
    spec = ExperimentSpec(
        runner="test-exploding-prepare", n=7, trials=4, seed=5
    )
    batched = BatchBackend(max_live=2).run_trials(spec)
    assert [r.trial_index for r in batched] == [0, 1, 2, 3]
    assert all(not r.ok for r in batched)
    assert "prep boom" in batched[0].failure
    serial = SerialBackend().run_trials(spec)
    assert all(r.ok for r in serial)


# -- failure containment ---------------------------------------------------------------


def _exploding_trial(ctx):
    raise RuntimeError(f"boom in trial {ctx.trial_index}")


register(
    Scenario(
        name="test-exploding",
        run_trial=_exploding_trial,
        description="test-only: always raises",
    )
)


def _fragile_vss_instance(ctx):
    """Trial 1's construction explodes; the others are clean vss coins."""
    if ctx.trial_index == 1:
        raise RuntimeError(f"bad build in trial {ctx.trial_index}")
    return _mixed_vss_instance(ctx)


register(
    Scenario(
        name="test-fragile-vss",
        run_trial=lambda ctx: drive_instance(_fragile_vss_instance(ctx)),
        build_instance=_fragile_vss_instance,
        description="test-only: one trial's builder raises",
    )
)


def test_batch_contains_crashing_trial():
    """A raising trial in a batch wave becomes a failed TrialResult —
    identically to the serial backend — instead of killing the sweep."""
    spec = ExperimentSpec(runner="test-fragile-vss", n=7, trials=4, seed=3)
    serial = SerialBackend().run_trials(spec)
    batched = BatchBackend().run_trials(spec)
    assert serial == batched
    assert not serial[1].ok
    assert "bad build in trial 1" in serial[1].failure
    assert [t.ok for t in serial] == [True, False, True, True]


def test_crashed_trial_becomes_failed_result():
    spec = ExperimentSpec(runner="test-exploding", n=3, trials=2, seed=0)
    results = SerialBackend().run_trials(spec)
    assert all(not r.ok for r in results)
    assert "boom in trial 1" in results[1].failure
    engine_result = Engine("serial").run(spec)
    assert engine_result.failure_count == 2
    assert engine_result.success_rate() == 0.0


def test_unknown_runner_and_backend_fail_fast():
    with pytest.raises(EngineError, match="unknown experiment runner"):
        run_one_trial(
            ExperimentSpec(runner="nope", n=3, trials=1), 0
        )
    with pytest.raises(EngineError, match="unknown backend"):
        get_backend("quantum")
    assert "vss-coin" in runner_names()


def test_backend_names_are_the_four_backends():
    from repro.engine import BACKEND_NAMES

    assert BACKEND_NAMES == ("serial", "process", "batch", "distributed")
    for retired in ("async", "hybrid"):
        with pytest.raises(EngineError, match="unknown backend"):
            get_backend(retired)


# -- per-process scenario resolution memo ---------------------------------------------


def test_worker_scenario_resolution_memoised(monkeypatch):
    """Units resolve the scenario by name exactly once per process.

    ``run_unit`` is what a pool worker executes per unit; resolution
    must go through the per-process memo so repeated units of the same
    spec skip the registry lookup (and its lazy-builtins guard).
    """
    from repro.engine import WorkUnit, registry, run_unit

    registry._RESOLVED.pop("bracha-broadcast", None)
    lookups = []
    real_get_runner = registry.get_runner

    def counting_get_runner(name):
        lookups.append(name)
        return real_get_runner(name)

    monkeypatch.setattr(registry, "get_runner", counting_get_runner)
    spec = ExperimentSpec(
        runner="bracha-broadcast", n=5, trials=6, seed=3
    )
    serial = SerialBackend().run_trials(spec)
    first = run_unit(WorkUnit(spec=spec, indices=(0, 1)))
    second = run_unit(WorkUnit(spec=spec, indices=(2, 3)))
    assert first + second == serial[:4]
    assert lookups.count("bracha-broadcast") == 1


def test_resolution_memo_invalidated_by_reregistration():
    """Latest registration wins even through the memo."""
    from repro.engine import registry

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


# -- aggregation and rendering ---------------------------------------------------------


def test_experiment_result_aggregates():
    spec = ExperimentSpec(runner="vss-coin", n=7, trials=4, seed=8)
    result = Engine("serial").run(spec)
    assert result.backend == "serial"
    summary = result.summary("agreed")
    assert summary.count == 4
    assert summary.mean == 1.0
    merged = result.merged_ledger()
    assert merged.total_bits == sum(
        t.ledger.total_bits for t in result.trials
    )
    assert merged.max_bits_per_processor == max(
        t.ledger.max_bits_per_processor for t in result.trials
    )
    text = result.to_table().to_text()
    assert "agreed" in text
    assert "ledger.total_bits" in text
    assert "4 trials, 0 failures" in text


def test_trial_result_make_sorts_metrics():
    spec = ExperimentSpec(runner="vss-coin", n=7, trials=1, seed=0)
    ctx = make_context(spec, 0)
    result = TrialResult.make(ctx, metrics={"z": 1, "a": 2.5})
    assert result.metrics == (("a", 2.5), ("z", 1.0))
    assert result.metric_dict() == {"a": 2.5, "z": 1.0}


# -- seeded-randomness audit (satellite: RNG plumbing) ---------------------------------

#: ``random.<global-function>(...)`` — module-level stream usage.
_BARE_RANDOM = re.compile(
    r"\brandom\.(random|randint|randrange|choice|choices|shuffle|sample|"
    r"getrandbits|uniform|gauss|betavariate|seed)\s*\("
)
#: ``random.Random()`` with no seed — OS-entropy construction.
_UNSEEDED_RNG = re.compile(r"\brandom\.Random\(\s*\)")


def test_no_unseeded_randomness_in_library():
    """Engine reproducibility rests on every stream being seeded.

    Guards the audit result: no module under ``src/repro`` consumes the
    ``random`` module's global state or builds an unseeded ``Random``.
    (``field.py``'s Miller-Rabin helper uses a fixed-constant-seeded
    stream, which both patterns permit.)
    """
    offenders = []
    for path in sorted(SRC_ROOT.rglob("*.py")):
        text = path.read_text()
        for pattern in (_BARE_RANDOM, _UNSEEDED_RNG):
            for match in pattern.finditer(text):
                line = text[: match.start()].count("\n") + 1
                offenders.append(f"{path.name}:{line}: {match.group(0)}")
    assert not offenders, (
        "unseeded/global randomness found:\n" + "\n".join(offenders)
    )


def test_fork_rng_deterministic_and_independent():
    parent_a = child_rng(7, "parent")
    parent_b = child_rng(7, "parent")
    fork_1 = fork_rng(parent_a, "left")
    fork_2 = fork_rng(parent_b, "left")
    assert fork_1.random() == fork_2.random()  # same lineage, same stream
    parent_c = child_rng(7, "parent")
    left = fork_rng(parent_c, "left")
    right = fork_rng(parent_c, "right")
    assert left.random() != right.random()


def test_tree_communicator_requires_and_respects_seeded_rng():
    from repro.core.communication import (
        CommunicationError,
        TreeCommunicator,
    )
    from repro.core.parameters import ProtocolParameters
    from repro.crypto.field import DEFAULT_FIELD
    from repro.net.accounting import BitLedger
    from repro.topology.links import LinkStructure
    from repro.topology.tree import NodeId, TreeTopology

    params = ProtocolParameters.simulation(27)

    def build(rng):
        tree = TreeTopology(
            n=params.n, q=params.q, k1=params.k1,
            rng=child_rng(1, "tree"),
        )
        links = LinkStructure(
            tree,
            uplink_degree=params.uplink_degree,
            ell_link_degree=params.ell_link_degree,
            intra_degree=params.intra_degree,
            rng=child_rng(1, "links"),
        )
        comm = TreeCommunicator(
            tree, links, DEFAULT_FIELD, BitLedger(params.n), rng=rng
        )
        comm.initial_share(0, {(0, 0): 123})
        return comm

    # Passing None explicitly must fail loudly, never fall back to a
    # shared stream (trials would silently correlate).
    with pytest.raises(CommunicationError, match="seeded rng"):
        build(None)

    first = build(child_rng(1, "comm"))
    second = build(child_rng(1, "comm"))
    # Identical child streams deal identical shares.
    key, leaf = (0, 0), NodeId(1, 0)
    assert [
        r.value for pid in sorted(first.tree.members(leaf))
        for r in first.records_at(leaf, pid, key)
    ] == [
        r.value for pid in sorted(second.tree.members(leaf))
        for r in second.records_at(leaf, pid, key)
    ]
