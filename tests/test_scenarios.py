"""Tests for the declarative Scenario API.

Four contracts pinned here:

* **Backend parity, registry-wide** — every registered (schema-declared)
  scenario returns bit-identical trial lists on the serial backend, on
  the process-pool backend at odd unit sizes (1, 3 — larger than the
  trial count — and the auto default), on the batch backend at
  ``max_live`` 1 and 64 wherever it has a builder (sync or async), and
  on the distributed backend against loopback TCP workers — wire round
  trip included.  This is the acceptance property of the scenario
  redesign and of every backend added since: execution mode is
  unobservable.
* **Schema validation** — unknown parameter keys are rejected with a
  did-you-mean hint, ill-typed values with the expected type, raw CLI
  strings coerce to the declared types without touching trial seeds,
  and cross-field constraints (the scenario ``check`` hook) fail at
  validation instead of deep in a builder.
* **Metric contracts** — a scenario's trials report exactly the metric
  names its registration declares, so downstream tables and sweeps can
  rely on the schema.
* **Ledger pins** — every declared scenario's serial smoke trials, and
  two specs shaped like the end-to-end benchmark's message-heavy
  workloads, reproduce literal per-trial bit ledgers.
"""

import dataclasses
import multiprocessing

import pytest

from repro.engine import (
    BatchBackend,
    BatchInstance,
    Engine,
    ExperimentSpec,
    LedgerStats,
    Param,
    ProcessPoolBackend,
    Scenario,
    ScenarioError,
    SerialBackend,
    TrialResult,
    get_scenario,
    make_context,
    scenario_names,
)

#: Built-in scenarios only: ad-hoc test runners (registered without a
#: schema by other test modules) are excluded by declared_only.
DECLARED = scenario_names(declared_only=True)


@pytest.fixture(scope="module")
def loopback_workers():
    """Two in-process `repro worker serve` instances on ephemeral ports."""
    from repro.engine import WorkerServer

    servers = [WorkerServer().start(), WorkerServer().start()]
    yield [server.address for server in servers]
    for server in servers:
        server.close()


def _smoke_spec(name: str, trials: int = 2, **overrides) -> ExperimentSpec:
    """The scenario's own cheap configuration, as used by CI smoke."""
    runner = get_scenario(name)
    params = dict(runner.smoke_params)
    params.update(overrides)
    return ExperimentSpec(
        runner=name, n=runner.smoke_n, trials=trials, seed=13,
        params=params,
    )


def test_registry_covers_the_protocol_stack():
    """The redesign's coverage floor: all six baselines, the paper's own
    protocols, and the async stack are reachable through the registry."""
    for name in (
        "benor", "eig", "phase-king", "rabin", "cpa", "disc09-ae2e",
        "everywhere-ba", "unreliable-coin-ba", "vss-coin",
        "sampler-quality",
        "async-benor", "bracha-broadcast", "common-coin-ba",
        "async-sparse-aeba",
    ):
        assert name in DECLARED


# -- backend parity over the whole registry ------------------------------------------


@pytest.mark.parametrize("name", DECLARED)
def test_every_scenario_bit_identical_across_backends(
    name, loopback_workers
):
    runner = get_scenario(name)
    spec = _smoke_spec(name)
    serial = SerialBackend().run_trials(spec)
    assert [t.trial_index for t in serial] == list(range(spec.trials))
    # Process parity at odd unit sizes: 1 (one trial per worker task),
    # 3 (> n_trials here, so a single short unit), and the auto
    # default.  Unit geometry must be unobservable.
    for unit_size in (1, 3, None):
        with ProcessPoolBackend(workers=2, unit_size=unit_size) as pool:
            assert pool.run_trials(spec) == serial, f"unit_size={unit_size}"
    if runner.batchable:
        for max_live in (1, 64):
            batched = BatchBackend(max_live=max_live).run_trials(spec)
            assert batched == serial, f"max_live={max_live}"
    # Distributed parity, registry-wide: every scenario ships over the
    # wire to two TCP workers and comes back bit-identical through the
    # JSON envelope round trip.
    from repro.engine import DistributedBackend

    with DistributedBackend(loopback_workers, unit_size=1) as dist:
        assert dist.run_trials(spec) == serial


@pytest.mark.parametrize("name", DECLARED)
def test_metric_contract_matches_schema(name):
    runner = get_scenario(name)
    trial = SerialBackend().run_trials(_smoke_spec(name, trials=1))[0]
    assert trial.ok, trial.failure
    assert tuple(sorted(trial.metric_dict())) == runner.metrics


def test_everywhere_ba_batch_bit_identical_under_corruption():
    """The acceptance criterion: full Theorem 1 runs — adaptive
    adversary included — multiplex under the batch backend with results
    bit-identical to the serial backend."""
    spec = ExperimentSpec(
        runner="everywhere-ba", n=27, trials=3, seed=5,
        params={"corrupt": 0.1},
    )
    serial = SerialBackend().run_trials(spec)
    batched = BatchBackend(max_live=2).run_trials(spec)
    assert serial == batched
    assert all(t.ok for t in serial)


def test_64_async_trials_bit_identical_on_batch_and_process():
    """The acceptance criterion: a paper-scale async sweep (>= 64
    trials) multiplexed by the batch backend and sharded across pool
    workers returns metrics bit-identical to the serial backend."""
    spec = ExperimentSpec(
        runner="bracha-broadcast", n=5, trials=64, seed=17
    )
    serial = SerialBackend().run_trials(spec)
    stepped = BatchBackend(max_live=16).run_trials(spec)
    with ProcessPoolBackend(workers=2, unit_size=13) as pool:
        sharded = pool.run_trials(spec)
    assert serial == stepped == sharded
    assert [t.trial_index for t in sharded] == list(range(64))
    assert all(t.ok for t in sharded)


def _fragile_bracha(ctx):
    if ctx.trial_index == 1:
        raise RuntimeError(f"bad async build in trial {ctx.trial_index}")
    return get_scenario("bracha-broadcast").build_instance(ctx)


@pytest.mark.parametrize("backend", ["batch", "process"])
def test_async_builder_crash_is_contained_per_trial(backend):
    """A raising async builder becomes a failed TrialResult — on the
    batch backend (without killing the wave) and inside a fork pool
    worker's unit (without killing the unit) — identically to serial.
    (A fork pool: ad-hoc registrations don't cross a spawn boundary.)"""
    from repro.engine import register

    register(
        Scenario(
            name="test-fragile-bracha",
            build_instance=_fragile_bracha,
            description="test-only: one trial's async builder raises",
        )
    )
    spec = ExperimentSpec(runner="test-fragile-bracha", n=7, trials=4, seed=2)
    serial = SerialBackend().run_trials(spec)
    if backend == "batch":
        assert BatchBackend().run_trials(spec) == serial
    elif "fork" in multiprocessing.get_all_start_methods():
        with ProcessPoolBackend(
            workers=2, unit_size=2, start_method="fork"
        ) as pool:
            assert pool.run_trials(spec) == serial
    assert [t.ok for t in serial] == [True, False, True, True]
    assert "bad async build in trial 1" in serial[1].failure


@pytest.mark.parametrize("name", ["phase-king", "bracha-broadcast"])
def test_batch_matches_serial_at_step_caps_zero_and_one(name):
    """The batch backend runs exactly the loop ``network.run(cap)``
    runs: at cap 0 a sync network steps no round (and sends no bits),
    and an async one still starts its processes (``result()`` does) —
    so batch equals serial at caps 0 and 1, sync and async alike."""
    from repro.engine import register

    for cap in (0, 1):

        def _capped(ctx, cap=cap):
            inner = get_scenario(name).build_instance(ctx)
            return BatchInstance(
                network=inner.network, max_steps=cap,
                collect=inner.collect, ctx=inner.ctx,
            )

        capped = f"test-capped-{name}-{cap}"
        register(
            Scenario(
                name=capped,
                build_instance=_capped,
                description="test-only: instance cap replaced",
            )
        )
        spec = dataclasses.replace(_smoke_spec(name), runner=capped)
        serial = SerialBackend().run_trials(spec)
        assert BatchBackend().run_trials(spec) == serial, cap
        for trial in serial:
            metrics = trial.metric_dict()
            assert metrics.get("rounds", metrics.get("steps")) == cap
            if cap == 0 and name == "phase-king":
                assert trial.ledger.total_bits == 0


@pytest.mark.parametrize(
    "spec",
    [
        ExperimentSpec(runner="vss-coin", n=7, trials=3, seed=5),
        ExperimentSpec(runner="bracha-broadcast", n=5, trials=6, seed=9),
    ],
    ids=lambda spec: spec.runner,
)
def test_process_pool_spawn_bit_identical_to_serial(spec):
    """The worker-rebuild regression: a ``spawn`` worker inherits
    nothing from the parent (no forked registry, no closures), so
    matching serial proves specs cross the process boundary as plain
    data — for a sync and an async scenario alike."""
    with ProcessPoolBackend(
        workers=2, unit_size=2, start_method="spawn"
    ) as pool:
        assert pool.run_trials(spec) == SerialBackend().run_trials(spec)


def test_unreliable_coin_ba_corrupt_param_wires_an_adversary():
    """The once-ignored `corrupt` key now corrupts processors (and the
    corrupted count is reported as a metric)."""
    clean = SerialBackend().run_trials(_smoke_spec("unreliable-coin-ba"))
    attacked = SerialBackend().run_trials(
        _smoke_spec("unreliable-coin-ba", corrupt=0.25)
    )
    for trial in clean:
        assert trial.metric_dict()["corrupted"] == 0
    n = get_scenario("unreliable-coin-ba").smoke_n
    for trial in attacked:
        assert trial.metric_dict()["corrupted"] == int(0.25 * n)
    assert clean != attacked


# -- ledger pins ---------------------------------------------------------------------

#: Per-trial ledgers of every declared scenario's serial smoke spec
#: (3 trials, seed 29): total bits, messages, max bits per processor,
#: rounds, phase bits.  Any change to how messages are sized or
#: counted moves one of these.
SMOKE_LEDGERS = {
    "async-benor": (
        LedgerStats(4420, 60, 884, 42, (("default", 4420),)),
        LedgerStats(4493, 61, 957, 41, (("default", 4493),)),
        LedgerStats(4420, 60, 884, 40, (("default", 4420),)),
    ),
    "async-sparse-aeba": (
        LedgerStats(86160, 720, 5385, 480, (("default", 86160),)),
        LedgerStats(86160, 720, 5385, 480, (("default", 86160),)),
        LedgerStats(86160, 720, 5385, 480, (("default", 86160),)),
    ),
    "benor": (
        LedgerStats(13720, 224, 1715, 5, (("default", 13720),)),
        LedgerStats(13720, 224, 1715, 5, (("default", 13720),)),
        LedgerStats(20608, 336, 2576, 7, (("default", 20608),)),
    ),
    "bracha-broadcast": (
        LedgerStats(5340, 90, 1164, 75, (("default", 5340),)),
        LedgerStats(5340, 90, 1164, 77, (("default", 5340),)),
        LedgerStats(5340, 90, 1164, 84, (("default", 5340),)),
    ),
    "common-coin-ba": (
        LedgerStats(11379, 153, 2006, 123, (("default", 11379),)),
        LedgerStats(11379, 153, 2006, 120, (("default", 11379),)),
        LedgerStats(11379, 153, 2006, 121, (("default", 11379),)),
    ),
    "cpa": (
        LedgerStats(0, 0, 0, 0, ()),
        LedgerStats(0, 0, 0, 0, ()),
        LedgerStats(0, 0, 0, 0, ()),
    ),
    "disc09-ae2e": (
        LedgerStats(35752, 872, 1312, 2, (("default", 35752),)),
        LedgerStats(35793, 873, 1312, 2, (("default", 35793),)),
        LedgerStats(35834, 874, 1312, 2, (("default", 35834),)),
    ),
    "eig": (
        LedgerStats(69654, 1554, 10026, 4, (("default", 69654),)),
        LedgerStats(69654, 1554, 10026, 4, (("default", 69654),)),
        LedgerStats(69654, 1554, 10026, 4, (("default", 69654),)),
    ),
    "everywhere-ba": (
        LedgerStats(
            156008075, 228655, 8390699, 40,
            (
                ("ae2e_push", 102384),
                ("agree_level_2", 20250),
                ("agree_level_3", 48600),
                ("default", 95175),
                ("expose_level_2", 3776356),
                ("expose_level_3", 50459059),
                ("output_reveal", 63251754),
                ("root_agreement", 1620),
                ("root_reveal", 31625877),
                ("send_up_level_1", 761400),
                ("send_up_level_2", 2977920),
                ("send_up_level_3", 2887680),
            ),
        ),
        LedgerStats(
            155757524, 228549, 8632952, 40,
            (
                ("ae2e_push", 141588),
                ("agree_level_2", 20250),
                ("agree_level_3", 48600),
                ("default", 95175),
                ("expose_level_2", 3789140),
                ("expose_level_3", 50934135),
                ("output_reveal", 62733344),
                ("root_agreement", 1620),
                ("root_reveal", 31366672),
                ("send_up_level_1", 761400),
                ("send_up_level_2", 2977920),
                ("send_up_level_3", 2887680),
            ),
        ),
        LedgerStats(
            157579238, 228607, 9441191, 40,
            (
                ("ae2e_push", 102384),
                ("agree_level_2", 20250),
                ("agree_level_3", 48600),
                ("default", 95175),
                ("expose_level_2", 3802676),
                ("expose_level_3", 51022965),
                ("output_reveal", 63905712),
                ("root_agreement", 1620),
                ("root_reveal", 31952856),
                ("send_up_level_1", 761400),
                ("send_up_level_2", 2977920),
                ("send_up_level_3", 2887680),
            ),
        ),
    ),
    "phase-king": (
        LedgerStats(11760, 240, 1568, 7, (("default", 11760),)),
        LedgerStats(11760, 240, 1568, 7, (("default", 11760),)),
        LedgerStats(11760, 240, 1568, 7, (("default", 11760),)),
    ),
    "rabin": (
        LedgerStats(10584, 216, 1176, 4, (("default", 10584),)),
        LedgerStats(10584, 216, 1176, 4, (("default", 10584),)),
        LedgerStats(10584, 216, 1176, 4, (("default", 10584),)),
    ),
    "sampler-quality": (
        LedgerStats(0, 0, 0, 0, ()),
        LedgerStats(0, 0, 0, 0, ()),
        LedgerStats(0, 0, 0, 0, ()),
    ),
    "unreliable-coin-ba": (
        LedgerStats(21168, 432, 882, 2, (("default", 21168),)),
        LedgerStats(21168, 432, 882, 2, (("default", 21168),)),
        LedgerStats(21168, 432, 882, 2, (("default", 21168),)),
    ),
    "vss-coin": (
        LedgerStats(37778, 168, 5426, 5, (("default", 37778),)),
        LedgerStats(37859, 168, 5457, 5, (("default", 37859),)),
        LedgerStats(37782, 168, 5421, 5, (("default", 37782),)),
    ),
}


@pytest.mark.parametrize("name", DECLARED)
def test_smoke_ledgers_are_pinned(name):
    spec = dataclasses.replace(_smoke_spec(name, trials=3), seed=29)
    trials = SerialBackend().run_trials(spec)
    assert tuple(t.ledger for t in trials) == SMOKE_LEDGERS[name]


@pytest.mark.parametrize(
    "spec, ledgers",
    [
        (
            ExperimentSpec(
                runner="vss-coin", n=24, trials=2, seed=18,
                params={"adversary": "withhold"},
            ),
            (
                LedgerStats(1284716, 2047, 59604, 5, (("default", 1284716),)),
                LedgerStats(1284715, 2047, 59770, 5, (("default", 1284715),)),
            ),
        ),
        (
            ExperimentSpec(
                runner="unreliable-coin-ba", n=256, trials=1, seed=18,
                params={
                    "behavior": "anti_majority", "corrupt": 0.1,
                    "inputs": "split", "num_rounds": 3,
                },
            ),
            (
                LedgerStats(1086624, 22176, 4704, 4, (("default", 1086624),)),
            ),
        ),
    ],
    ids=("vss-coin-k24", "aeba-n256-sparse"),
)
def test_benchmark_shaped_ledgers_are_pinned(spec, ledgers):
    """The committee coin's nested payloads and the sparse protocol's
    single-int votes, at the sizes the end-to-end benchmark runs."""
    trials = SerialBackend().run_trials(spec)
    assert tuple(t.ledger for t in trials) == ledgers


# -- schema validation ---------------------------------------------------------------


def test_unknown_param_rejected_with_did_you_mean():
    runner = get_scenario("everywhere-ba")
    with pytest.raises(ScenarioError, match="did you mean 'corrupt'"):
        runner.validate({"corupt": 0.1})
    with pytest.raises(ScenarioError, match="unknown parameter"):
        runner.validate({"zzz": 1})


def test_engine_run_validates_and_coerces():
    result = Engine("serial").run(
        ExperimentSpec(
            runner="vss-coin", n=7, trials=1,
            params={"k": "7", "adversary": "crash"},
        )
    )
    assert result.spec.param_dict() == {"k": 7, "adversary": "crash"}
    with pytest.raises(ScenarioError, match="unknown parameter"):
        Engine("serial").run(
            ExperimentSpec(
                runner="vss-coin", n=7, trials=1, params={"kk": 7}
            )
        )


def test_coercion_does_not_change_results():
    """Raw CLI strings and typed values produce bit-identical trials —
    coercion is value-level; seeds never depend on parameters."""
    typed = Engine("serial").run(
        ExperimentSpec(
            runner="unreliable-coin-ba", n=24, trials=2,
            params={"num_rounds": 2, "corrupt": 0.25},
        )
    )
    raw = Engine("serial").run(
        ExperimentSpec(
            runner="unreliable-coin-ba", n=24, trials=2,
            params={"num_rounds": "2", "corrupt": "0.25"},
        )
    )
    assert typed.trials == raw.trials


def test_param_type_coercion_and_errors():
    p_int = Param("k", int, 4)
    assert p_int.coerce("12") == 12
    assert p_int.coerce(12.0) == 12
    with pytest.raises(ScenarioError, match="expects int"):
        p_int.coerce("4.5")
    with pytest.raises(ScenarioError, match="expects int"):
        p_int.coerce("nope")

    p_float = Param("eps", float, 0.1)
    assert p_float.coerce("0.25") == 0.25
    assert p_float.coerce(1) == 1.0
    with pytest.raises(ScenarioError, match="expects float"):
        p_float.coerce("big")

    p_bool = Param("flag", bool, False)
    assert p_bool.coerce("true") is True
    assert p_bool.coerce("0") is False
    with pytest.raises(ScenarioError, match="expects bool"):
        p_bool.coerce("maybe")


def test_param_choices_and_bounds():
    p = Param("mode", str, "a", choices=("a", "b"))
    assert p.coerce("b") == "b"
    with pytest.raises(ScenarioError, match="must be one of"):
        p.coerce("c")
    bounded = Param("corrupt", float, 0.0, minimum=0.0, maximum=0.5)
    assert bounded.coerce("0.5") == 0.5
    with pytest.raises(ScenarioError, match=">="):
        bounded.coerce(-0.1)
    with pytest.raises(ScenarioError, match="<="):
        bounded.coerce(0.9)


def test_scenario_without_execution_mode_rejected():
    with pytest.raises(ScenarioError, match="no execution mode"):
        Scenario(name="broken")


def test_undeclared_scenario_passes_params_through():
    runner = Scenario(
        name="test-passthrough",
        run_trial=lambda ctx: TrialResult.make(ctx, metrics={}),
    )
    assert runner.params is None
    assert runner.validate({"anything": "goes"}) == {"anything": "goes"}


def test_vss_coin_degenerate_committee_rejected():
    """`k=0` must fail the schema's minimum, not silently fall back to n."""
    with pytest.raises(ScenarioError, match=">= 1"):
        get_scenario("vss-coin").validate({"k": 0})


# -- cross-field checks (the `check` hook) --------------------------------------------


def test_check_hook_degree_must_be_below_n():
    """A degree >= n fails at validation with a schema error instead of
    a GraphError deep inside the builder."""
    for name in ("unreliable-coin-ba", "async-sparse-aeba"):
        runner = get_scenario(name)
        with pytest.raises(ScenarioError, match="degree 24 must be < n"):
            runner.validate({"degree": 24}, n=24)
        assert runner.validate({"degree": 8}, n=24)["degree"] == 8
        # Default (auto) degrees are derived from n and always legal.
        runner.validate({}, n=24)


def test_check_hook_corrupt_budget_vs_fault_bound():
    runner = get_scenario("unreliable-coin-ba")
    with pytest.raises(ScenarioError, match="fault bound"):
        runner.validate({"corrupt": 0.5}, n=24)  # 12 > b(24) = 7
    assert runner.validate({"corrupt": 0.25}, n=24) == {"corrupt": 0.25}


def test_check_hook_vss_committee_within_network():
    runner = get_scenario("vss-coin")
    with pytest.raises(ScenarioError, match="exceeds the network size"):
        runner.validate({"k": 9}, n=7)
    assert runner.validate({"k": 7}, n=7) == {"k": 7}


def test_check_hook_bracha_dealer_in_range():
    runner = get_scenario("bracha-broadcast")
    with pytest.raises(ScenarioError, match="dealer 7 out of range"):
        runner.validate({"dealer": 7}, n=7)
    # Without n, validation stays value-level (builders still guard).
    assert runner.validate({"dealer": 7})["dealer"] == 7


def test_check_hook_runs_through_engine_and_reports_scenario():
    with pytest.raises(ScenarioError, match="unreliable-coin-ba"):
        Engine("serial").run(
            ExperimentSpec(
                runner="unreliable-coin-ba", n=24, trials=1,
                params={"degree": 30},
            )
        )
    # A passing check leaves results untouched.
    ok = Engine("serial").run(
        ExperimentSpec(
            runner="unreliable-coin-ba", n=24, trials=1,
            params={"num_rounds": 1, "degree": 8},
        )
    )
    assert ok.failure_count == 0


def test_param_signature_rendering():
    assert Param("corrupt", float, 0.0).signature() == (
        "corrupt: float = 0.0"
    )
    assert Param("degree", int, None).signature() == "degree: int = auto"


# -- async scenario determinism details -----------------------------------------------


def test_async_scheduler_forks_from_trial_seed():
    """Two trials of one spec see different delivery orders, and the
    same trial rebuilt twice sees the same one."""
    spec = ExperimentSpec(runner="async-benor", n=5, trials=2, seed=4)
    build = get_scenario("async-benor").build_instance
    once = build(make_context(spec, 0)).network.run(max_steps=10_000)
    again = build(make_context(spec, 0)).network.run(max_steps=10_000)
    assert once.steps == again.steps
    assert once.outputs == again.outputs
    other = build(make_context(spec, 1)).network.run(max_steps=10_000)
    assert (once.steps, once.outputs) != (other.steps, other.outputs)
