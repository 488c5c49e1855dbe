"""Scenarios for the paper's own protocols.

* ``everywhere-ba`` — Theorem 1 end to end, **batchable**: the
  phase-stepped execution of :mod:`repro.core.tournament_net` gives the
  orchestrated tournament a ``SyncNetwork`` round interface, so the
  batch backend multiplexes full Theorem 1 runs.
* ``unreliable-coin-ba`` — Algorithm 5 on a sparse graph (Lemma 13's
  coalescence unit), batchable; its ``corrupt`` fraction now wires a
  real static adversary on the graph's own edges.
* ``vss-coin`` — the on-demand committee coin of E19, batchable.
* ``sampler-quality`` — the Lemma 2 averaging-sampler measurement.

Each scenario declares its :class:`Param` schema once, above the
builder, and the builder reads every parameter through
:func:`~repro.engine.scenarios.common.param_reader` — the declaration
is the single source of defaults.
"""

from __future__ import annotations

from ...net.simulator import (
    Adversary,
    NullAdversary,
    RunResult,
    SyncNetwork,
)
from ..registry import BatchInstance, Scenario, register
from ..scenario import Param, ScenarioError
from ..spec import LedgerStats, TrialContext, TrialResult
from .common import (
    INPUTS_PARAM,
    input_bits,
    param_reader,
    sparse_degree_problem,
    static_adversary,
)

#: Round cap for phase-stepped everywhere-ba instances; the wrapper
#: halts itself when the execution completes, so this is a backstop.
_EVERYWHERE_BA_ROUND_CAP = 100_000


# --------------------------------------------------------------------------
# everywhere-ba (Theorem 1 pipeline, benchmark E1's unit) — batchable via
# the phase-stepped tournament network.
# --------------------------------------------------------------------------

_EVERYWHERE_BA_PARAMS = (
    INPUTS_PARAM,
    Param(
        "corrupt", float, 0.0,
        help="adaptive corruption fraction of n",
        minimum=0.0, maximum=1 / 3,
    ),
    Param(
        "adversary", str, "bin-stuffing",
        help="tournament-phase adversary when corrupt > 0",
        choices=("bin-stuffing", "tournament"),
    ),
)
_eba = param_reader(_EVERYWHERE_BA_PARAMS)


def _everywhere_ba_instance(ctx: TrialContext) -> BatchInstance:
    from ...adversary.adaptive import (
        BinStuffingAdversary,
        TournamentAdversary,
    )
    from ...core.tournament_net import build_everywhere_ba_network

    n = ctx.n
    inputs = input_bits(_eba(ctx, "inputs"), n)
    corrupt = float(_eba(ctx, "corrupt"))
    adversary = None
    if corrupt > 0:
        budget = max(1, int(corrupt * n))
        kind = _eba(ctx, "adversary")
        if kind == "bin-stuffing":
            adversary = BinStuffingAdversary(n, budget=budget, seed=ctx.seed)
        elif kind == "tournament":
            adversary = TournamentAdversary(n, budget=budget, seed=ctx.seed)
        else:
            raise ScenarioError(f"unknown adversary kind {kind!r}")

    network, execution = build_everywhere_ba_network(
        n, inputs, tournament_adversary=adversary, seed=ctx.seed
    )

    def collect(_: RunResult, ctx: TrialContext) -> TrialResult:
        result = execution.result
        assert result is not None, "network halted before the execution"
        good = [p for p in range(ctx.n) if p not in result.corrupted]
        decided = [result.ae2e_result.decided.get(p) for p in good]
        agree = sum(1 for v in decided if v == result.bit) / max(
            1, len(good)
        )
        good_bits = [result.bits_per_processor[p] for p in good]
        # Phases count every sender, as in every other scenario: the
        # tournament's own phases plus Algorithm 3's push as one entry.
        phases = result.ae_result.ledger.phase_breakdown()
        phases["ae2e_push"] = sum(result.ae2e_result.sent_bits.values())
        ledger = LedgerStats(
            total_bits=sum(good_bits),
            total_messages=result.ae_result.ledger.total_messages(),
            max_bits_per_processor=max(good_bits, default=0),
            rounds=result.total_rounds(),
            phase_bits=tuple(sorted(phases.items())),
        )
        return TrialResult.make(
            ctx,
            metrics={
                "bit": result.bit,
                "agreement": agree,
                "valid": float(result.is_valid()),
                "rounds": result.total_rounds(),
                "max_bits_per_processor": result.max_bits_per_processor(),
            },
            ledger=ledger,
            ok=result.success() and result.is_valid(),
        )

    return BatchInstance(
        network=network,
        max_steps=_EVERYWHERE_BA_ROUND_CAP,
        collect=collect,
        ctx=ctx,
    )


register(
    Scenario(
        name="everywhere-ba",
        build_instance=_everywhere_ba_instance,
        description=(
            "Theorem 1 end to end: tournament + coin subsequence + "
            "almost-everywhere-to-everywhere push"
        ),
        params=_EVERYWHERE_BA_PARAMS,
        metrics=(
            "agreement", "bit", "max_bits_per_processor", "rounds",
            "valid",
        ),
        smoke_n=27,
    )
)


# --------------------------------------------------------------------------
# unreliable-coin-ba (Algorithm 5 on a sparse graph, E11's coalescence
# unit) — batchable; `corrupt` wires a real adversary on the graph edges.
# --------------------------------------------------------------------------

_AEBA_PARAMS = (
    INPUTS_PARAM,
    Param("num_rounds", int, 1, help="algorithm rounds", minimum=1),
    Param("degree", int, None,
          help="graph degree (auto: Theorem 5's k log n)"),
    Param("epsilon", float, 1 / 12, help="protocol epsilon"),
    Param("epsilon0", float, 0.05, help="coin unreliability"),
    Param(
        "corrupt", float, 0.0,
        help="statically corrupted fraction of n",
        minimum=0.0, maximum=0.5,
    ),
    Param(
        "behavior", str, "anti_majority",
        help="corrupted processors' vote behavior",
        choices=(
            "silent", "fixed0", "fixed1", "random",
            "equivocate", "anti_majority", "keep_split",
        ),
    ),
)
_aeba = param_reader(_AEBA_PARAMS)


def _aeba_check(n, params):
    """Cross-field constraints Algorithm 5's builder would hit late."""
    problem = sparse_degree_problem(n, params)
    if problem:
        return problem
    corrupted = int(float(params.get("corrupt") or 0.0) * n)
    bound = (n - 1) // 3
    if corrupted > bound:
        return (
            f"corrupt fraction {params['corrupt']} corrupts {corrupted} "
            f"of n = {n}, above the fault bound b(n) = {bound}"
        )
    return None


def _aeba_instance(ctx: TrialContext) -> BatchInstance:
    from ...core.coins import perfect_coin_source
    from ...core.unreliable_coin_ba import (
        SparseAEBAProcessor,
        vote_threshold,
    )
    from ...topology.sparse_graph import (
        random_regular_graph,
        theorem5_degree,
    )

    n = ctx.n
    num_rounds = int(_aeba(ctx, "num_rounds"))
    degree = _aeba(ctx, "degree")
    if degree is None:
        degree = theorem5_degree(n)
    graph = random_regular_graph(n, int(degree), ctx.rng("graph"))
    source = perfect_coin_source(n, num_rounds, ctx.rng("coins"))
    threshold = vote_threshold(
        float(_aeba(ctx, "epsilon")),
        float(_aeba(ctx, "epsilon0")),
    )
    inputs = input_bits(_aeba(ctx, "inputs"), n)
    protocols = [
        SparseAEBAProcessor(
            pid=p,
            input_bit=inputs[p],
            neighbors=sorted(graph[p]),
            coin_view=lambda idx, p=p: source.view(idx, p),
            num_rounds=num_rounds,
            threshold=threshold,
        )
        for p in range(n)
    ]
    # The `corrupt` fraction wires a real adversary speaking on the
    # sparse graph's own edges (a corrupted processor can only be heard
    # where the protocol listens).
    adversary = static_adversary(
        ctx,
        n,
        float(_aeba(ctx, "corrupt")),
        str(_aeba(ctx, "behavior")),
        recipients_of={p: sorted(graph[p]) for p in range(n)},
    )
    network = SyncNetwork(protocols, adversary)

    def collect(result: RunResult, ctx: TrialContext) -> TrialResult:
        from collections import Counter
        import math

        votes = Counter(
            protocols[p].vote
            for p in range(ctx.n)
            if p not in result.corrupted
        )
        top = max(votes.values()) / max(1, sum(votes.values()))
        coalesced = top >= 1 - 1 / math.log2(max(4, ctx.n))
        return TrialResult.make(
            ctx,
            metrics={
                "top_fraction": top,
                "coalesced": float(coalesced),
                "corrupted": float(len(result.corrupted)),
                "rounds": result.rounds,
                "max_bits_per_processor": (
                    result.ledger.max_bits_per_processor()
                ),
            },
            ledger=LedgerStats.from_ledger(result.ledger),
            ok=True,
        )

    return BatchInstance(
        network=network,
        max_steps=num_rounds + 2,
        collect=collect,
        ctx=ctx,
    )


register(
    Scenario(
        name="unreliable-coin-ba",
        build_instance=_aeba_instance,
        description=(
            "Algorithm 5 sparse-graph BA with perfect global coins "
            "(Lemma 13 coalescence unit)"
        ),
        params=_AEBA_PARAMS,
        metrics=(
            "coalesced", "corrupted", "max_bits_per_processor",
            "rounds", "top_fraction",
        ),
        smoke_n=24,
        smoke_params=(("num_rounds", 1),),
        check=_aeba_check,
    )
)


# --------------------------------------------------------------------------
# vss-coin (the on-demand committee coin of E19) — batchable.
# --------------------------------------------------------------------------


class _CrashFromStart(Adversary):
    """t members crash in round 1 and stay silent."""

    def __init__(self, k: int, t: int) -> None:
        super().__init__(k, budget=t)

    def select_corruptions(self, round_no: int):
        return set(range(self.budget)) if round_no == 1 else set()

    def act(self, view):
        return []


class _WithholdReveals(Adversary):
    """t members go silent exactly at the reveal round."""

    def __init__(self, k: int, t: int) -> None:
        super().__init__(k, budget=t)

    def select_corruptions(self, round_no: int):
        return set(range(self.budget)) if round_no == 4 else set()

    def act(self, view):
        return []


_VSS_COIN_PARAMS = (
    Param("k", int, None,
          help="committee size (auto: the spec's n)", minimum=1),
    Param(
        "adversary", str, "none",
        help="committee adversary",
        choices=("none", "crash", "withhold"),
    ),
)
_vss = param_reader(_VSS_COIN_PARAMS)


def _vss_check(n, params):
    """The committee is drawn from the network: ``k`` cannot exceed n."""
    k = params.get("k")
    if k is not None and int(k) > n:
        return f"committee size k = {k} exceeds the network size n = {n}"
    return None


def _vss_coin_instance(ctx: TrialContext) -> BatchInstance:
    from ...core.vss_coin import VSSCoinMember, vss_coin_fault_bound

    k = _vss(ctx, "k")
    k = ctx.n if k is None else int(k)
    t = vss_coin_fault_bound(k)
    kind = _vss(ctx, "adversary")
    if kind == "none":
        adversary: Adversary = NullAdversary(k)
    elif kind == "crash":
        adversary = _CrashFromStart(k, t)
    elif kind == "withhold":
        adversary = _WithholdReveals(k, t)
    else:
        raise ScenarioError(f"unknown vss-coin adversary {kind!r}")
    members = [VSSCoinMember(pid, k, seed=ctx.seed) for pid in range(k)]
    network = SyncNetwork(members, adversary)

    def collect(result: RunResult, ctx: TrialContext) -> TrialResult:
        # None outputs (an honest member that never decided) count as
        # disagreement — matching E19's original strict check.
        coins = set(result.good_outputs().values())
        agreed = len(coins) == 1 and next(iter(coins)) in (0, 1)
        return TrialResult.make(
            ctx,
            metrics={
                "agreed": float(agreed),
                "coin": float(coins.pop()) if agreed else -1.0,
                "corrupted": len(result.corrupted),
            },
            ledger=LedgerStats.from_ledger(result.ledger),
            ok=agreed,
        )

    return BatchInstance(
        network=network, max_steps=5, collect=collect, ctx=ctx
    )


def _vss_coin_prepare_wave(instances) -> None:
    """Bulk-deal every committee member across the whole wave.

    Each trial's round 1 has every member deal a symmetric bivariate
    sharing; staging all of them through one batched kernel pass
    (:func:`~repro.core.vss_coin.bulk_predeal`) consumes exactly the
    randomness the lazy per-member dealings would, so results stay
    bit-identical to the serial path.
    """
    from ...core.vss_coin import VSSCoinMember, bulk_predeal

    members = [
        protocol
        for instance in instances
        for protocol in instance.network.protocols
        if isinstance(protocol, VSSCoinMember)
    ]
    bulk_predeal(members)


register(
    Scenario(
        name="vss-coin",
        build_instance=_vss_coin_instance,
        prepare_wave=_vss_coin_prepare_wave,
        description=(
            "on-demand Canetti-Rabin-style committee coin (E19's "
            "per-coin alternative to the tournament)"
        ),
        params=_VSS_COIN_PARAMS,
        metrics=("agreed", "coin", "corrupted"),
        smoke_n=7,
        check=_vss_check,
    )
)


# --------------------------------------------------------------------------
# sampler-quality (Lemma 2 measurement, E8's unit)
# --------------------------------------------------------------------------

_SAMPLER_PARAMS = (
    Param("r", int, 100, help="committees sampled", minimum=1),
    Param("s", int, 300, help="universe size", minimum=1),
    Param("degree", int, 16, help="sampler degree", minimum=1),
    Param("theta", float, 0.15, help="bad-fraction threshold"),
    Param("bad_fraction", float, 0.25,
          help="fraction of the universe marked bad"),
    Param("inner_trials", int, 15,
          help="random bad sets per trial", minimum=1),
)
_sampler = param_reader(_SAMPLER_PARAMS)


def _sampler_quality_trial(ctx: TrialContext) -> TrialResult:
    from ...samplers.quality import (
        adversarial_bad_set,
        estimate_failure_fraction,
        fraction_of_bad_committees,
        measure_against_bad_set,
    )
    from ...samplers.sampler import Sampler

    r = int(_sampler(ctx, "r"))
    s = int(_sampler(ctx, "s"))
    degree = int(_sampler(ctx, "degree"))
    theta = float(_sampler(ctx, "theta"))
    bad_fraction = float(_sampler(ctx, "bad_fraction"))
    inner_trials = int(_sampler(ctx, "inner_trials"))

    sampler = Sampler.random(r, s, degree, ctx.rng("sampler"))
    bad_size = int(bad_fraction * s)
    random_delta = estimate_failure_fraction(
        sampler, bad_size, theta, trials=inner_trials,
        rng=ctx.rng("bad-sets"),
    )
    greedy = adversarial_bad_set(sampler, bad_size)
    greedy_delta = measure_against_bad_set(
        sampler, greedy, theta
    ).delta_measured
    bad_committees = fraction_of_bad_committees(
        sampler, greedy, good_threshold=2 / 3
    )
    return TrialResult.make(
        ctx,
        metrics={
            "delta_random": random_delta,
            "delta_greedy": greedy_delta,
            "bad_committees": bad_committees,
        },
        ok=True,
    )


register(
    Scenario(
        name="sampler-quality",
        run_trial=_sampler_quality_trial,
        description=(
            "Lemma 2 averaging-sampler failure fractions vs degree, "
            "random and greedy-adversarial bad sets"
        ),
        params=_SAMPLER_PARAMS,
        metrics=("bad_committees", "delta_greedy", "delta_random"),
        smoke_n=60,
        smoke_params=(
            ("r", 20), ("s", 60), ("degree", 8), ("inner_trials", 4),
        ),
    )
)
