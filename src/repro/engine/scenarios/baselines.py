"""Scenarios for the quadratic-cost baselines (benchmark E12's cast).

The four full-mesh agreement baselines (Ben-Or, EIG, Phase King, Rabin)
are **batchable**: each builder returns the same
:class:`~repro.net.simulator.SyncNetwork` construction its
``repro.baselines.run_*`` counterpart drives, so the batch backend
multiplexes their round loops.  All four share one metric contract
(``agreed``/``value``/``decided_fraction``/``rounds``) and a ``corrupt``
fraction wiring the standard static adversary.

The two broadcast-flavoured baselines (CPA on a sparse graph, the
DISC'09 almost-everywhere-to-everywhere amplifier) build their own
networks internally and register as isolated-trial scenarios.

Each scenario declares its :class:`Param` schema once, above the
builder, and the builder reads every parameter through
:func:`~repro.engine.scenarios.common.param_reader` — the declaration
is the single source of defaults.
"""

from __future__ import annotations

import random
from functools import partial

from ...net.rng import derive_seed
from ...net.simulator import RunResult, SyncNetwork
from ..registry import BatchInstance, Scenario, register
from ..scenario import Param
from ..spec import LedgerStats, TrialContext, TrialResult
from .common import (
    INPUTS_PARAM,
    dealer_problem,
    input_bits,
    param_reader,
    sparse_degree_problem,
    static_adversary,
)

_CORRUPT_PARAM = Param(
    "corrupt", float, 0.0,
    help="statically corrupted fraction of n",
    minimum=0.0, maximum=0.5,
)

_BEHAVIOR_PARAM = Param(
    "behavior", str, "silent",
    help="corrupted processors' behavior (silent = crash faults)",
    choices=(
        "silent", "fixed0", "fixed1", "random", "equivocate",
        "anti_majority", "keep_split",
    ),
)

#: The agreement metric contract every full-mesh baseline shares.
_AGREEMENT_METRICS = ("agreed", "decided_fraction", "rounds", "value")


def _collect_agreement(
    result: RunResult, ctx: TrialContext
) -> TrialResult:
    """Fold a binary-agreement run into the shared metric contract."""
    good = result.good_outputs()
    decided = [v for v in good.values() if v is not None]
    value = result.agreement_value()
    agreed = value is not None and len(decided) == len(good)
    return TrialResult.make(
        ctx,
        metrics={
            "agreed": float(agreed),
            "value": float(value) if value is not None else -1.0,
            "decided_fraction": (
                len(decided) / len(good) if good else 0.0
            ),
            "rounds": result.rounds,
        },
        ledger=LedgerStats.from_ledger(result.ledger),
        ok=agreed,
    )


# --------------------------------------------------------------------------
# benor — randomized agreement with local coins (t < n/5).
# --------------------------------------------------------------------------

_BENOR_PARAMS = (
    INPUTS_PARAM,
    Param("max_phases", int, 64, help="phase cap", minimum=1),
    _CORRUPT_PARAM,
    _BEHAVIOR_PARAM,
)
_benor = param_reader(_BENOR_PARAMS)


def _benor_instance(ctx: TrialContext) -> BatchInstance:
    from ...baselines.benor import BenOrProcessor

    n = ctx.n
    inputs = input_bits(_benor(ctx, "inputs"), n)
    max_phases = int(_benor(ctx, "max_phases"))
    protocols = [
        BenOrProcessor(
            pid, n, inputs[pid],
            rng=random.Random(derive_seed(ctx.seed, "process", pid)),
            max_phases=max_phases,
        )
        for pid in range(n)
    ]
    adversary = static_adversary(
        ctx, n, float(_benor(ctx, "corrupt")),
        str(_benor(ctx, "behavior")), vote_tag="propose",
    )
    network = SyncNetwork(protocols, adversary)
    return BatchInstance(
        network=network,
        max_steps=2 * max_phases + 2,
        collect=_collect_agreement,
        ctx=ctx,
    )


register(
    Scenario(
        name="benor",
        build_instance=_benor_instance,
        description=(
            "Ben-Or randomized agreement with local coins only "
            "(what a global coin buys, E12)"
        ),
        params=_BENOR_PARAMS,
        metrics=_AGREEMENT_METRICS,
        smoke_n=8,
    )
)


# --------------------------------------------------------------------------
# eig — deterministic exponential-information-gathering (t < n/3).
# --------------------------------------------------------------------------

_EIG_PARAMS = (
    INPUTS_PARAM,
    Param("t", int, None,
          help="fault bound (auto: floor((n-1)/3))", minimum=0),
    _CORRUPT_PARAM,
    _BEHAVIOR_PARAM,
)
_eig = param_reader(_EIG_PARAMS)


def _eig_instance(ctx: TrialContext) -> BatchInstance:
    from ...baselines.eig import (
        EIGProcessor,
        EIGRelayAdversary,
        eig_fault_bound,
    )

    n = ctx.n
    inputs = input_bits(_eig(ctx, "inputs"), n)
    t = _eig(ctx, "t")
    if t is None:
        t = eig_fault_bound(n)
    t = int(t)
    protocols = [
        EIGProcessor(pid, n, inputs[pid], t) for pid in range(n)
    ]
    adversary = static_adversary(
        ctx, n, float(_eig(ctx, "corrupt")),
        str(_eig(ctx, "behavior")),
        make=partial(EIGRelayAdversary, t=t),
    )
    network = SyncNetwork(protocols, adversary)
    return BatchInstance(
        network=network,
        max_steps=t + 2,
        collect=_collect_agreement,
        ctx=ctx,
    )


register(
    Scenario(
        name="eig",
        build_instance=_eig_instance,
        description=(
            "exponential information gathering: deterministic BA in "
            "t+1 rounds, exponential tree state (E12)"
        ),
        params=_EIG_PARAMS,
        metrics=_AGREEMENT_METRICS,
        smoke_n=7,
    )
)


# --------------------------------------------------------------------------
# phase-king — deterministic O(n*f) bits per processor (t < n/4).
# --------------------------------------------------------------------------

_PHASE_KING_PARAMS = (
    INPUTS_PARAM,
    Param("num_phases", int, None,
          help="phases to run (auto: fault bound + 1)", minimum=1),
    _CORRUPT_PARAM,
    _BEHAVIOR_PARAM,
)
_pk = param_reader(_PHASE_KING_PARAMS)


def _phase_king_instance(ctx: TrialContext) -> BatchInstance:
    from ...baselines.phase_king import (
        PhaseKingProcessor,
        phase_king_fault_bound,
    )

    n = ctx.n
    inputs = input_bits(_pk(ctx, "inputs"), n)
    num_phases = _pk(ctx, "num_phases")
    if num_phases is None:
        num_phases = phase_king_fault_bound(n) + 1
    num_phases = int(num_phases)
    protocols = [
        PhaseKingProcessor(pid, n, inputs[pid], num_phases)
        for pid in range(n)
    ]
    adversary = static_adversary(
        ctx, n, float(_pk(ctx, "corrupt")),
        str(_pk(ctx, "behavior")),
    )
    network = SyncNetwork(protocols, adversary)
    return BatchInstance(
        network=network,
        max_steps=2 * num_phases + 1,
        collect=_collect_agreement,
        ctx=ctx,
    )


register(
    Scenario(
        name="phase-king",
        build_instance=_phase_king_instance,
        description=(
            "Phase King deterministic agreement, the O(n*f)-bits "
            "baseline of the cost-model comparison (E12)"
        ),
        params=_PHASE_KING_PARAMS,
        metrics=_AGREEMENT_METRICS,
        smoke_n=9,
    )
)


# --------------------------------------------------------------------------
# rabin — randomized agreement with a trusted shared coin.
# --------------------------------------------------------------------------

_RABIN_PARAMS = (
    INPUTS_PARAM,
    Param("max_rounds", int, 64, help="round cap", minimum=1),
    _CORRUPT_PARAM,
    _BEHAVIOR_PARAM,
)
_rabin = param_reader(_RABIN_PARAMS)


def _rabin_instance(ctx: TrialContext) -> BatchInstance:
    from ...baselines.rabin import RabinProcessor

    n = ctx.n
    inputs = input_bits(_rabin(ctx, "inputs"), n)
    max_rounds = int(_rabin(ctx, "max_rounds"))
    coin_rng = ctx.rng("coins")
    coins = [coin_rng.randrange(2) for _ in range(max_rounds + 1)]
    protocols = [
        RabinProcessor(
            pid, n, inputs[pid],
            coin_of_round=lambda r: coins[r % len(coins)],
            max_rounds=max_rounds,
        )
        for pid in range(n)
    ]
    adversary = static_adversary(
        ctx, n, float(_rabin(ctx, "corrupt")),
        str(_rabin(ctx, "behavior")),
    )
    network = SyncNetwork(protocols, adversary)
    return BatchInstance(
        network=network,
        max_steps=max_rounds + 2,
        collect=_collect_agreement,
        ctx=ctx,
    )


register(
    Scenario(
        name="rabin",
        build_instance=_rabin_instance,
        description=(
            "Rabin randomized agreement with a trusted shared coin "
            "(O(1) expected rounds, E12)"
        ),
        params=_RABIN_PARAMS,
        metrics=_AGREEMENT_METRICS,
        smoke_n=9,
    )
)


# --------------------------------------------------------------------------
# cpa — certified propagation broadcast on a sparse random graph.
# --------------------------------------------------------------------------

_CPA_PARAMS = (
    Param("dealer", int, 0, help="broadcasting processor", minimum=0),
    Param("value", int, 1, help="broadcast value"),
    Param("degree", int, None,
          help="graph degree (auto: Theorem 5's k log n)"),
    Param("rounds", int, None,
          help="propagation rounds (auto: 3n)", minimum=1),
)
_cpa = param_reader(_CPA_PARAMS)


def _cpa_check(n, params):
    """A constructible graph and a dealer among the ``n`` processors."""
    return sparse_degree_problem(n, params) or dealer_problem(n, params)


def _cpa_trial(ctx: TrialContext) -> TrialResult:
    from ...baselines.cpa import run_cpa

    n = ctx.n
    degree = _cpa(ctx, "degree")
    rounds = _cpa(ctx, "rounds")
    outcome = run_cpa(
        n,
        dealer=int(_cpa(ctx, "dealer")),
        value=int(_cpa(ctx, "value")),
        degree=int(degree) if degree is not None else None,
        seed=ctx.seed,
        rounds=int(rounds) if rounds is not None else None,
    )
    return TrialResult.make(
        ctx,
        metrics={
            "reached_fraction": outcome.reached_fraction,
            "accepted_wrong": float(outcome.accepted_wrong),
            "unreached": float(outcome.unreached),
            "degree": float(outcome.degree),
        },
        ok=outcome.accepted_wrong == 0 and outcome.reached_fraction > 0,
    )


register(
    Scenario(
        name="cpa",
        run_trial=_cpa_trial,
        description=(
            "certified-propagation broadcast on a random regular "
            "graph (sparse-broadcast baseline, E20)"
        ),
        params=_CPA_PARAMS,
        metrics=(
            "accepted_wrong", "degree", "reached_fraction", "unreached",
        ),
        smoke_n=16,
        check=_cpa_check,
    )
)


# --------------------------------------------------------------------------
# disc09-ae2e — the DISC'09 almost-everywhere-to-everywhere amplifier.
# --------------------------------------------------------------------------

_DISC09_PARAMS = (
    Param("knowledgeable", float, 0.7,
          help="fraction of processors that start knowing",
          minimum=0.0, maximum=1.0),
    Param("message", int, 1, help="the value being spread"),
    Param("a", float, 6.0, help="fanout constant (a * log n)"),
)
_disc09 = param_reader(_DISC09_PARAMS)


def _disc09_trial(ctx: TrialContext) -> TrialResult:
    from ...baselines.disc09_ae2e import run_disc09_ae2e

    n = ctx.n
    fraction = float(_disc09(ctx, "knowledgeable"))
    count = max(1, min(n, int(fraction * n)))
    message = int(_disc09(ctx, "message"))
    result = run_disc09_ae2e(
        n,
        knowledgeable=set(range(count)),
        message=message,
        seed=ctx.seed,
        a=float(_disc09(ctx, "a")),
    )
    good = result.good_outputs()
    reached = sum(1 for v in good.values() if v == message)
    return TrialResult.make(
        ctx,
        metrics={
            "reached_fraction": reached / len(good) if good else 0.0,
            "rounds": result.rounds,
        },
        ledger=LedgerStats.from_ledger(result.ledger),
        ok=bool(good) and reached == len(good),
    )


register(
    Scenario(
        name="disc09-ae2e",
        run_trial=_disc09_trial,
        description=(
            "DISC'09 push amplifier: spread an almost-everywhere "
            "message to everyone (the predecessor's final hop)"
        ),
        params=_DISC09_PARAMS,
        metrics=("reached_fraction", "rounds"),
        smoke_n=40,
    )
)
