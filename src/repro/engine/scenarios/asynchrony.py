"""Scenarios for the asynchronous stack (the paper's open problem).

Every scenario here declares ``build_instance``: the builder returns a
ready :class:`~repro.asynchrony.scheduler.AsyncNetwork` plus collector,
which the engine's batch backend multiplexes breadth-first over
delivery steps — and from which the serial ``run_trial`` is derived,
so all backends execute the same construction.

Per-trial determinism is seed forking all the way down: the delivery
scheduler, each process's private coins, and the common-coin oracle
each draw from a labelled child of the trial seed.

Each scenario declares its :class:`Param` schema once, above the
builder, and the builder reads every parameter through
:func:`~repro.engine.scenarios.common.param_reader` — the declaration
is the single source of defaults.
"""

from __future__ import annotations

import random
from typing import Optional

from ...asynchrony.scheduler import NullAsyncAdversary
from ...net.rng import derive_seed
from ..registry import BatchInstance, Scenario, register
from ..scenario import Param
from ..spec import LedgerStats, TrialContext, TrialResult
from .common import (
    INPUTS_PARAM,
    SCHEDULER_PARAM,
    dealer_problem,
    input_bits,
    make_scheduler,
    param_reader,
    sparse_degree_problem,
    vote_threshold_problem,
)


def _collect_async_agreement(result, ctx: TrialContext) -> TrialResult:
    """Fold an async binary-agreement run into a shared metric contract."""
    good = result.good_outputs()
    decided = [v for v in good.values() if v is not None]
    value = result.agreement_value()
    agreed = value is not None and len(decided) == len(good)
    return TrialResult.make(
        ctx,
        metrics={
            "agreed": float(agreed),
            "value": float(value) if value is not None else -1.0,
            "decided_fraction": result.decided_fraction(),
            "steps": float(result.steps),
        },
        ledger=LedgerStats.from_ledger(result.ledger),
        ok=agreed,
    )


# --------------------------------------------------------------------------
# async-benor — Ben-Or with local coins on the asynchronous scheduler.
# --------------------------------------------------------------------------

_ASYNC_BENOR_PARAMS = (
    INPUTS_PARAM,
    Param("max_phases", int, 64, help="phase cap", minimum=1),
    SCHEDULER_PARAM,
)
_abenor = param_reader(_ASYNC_BENOR_PARAMS)


def _async_benor_instance(ctx: TrialContext) -> BatchInstance:
    from ...asynchrony.benor_async import AsyncBenOrProcess
    from ...asynchrony.scheduler import AsyncNetwork

    n = ctx.n
    inputs = input_bits(_abenor(ctx, "inputs"), n)
    max_phases = int(_abenor(ctx, "max_phases"))
    processes = [
        AsyncBenOrProcess(
            pid, n, inputs[pid],
            rng=random.Random(derive_seed(ctx.seed, "process", pid)),
            max_phases=max_phases,
        )
        for pid in range(n)
    ]
    network = AsyncNetwork(
        processes,
        NullAsyncAdversary(n),
        scheduler=make_scheduler(ctx, _abenor(ctx, "scheduler")),
    )
    return BatchInstance(
        network=network,
        max_steps=50 * n * n * max_phases,
        collect=_collect_async_agreement,
        ctx=ctx,
    )


register(
    Scenario(
        name="async-benor",
        build_instance=_async_benor_instance,
        description=(
            "asynchronous Ben-Or with local coins (t < n/5, "
            "exponential expected phases — E15's slow lane)"
        ),
        params=_ASYNC_BENOR_PARAMS,
        metrics=("agreed", "decided_fraction", "steps", "value"),
        smoke_n=5,
    )
)


# --------------------------------------------------------------------------
# common-coin-ba — the same skeleton driven by a common coin oracle.
# --------------------------------------------------------------------------

_COMMON_COIN_PARAMS = (
    INPUTS_PARAM,
    Param("max_phases", int, 64, help="phase cap", minimum=1),
    SCHEDULER_PARAM,
)
_ccoin = param_reader(_COMMON_COIN_PARAMS)


def _common_coin_instance(ctx: TrialContext) -> BatchInstance:
    from ...asynchrony.common_coin import CoinBAProcess, SeededCoinOracle
    from ...asynchrony.scheduler import AsyncNetwork

    n = ctx.n
    inputs = input_bits(_ccoin(ctx, "inputs"), n)
    max_phases = int(_ccoin(ctx, "max_phases"))
    oracle = SeededCoinOracle(derive_seed(ctx.seed, "oracle"))
    processes = [
        CoinBAProcess(pid, n, inputs[pid], oracle, max_phases=max_phases)
        for pid in range(n)
    ]
    network = AsyncNetwork(
        processes,
        NullAsyncAdversary(n),
        scheduler=make_scheduler(ctx, _ccoin(ctx, "scheduler")),
    )
    return BatchInstance(
        network=network,
        max_steps=50 * n * n * max_phases,
        collect=_collect_async_agreement,
        ctx=ctx,
    )


register(
    Scenario(
        name="common-coin-ba",
        build_instance=_common_coin_instance,
        description=(
            "asynchronous BA on a common coin oracle — expected O(1) "
            "phases, the async analogue of the paper's coin (E15)"
        ),
        params=_COMMON_COIN_PARAMS,
        metrics=("agreed", "decided_fraction", "steps", "value"),
        smoke_n=6,
    )
)


# --------------------------------------------------------------------------
# bracha-broadcast — reliable broadcast, the standard async primitive.
# --------------------------------------------------------------------------

_BRACHA_PARAMS = (
    Param("dealer", int, 0, help="broadcasting processor", minimum=0),
    Param("value", int, 42, help="broadcast value"),
    SCHEDULER_PARAM,
)
_bracha = param_reader(_BRACHA_PARAMS)


def _bracha_instance(ctx: TrialContext) -> BatchInstance:
    from ...asynchrony.bracha import BrachaBroadcaster
    from ...asynchrony.scheduler import AsyncNetwork

    n = ctx.n
    dealer = int(_bracha(ctx, "dealer"))
    value = int(_bracha(ctx, "value"))
    processes = [
        BrachaBroadcaster(pid, n, dealer, value if pid == dealer else None)
        for pid in range(n)
    ]
    network = AsyncNetwork(
        processes,
        NullAsyncAdversary(n),
        scheduler=make_scheduler(ctx, _bracha(ctx, "scheduler")),
    )

    def collect(result, ctx: TrialContext) -> TrialResult:
        good = result.good_outputs()
        accepted = sum(1 for v in good.values() if v == value)
        return TrialResult.make(
            ctx,
            metrics={
                "accepted_fraction": (
                    accepted / len(good) if good else 0.0
                ),
                "steps": float(result.steps),
                "messages": float(result.ledger.total_messages()),
            },
            ledger=LedgerStats.from_ledger(result.ledger),
            ok=bool(good) and accepted == len(good),
        )

    return BatchInstance(
        network=network,
        max_steps=10 * n * n,
        collect=collect,
        ctx=ctx,
    )


register(
    Scenario(
        name="bracha-broadcast",
        build_instance=_bracha_instance,
        description=(
            "Bracha reliable broadcast (t < n/3) — the Theta(n^2) "
            "async building block (E15)"
        ),
        params=_BRACHA_PARAMS,
        metrics=("accepted_fraction", "messages", "steps"),
        smoke_n=7,
        check=dealer_problem,
    )
)


# --------------------------------------------------------------------------
# async-sparse-aeba — Algorithm 5 over the sparse synchronizer.
# --------------------------------------------------------------------------

_SPARSE_AEBA_PARAMS = (
    INPUTS_PARAM,
    Param("num_rounds", int, None,
          help="algorithm rounds (auto: max(8, degree/2))", minimum=1),
    Param("degree", int, None,
          help="graph degree (auto: Theorem 5's k log n)"),
    Param("epsilon", float, 1 / 12, help="protocol epsilon"),
    Param("epsilon0", float, 0.05, help="coin unreliability"),
    Param(
        "scheduler", str, "fifo",
        help="asynchronous delivery order",
        choices=("fifo", "random"),
    ),
)
_saeba = param_reader(_SPARSE_AEBA_PARAMS)


def _async_sparse_aeba_check(n, params):
    """The sparse graph's degree and Algorithm 5's epsilons."""
    return sparse_degree_problem(n, params) or vote_threshold_problem(params)


def _async_sparse_aeba_instance(ctx: TrialContext) -> BatchInstance:
    from ...asynchrony.scheduler import AsyncNetwork
    from ...asynchrony.sparse_aeba import OracleCoinView
    from ...asynchrony.synchronizer import SynchronizedProcess
    from ...core.unreliable_coin_ba import (
        SparseAEBAProcessor,
        vote_threshold,
    )
    from ...topology.sparse_graph import (
        random_regular_graph,
        theorem5_degree,
    )

    n = ctx.n
    degree = _saeba(ctx, "degree")
    if degree is None:
        degree = theorem5_degree(n)
    degree = int(degree)
    num_rounds = _saeba(ctx, "num_rounds")
    if num_rounds is None:
        num_rounds = max(8, degree // 2)
    num_rounds = int(num_rounds)
    adjacency = random_regular_graph(n, degree, ctx.rng("graph"))
    coin = OracleCoinView(derive_seed(ctx.seed, "coins"))
    threshold = vote_threshold(
        float(_saeba(ctx, "epsilon")),
        float(_saeba(ctx, "epsilon0")),
    )
    inputs = input_bits(_saeba(ctx, "inputs"), n)
    max_rounds = num_rounds + 2
    protocols = [
        SparseAEBAProcessor(
            pid,
            inputs[pid],
            sorted(adjacency[pid]),
            coin_view=lambda r, p=0: coin.view(r, p),
            num_rounds=num_rounds,
            threshold=threshold,
        )
        for pid in range(n)
    ]
    processes = [
        SynchronizedProcess(
            pid, n, protocols[pid], max_rounds,
            fault_bound=0,
            peers=sorted(adjacency[pid]),
        )
        for pid in range(n)
    ]
    network = AsyncNetwork(
        processes,
        NullAsyncAdversary(n),
        scheduler=make_scheduler(ctx, _saeba(ctx, "scheduler")),
    )

    def collect(result, ctx: TrialContext) -> TrialResult:
        good = result.good_outputs()
        decided = [v for v in good.values() if v is not None]
        agreed_bit: Optional[int] = None
        agreement_fraction = 0.0
        if decided:
            ones = sum(decided)
            agreed_bit = 1 if ones * 2 >= len(decided) else 0
            agreement_fraction = (
                decided.count(agreed_bit) / len(good) if good else 0.0
            )
        return TrialResult.make(
            ctx,
            metrics={
                "agreement_fraction": agreement_fraction,
                "agreed_bit": (
                    float(agreed_bit) if agreed_bit is not None else -1.0
                ),
                "steps": float(result.steps),
                "rounds_simulated": float(
                    max(p.rounds_simulated for p in processes)
                ),
            },
            ledger=LedgerStats.from_ledger(result.ledger),
            ok=agreement_fraction >= 0.9,
        )

    return BatchInstance(
        network=network,
        max_steps=20 * n * n * max_rounds,
        collect=collect,
        ctx=ctx,
    )


register(
    Scenario(
        name="async-sparse-aeba",
        build_instance=_async_sparse_aeba_instance,
        description=(
            "Algorithm 5 on a sparse graph over the envelope "
            "synchronizer — the async almost-everywhere experiment"
        ),
        params=_SPARSE_AEBA_PARAMS,
        metrics=(
            "agreed_bit", "agreement_fraction", "rounds_simulated",
            "steps",
        ),
        smoke_n=16,
        smoke_params=(("num_rounds", 2),),
        check=_async_sparse_aeba_check,
    )
)
