"""Shared helpers for scenario modules.

Small, deterministic building blocks: input-bit patterns, the standard
crash-fault adversary wiring behind a ``corrupt`` fraction, and
scheduler construction for asynchronous scenarios.  Everything derives
its randomness from the trial context, never from global state.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence

from ...adversary.behaviors import behavior_by_name
from ...adversary.static import StaticByzantineAdversary, random_target_set
from ...asynchrony.scheduler import (
    FIFOScheduler,
    RandomScheduler,
    Scheduler,
)
from ...net.rng import derive_seed
from ...net.simulator import Adversary, NullAdversary
from ..scenario import Param, ScenarioError, defaults_of
from ..spec import TrialContext


def param_reader(schema):
    """A ``get(ctx, name)`` reader whose defaults come from the schema.

    Scenario builders read every parameter through this, so the declared
    :class:`Param` defaults are the single source of truth — what
    ``--list`` advertises is what runs.
    """
    defaults = defaults_of(tuple(schema))

    def get(ctx: TrialContext, name: str):
        return ctx.param(name, defaults[name])

    return get

#: The ``inputs`` parameter every agreement scenario shares.
INPUT_PATTERNS = ("split", "thirds", "ones", "zeros")

INPUTS_PARAM = Param(
    "inputs", str, "split",
    help="input-bit pattern per processor",
    choices=INPUT_PATTERNS,
)

SCHEDULER_PARAM = Param(
    "scheduler", str, "random",
    help="asynchronous delivery order",
    choices=("fifo", "random"),
)


def input_bits(pattern: str, n: int) -> List[int]:
    """The input bit of every processor under a named pattern."""
    if pattern == "split":
        return [p % 2 for p in range(n)]
    if pattern == "thirds":
        return [1 if p % 3 else 0 for p in range(n)]
    if pattern == "ones":
        return [1] * n
    if pattern == "zeros":
        return [0] * n
    raise ScenarioError(f"unknown input pattern {pattern!r}")


def static_adversary(
    ctx: TrialContext,
    n: int,
    corrupt: float,
    behavior: str,
    recipients_of: Optional[Dict[int, Sequence[int]]] = None,
    vote_tag: str = "vote",
    make: Callable[..., Adversary] = StaticByzantineAdversary,
) -> Adversary:
    """The standard static adversary behind a ``corrupt`` fraction.

    Picks ``floor(corrupt * n)`` targets from the trial's own seed tree
    and wires a named :mod:`~repro.adversary.behaviors` vote behavior —
    silent (crash) by default in the scenarios that use it.  A zero
    fraction yields :class:`NullAdversary`, keeping fault-free specs
    bit-identical to the pre-schema engine.  A protocol that reads
    more than bare votes passes ``make``, a
    :class:`StaticByzantineAdversary` subclass that speaks its messages
    from the same targets, behavior and seed (EIG's relays).
    """
    if corrupt <= 0:
        return NullAdversary(n)
    targets = random_target_set(n, corrupt, ctx.rng("adversary-targets"))
    if not targets:
        return NullAdversary(n)
    return make(
        n,
        targets,
        behavior_by_name(behavior),
        recipients_of=recipients_of,
        vote_tag=vote_tag,
        seed=derive_seed(ctx.seed, "adversary"),
    )


def make_scheduler(ctx: TrialContext, name: str) -> Scheduler:
    """A per-trial scheduler: FIFO, or seed-forked random delivery."""
    if name == "fifo":
        return FIFOScheduler()
    if name == "random":
        return RandomScheduler(derive_seed(ctx.seed, "scheduler"))
    raise ScenarioError(f"unknown scheduler {name!r}")


def sparse_degree_problem(n: int, params: Dict) -> Optional[str]:
    """Cross-field check shared by the sparse-graph scenarios.

    An explicit ``degree`` must give a graph with edges that
    ``random_regular_graph`` can build (``1 <= degree < n``): with
    degree 0 no message leaves its sender, so the run would measure
    nothing.  ``None`` means auto-derived from ``n`` and is always
    legal.
    """
    degree = params.get("degree")
    if degree is not None and int(degree) < 1:
        return f"degree {degree} must be >= 1"
    if degree is not None and int(degree) >= n:
        return (
            f"degree {degree} must be < n = {n} "
            "(the sparse graph needs room for every edge)"
        )
    return None


def vote_threshold_problem(params: Dict) -> Optional[str]:
    """Cross-field check for Algorithm 5's commit threshold.

    ``epsilon`` must lie in (0, 1/3), as ``ProtocolParameters``
    requires, and ``epsilon0`` in [0, 1).  Outside them the threshold
    (1 - eps0)(2/3 + eps/2) can reach 0 or below, where every
    processor keeps its majority and none reads the coin.
    """
    epsilon = float(params["epsilon"])
    epsilon0 = float(params["epsilon0"])
    if not 0 < epsilon < 1 / 3:
        return f"epsilon {epsilon} must lie in (0, 1/3)"
    if not 0 <= epsilon0 < 1:
        return f"epsilon0 {epsilon0} must lie in [0, 1)"
    return None


def dealer_problem(n: int, params: Dict) -> Optional[str]:
    """Cross-field check for broadcasts: the ``dealer`` is one of ``n``."""
    dealer = int(params.get("dealer") or 0)
    if dealer >= n:
        return f"dealer {dealer} out of range for n = {n} processors"
    return None
