"""Closed-form bit-complexity models (Lemma 5, Theorems 1/2/4).

Python cannot message-level-simulate n = 10^6 (repro band: "too slow for
large-n scaling experiments"), so the large-n scaling curves pair the
small-n simulator with these models, which count the same messages the
simulator sends.  Tests cross-validate model vs simulator at small n;
benchmark E10 reports both.

All functions return bits *per processor* unless noted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable, Dict, Mapping, Optional, Sequence, Tuple

from ..core.parameters import ProtocolParameters, log2n
from ..topology.sparse_graph import theorem5_degree


@dataclass(frozen=True)
class CostBreakdown:
    """Per-phase cost components of one protocol execution."""

    phases: Dict[str, float]

    @property
    def total(self) -> float:
        """Total modelled bits summed over all phases."""
        return sum(self.phases.values())


# -- Lemma 5: the almost-everywhere tournament ---------------------------------------


def aeba_cost_paper(n: int, delta: float = 5.0, c: float = 1.0) -> CostBreakdown:
    """Lemma 5's accounting with the paper's asymptotic parameters.

    Terms (quoting the proof):

        O~((q + k1)(q + l* w q) + l*(wq)^2 + k1 (wq)^2 + w^2 q^3
           + sum_l d_m^l (wq)^2)

    with w = O(log^3 n), l* = log(n/k1)/log q, d_m = c' log^4 n,
    k1 = log^3 n and q = (log n)^delta.  The last (share replication)
    term dominates and evaluates to O~(n^{4/delta}).
    """
    ln = log2n(n)
    q = ln**delta
    k1 = ln**3
    w = 5 * c * ln**3
    lstar = max(1.0, math.log(max(n / k1, 2.0)) / math.log(max(q, 2.0)))
    d_m = ln**4  # c' log^4 n, c' = 1

    wq = w * q
    phases = {
        "initial_share": (q + k1) * (q + lstar * wq),
        "bin_agreement": lstar * wq**2,
        "leaf_reconstruct": k1 * wq**2,
        "send_open": w**2 * q**3,
        "share_replication": sum(
            d_m**level * wq**2 for level in range(1, int(lstar) + 1)
        ),
    }
    return CostBreakdown(phases=phases)


def aeba_bits_per_processor_paper(
    n: int, delta: float = 5.0, c: float = 1.0
) -> float:
    """Headline Theorem 2 figure: O~(n^{4/delta}) bits per processor."""
    return aeba_cost_paper(n, delta, c).total


def aeba_asymptotic_exponent(delta: float) -> float:
    """The n-exponent of Theorem 2's bit bound: 4 / delta."""
    return 4.0 / delta


# -- Theorem 4: almost-everywhere to everywhere ------------------------------------------


def ae_to_everywhere_cost(
    params: ProtocolParameters, loops: int, message_bits: Optional[int] = None
) -> CostBreakdown:
    """Per-processor cost of ``loops`` iterations of Algorithm 3.

    Per loop each processor sends sqrt(n) * a log n requests of
    log(sqrt(n)) bits and answers up to sqrt(n) log n requests with the
    message — O~(sqrt(n)) total, the dominant cost of Theorem 1.
    """
    if message_bits is None:
        message_bits = params.word_bits
    sqrt_n = params.sqrt_n()
    fanout = params.request_fanout()
    label_bits = max(1, math.ceil(math.log2(sqrt_n + 1)))
    requests = sqrt_n * fanout * label_bits
    responses = params.overload_limit() * message_bits
    return CostBreakdown(
        phases={
            "requests": loops * requests,
            "responses": loops * responses,
        }
    )


def everywhere_ba_bits_per_processor(
    n: int,
    delta: float = 5.0,
    coin_iterations: Optional[int] = None,
) -> float:
    """Theorem 1's per-processor bits: tournament + wq iterations of Alg. 3.

    With delta chosen so n^{4/delta} = O~(sqrt(n)) (delta >= 8) the
    Algorithm 3 phase dominates at O~(sqrt(n)).
    """
    params = ProtocolParameters.paper(n, delta=delta)
    if coin_iterations is None:
        coin_iterations = max(
            1, int(params.winners_per_election) * int(params.q)
        )
        # wq is polylog; cap the model at log^4 n iterations as the paper's
        # X = Theta(log n) repetition bound implies.
        coin_iterations = min(coin_iterations, int(log2n(n) ** 4))
    tournament = aeba_bits_per_processor_paper(n, delta=delta)
    push = ae_to_everywhere_cost(params, loops=coin_iterations).total
    return tournament + push


def sparse_aeba_bits_per_processor(
    n: int, rounds: int = 6, word_bits: float = 1.0
) -> float:
    """Algorithm 5 per-processor bits: degree x rounds x vote size.

    On the Theorem 5 graph (degree k log n) each processor sends one
    vote to every neighbor per round.
    """
    from ..topology.sparse_graph import theorem5_degree

    return theorem5_degree(n) * rounds * word_bits


def replicated_log_marginal_bits(
    n: int, aeba_rounds: int = 6, ae2e_loops: int = 2
) -> float:
    """Marginal per-slot bits of the repeated-agreement layer (E22).

    Once the tournament is sunk, a log slot pays only Algorithm 5 on the
    sparse graph plus Algorithm 3's everywhere push.
    """
    params = ProtocolParameters.simulation(n)
    aeba = sparse_aeba_bits_per_processor(n, rounds=aeba_rounds)
    push = ae_to_everywhere_cost(params, loops=ae2e_loops).total
    return aeba + push


def replicated_log_amortized_bits(
    n: int, slots: int, aeba_rounds: int = 6, ae2e_loops: int = 2
) -> float:
    """Amortized per-processor bits per slot of an m-slot log (E22).

    The tournament term (simulation-preset constants, as in
    :func:`everywhere_ba_bits_simulation`) divides across the log; the
    marginal term is paid per slot.
    """
    if slots < 1:
        raise ValueError(f"need at least one slot, got {slots}")
    params = ProtocolParameters.simulation(n)
    ln = log2n(n)
    tournament = (
        params.k1 * params.uplink_degree * params.block_words(2) * ln**2
    )
    return tournament / slots + replicated_log_marginal_bits(
        n, aeba_rounds=aeba_rounds, ae2e_loops=ae2e_loops
    )


# -- Baseline models --------------------------------------------------------------------


def everywhere_ba_bits_simulation(n: int, loops: int = 8) -> float:
    """Theorem 1's cost with *simulation-preset* constants.

    The paper-preset model (:func:`everywhere_ba_bits_per_processor`)
    takes the asymptotic parameters literally, whose polylog factors
    (log^30 n and worse) dwarf n^2 until absurd scales.  Real deployments
    would tune constants the way the simulation preset does; this model
    gives the practically-relevant crossover against the baselines.
    """
    params = ProtocolParameters.simulation(n)
    # Tournament traffic per processor: committee appearances x per-level
    # share fan-out (uplink_degree words per record, polylog records).
    ln = log2n(n)
    tournament = (
        params.k1 * params.uplink_degree * params.block_words(2) * ln**2
    )
    push = ae_to_everywhere_cost(params, loops=loops).total
    return tournament + push


def phase_king_bits_per_processor(n: int) -> float:
    """(f+1) phases x 2 all-to-all rounds x 1-bit payloads ~= n^2 / 2."""
    f = max(0, (n - 1) // 4)
    return (f + 1) * 2.0 * (n - 1)


def rabin_bits_per_processor(n: int, expected_rounds: float = 4.0) -> float:
    """All-to-all votes for O(1) expected rounds: Theta(n) per processor."""
    return expected_rounds * (n - 1)


def benor_bits_per_processor(n: int, fault_fraction: float = 0.1) -> float:
    """Local-coin agreement: expected rounds blow up exponentially in the
    fault count; modelled as 2^(c t^2 / n) rounds of 2(n-1) bits (the
    standard Theta(2^{Theta(n)}) bound at linear fault rates)."""
    t = fault_fraction * n
    expected_rounds = min(2.0 ** (t * t / max(n, 1)), 1e18)
    return expected_rounds * 2.0 * (n - 1)


def crossover_point(
    model_a, model_b, lo: int = 4, hi: int = 1 << 40
) -> Optional[int]:
    """Smallest n in [lo, hi] where model_a(n) < model_b(n), by doubling +
    bisection (both models assumed to cross at most once in the range)."""
    def cheaper(n: int) -> bool:
        return model_a(n) < model_b(n)

    if cheaper(lo):
        return lo
    if not cheaper(hi):
        return None
    low, high = lo, hi
    while high - low > 1:
        mid = (low + high) // 2
        if cheaper(mid):
            high = mid
        else:
            low = mid
    return high


# -- Per-scenario cost models (the dispatch cost plane) ---------------------------------
#
# Every built-in scenario has a ``ScenarioCostModel``: a plain function
# that prices one trial — predicted communication bits and computation
# work units — from (n, declared params).  The dispatch plane sizes
# work units by ``trial_cost`` so mixed-n grids balance predicted work
# instead of trial counts (:mod:`repro.engine.costplan`).


@dataclass(frozen=True)
class TrialCost:
    """Predicted per-trial cost of one scenario at resolved params."""

    bits: float  #: communication bits charged to the BitLedger
    work: float  #: computation work units (~messages processed)

    @property
    def cost(self) -> float:
        """The scalar the dispatch plane bins by (the work units)."""
        return self.work


@dataclass(frozen=True)
class ScenarioCostModel:
    """Per-trial cost of one scenario.

    ``price(n, params)`` applies the same auto-derivations the scenario
    builder does (e.g. a ``None`` degree becoming ``theorem5_degree(n)``),
    so the model prices the trial that would actually run.  ``uses``
    names the declared params the model reads; everything else is
    flagged as ignored by ``repro cost``.
    """

    price: Callable[[int, Mapping[str, Any]], TrialCost]
    uses: Tuple[str, ...] = ()

    def predict(
        self, n: int, params: Optional[Mapping[str, Any]] = None
    ) -> TrialCost:
        """Predicted (bits, work) for one trial at ``n`` / ``params``."""
        return self.price(n, dict(params or {}))

    def trial_cost(
        self, n: int, params: Optional[Mapping[str, Any]] = None
    ) -> float:
        """Scalar predicted cost of one trial (what dispatch bins by)."""
        return self.predict(n, params).cost

    def ignored_params(self, declared: Sequence[str]) -> Tuple[str, ...]:
        """Declared params the model does not price."""
        return tuple(sorted(set(declared) - set(self.uses)))


#: Simulator envelope cost per message (header + 1-bit payload), measured
#: from BitLedger traces: phase-king / rabin / unreliable-coin-ba all
#: charge exactly 49 bits per vote message.
_VOTE_BITS = 49.0


def _resolved(params: Mapping[str, Any], key: str, default: Any) -> float:
    """``params[key]`` as a float, or ``default`` when it is unset/None."""
    value = params.get(key)
    return float(default if value is None else value)


def _eig_tree_values(n: int, t: int) -> float:
    """Values relayed per EIG round pair: sum_{r=0..t} P(n-1, r)."""
    total, term = 0.0, 1.0
    for r in range(t + 1):
        total += term
        term *= max(0, (n - 1) - r)
    return total


def _phase_king(n: int, p: Mapping[str, Any]) -> TrialCost:
    # `phases` x (2 all-to-all rounds + king broadcast); the ledger
    # charges exactly phases*(n^2-1) vote messages.
    phases = _resolved(p, "num_phases", max(0, (n - 1) // 4) + 1)
    msgs = phases * (n**2 - 1)
    return TrialCost(_VOTE_BITS * msgs, msgs + 2 * phases * n)


def _rabin(n: int, p: Mapping[str, Any]) -> TrialCost:
    # All-to-all votes for `rounds` expected rounds (3 at the default
    # corruption, growing toward max_rounds under faults).
    corrupt = _resolved(p, "corrupt", 0.0)
    rounds = min(3.0 + 8.0 * corrupt, _resolved(p, "max_rounds", 64))
    msgs = rounds * n * (n - 1)
    return TrialCost(_VOTE_BITS * msgs, msgs + 2 * rounds * n)


def _benor(n: int, p: Mapping[str, Any]) -> TrialCost:
    # Sync local-coin: expected phases grow exponentially in the
    # corrupted fraction; each phase is two all-to-all vote rounds.
    corrupt = _resolved(p, "corrupt", 0.0)
    phases = min(2.0 * 2.0 ** (corrupt * n), _resolved(p, "max_phases", 64))
    msgs = 2 * phases * n * (n - 1)
    return TrialCost(_VOTE_BITS * msgs, msgs + 4 * phases * n)


def _eig(n: int, p: Mapping[str, Any]) -> TrialCost:
    # Exact message count: n(n-1) sends per round, each relaying the
    # previous level's tree values, sum_{r=0..t} P(n-1, r) of them.
    t = int(_resolved(p, "t", max(0, (n - 1) // 3)))
    msgs = n * (n - 1) * _eig_tree_values(n, t)
    return TrialCost((40.0 + 3.0 * t) * msgs, msgs)


def _bracha_broadcast(n: int, p: Mapping[str, Any]) -> TrialCost:
    # init (n-1) + echo n(n-1) + ready n(n-1) messages.
    msgs = (2 * n + 1) * (n - 1)
    return TrialCost(58.6 * msgs, 2 * msgs)


def _async_phases(n: int, p: Mapping[str, Any]) -> TrialCost:
    # async-benor / common-coin-ba: expected ~4 phases of all-to-all
    # traffic under the async scheduler (measured ~4.5 n^2 messages).
    phases = min(5.0, _resolved(p, "max_phases", 64))
    msgs = phases * n * (n - 1)
    return TrialCost(74.0 * msgs, 2 * msgs)


def _unreliable_coin_ba(n: int, p: Mapping[str, Any]) -> TrialCost:
    # One vote to every sparse-graph neighbour per round: exactly
    # n * degree * num_rounds ledger messages.
    degree = _resolved(p, "degree", theorem5_degree(n))
    rounds = _resolved(p, "num_rounds", 1)
    msgs = n * degree * rounds
    return TrialCost(_VOTE_BITS * msgs, msgs + 2 * rounds * n)


def _async_sparse_aeba(n: int, p: Mapping[str, Any]) -> TrialCost:
    # (num_rounds + 1) sparse vote rounds at a measured 119.7 bits per
    # message.
    degree = int(_resolved(p, "degree", theorem5_degree(n)))
    rounds = _resolved(p, "num_rounds", max(8, degree // 2))
    msgs = n * degree * (rounds + 1)
    return TrialCost(119.7 * msgs, 2 * msgs)


def _vss_coin(n: int, p: Mapping[str, Any]) -> TrialCost:
    # 4 k(k-1) dealing/echo/reveal messages whose payloads are rows of
    # ~k field words; reconstruction work is cubic in k.
    k = _resolved(p, "k", n)
    return TrialCost(k * (k - 1) * (214.0 + 98.0 * k), 4 * k * (k - 1) + k**3)


def _cpa(n: int, p: Mapping[str, Any]) -> TrialCost:
    # Nothing hits the ledger (charge-free flooding sim); work is
    # rounds x n x degree relays.
    rounds = _resolved(p, "rounds", 3 * n)
    degree = _resolved(p, "degree", max(2, int(math.log2(max(n, 2))) + 1))
    return TrialCost(0.0, rounds * n * degree)


def _disc09_ae2e(n: int, p: Mapping[str, Any]) -> TrialCost:
    # a ln(n) pull requests per processor at 41 bits per message.
    msgs = _resolved(p, "a", 6.0) * n * math.log(n)
    return TrialCost(41.0 * msgs, msgs)


def _sampler_quality(n: int, p: Mapping[str, Any]) -> TrialCost:
    # Pure computation (no network): r outer samplers each drawing s
    # candidates and running inner_trials degree-sized committee probes.
    r = _resolved(p, "r", 100)
    s = _resolved(p, "s", 300)
    inner = _resolved(p, "inner_trials", 15)
    return TrialCost(0.0, r * (s + inner * s))


def _everywhere_ba(n: int, p: Mapping[str, Any]) -> TrialCost:
    # The tournament simulation: bits from the simulation-preset closed
    # form (Theorem 1 constants), work proportional to the implied
    # message count.
    bits = n * everywhere_ba_bits_simulation(n)
    return TrialCost(bits, bits / 31.0)


_MODELS: Dict[str, ScenarioCostModel] = {
    "phase-king": ScenarioCostModel(_phase_king, ("num_phases",)),
    "rabin": ScenarioCostModel(_rabin, ("corrupt", "max_rounds")),
    "benor": ScenarioCostModel(_benor, ("corrupt", "max_phases")),
    "eig": ScenarioCostModel(_eig, ("t",)),
    "bracha-broadcast": ScenarioCostModel(_bracha_broadcast),
    "async-benor": ScenarioCostModel(_async_phases, ("max_phases",)),
    "common-coin-ba": ScenarioCostModel(_async_phases, ("max_phases",)),
    "unreliable-coin-ba": ScenarioCostModel(
        _unreliable_coin_ba, ("degree", "num_rounds")
    ),
    "async-sparse-aeba": ScenarioCostModel(
        _async_sparse_aeba, ("degree", "num_rounds")
    ),
    "vss-coin": ScenarioCostModel(_vss_coin, ("k",)),
    "cpa": ScenarioCostModel(_cpa, ("rounds", "degree")),
    "disc09-ae2e": ScenarioCostModel(_disc09_ae2e, ("a",)),
    "sampler-quality": ScenarioCostModel(
        _sampler_quality, ("r", "s", "inner_trials")
    ),
    "everywhere-ba": ScenarioCostModel(_everywhere_ba),
}


def get_cost_model(scenario: str) -> Optional[ScenarioCostModel]:
    """The scenario's cost model, or None when it has none."""
    return _MODELS.get(scenario)


def cost_model_names() -> Tuple[str, ...]:
    """Scenarios with a cost model."""
    return tuple(sorted(_MODELS))
