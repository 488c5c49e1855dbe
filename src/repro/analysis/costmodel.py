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
from dataclasses import dataclass, replace
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from ..core.parameters import ProtocolParameters, log2n


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


# -- Per-scenario symbolic cost models (the dispatch cost plane) -------------------------
#
# Every registered scenario gets a ``ScenarioCostModel``: a pair of sympy
# expressions — predicted communication bits and computation work units
# per trial — over symbols resolved from (n, declared params).  The
# dispatch plane sizes work units by ``trial_cost`` so mixed-n grids
# balance predicted work instead of trial counts; ``calibrate`` fits the
# constant factors from measured BitLedger totals and per-trial timings.
# sympy is optional: when it is missing no model is available and every
# consumer falls back to uniform (trial-count) geometry.


def _sympy():
    import sympy

    return sympy


def _have_sympy() -> bool:
    try:
        _sympy()
    except ImportError:
        return False
    return True


@dataclass(frozen=True)
class TrialCost:
    """Predicted per-trial cost of one scenario at resolved params."""

    bits: float  #: communication bits charged to the BitLedger
    work: float  #: computation work units (~messages processed)

    @property
    def cost(self) -> float:
        """The scalar the dispatch plane bins by (calibrated work)."""
        return self.work


@dataclass(frozen=True)
class ScenarioCostModel:
    """Symbolic per-trial cost of one scenario.

    ``bits_expr`` / ``work_expr`` are sympy expressions whose free
    symbols are filled by ``resolver(n, params)`` — the resolver applies
    the same auto-derivations the scenario builder does (e.g. a ``None``
    degree becoming ``theorem5_degree(n)``), so the model prices the
    trial that would actually run.  ``uses`` names the declared params
    the model reads; everything else is flagged as ignored by
    ``repro cost``.
    """

    scenario: str
    bits_expr: Any
    work_expr: Any
    resolver: Callable[[int, Mapping[str, Any]], Dict[str, float]]
    uses: Tuple[str, ...] = ()
    bits_scale: float = 1.0
    work_scale: float = 1.0

    def substitutions(self, n: int, params: Mapping[str, Any]) -> Dict[str, float]:
        subs = dict(self.resolver(n, params))
        subs["n"] = float(n)
        return subs

    def _eval(self, expr: Any, subs: Dict[str, float]) -> float:
        sympy = _sympy()
        value = expr.subs(
            {sympy.Symbol(name): value for name, value in subs.items()}
        )
        return float(value)

    def predict(
        self, n: int, params: Optional[Mapping[str, Any]] = None
    ) -> TrialCost:
        """Predicted (bits, work) for one trial at ``n`` / ``params``."""
        subs = self.substitutions(n, dict(params or {}))
        return TrialCost(
            bits=self.bits_scale * self._eval(self.bits_expr, subs),
            work=self.work_scale * self._eval(self.work_expr, subs),
        )

    def trial_cost(
        self, n: int, params: Optional[Mapping[str, Any]] = None
    ) -> float:
        """Scalar predicted cost of one trial (what dispatch bins by)."""
        return self.predict(n, params).cost

    def symbol_names(self) -> Tuple[str, ...]:
        names = {
            str(s)
            for expr in (self.bits_expr, self.work_expr)
            for s in expr.free_symbols
        }
        return tuple(sorted(names))

    def ignored_params(self, declared: Sequence[str]) -> Tuple[str, ...]:
        """Declared params the model does not price."""
        return tuple(sorted(set(declared) - set(self.uses)))

    def calibrated(
        self,
        bits_scale: Optional[float] = None,
        work_scale: Optional[float] = None,
    ) -> "ScenarioCostModel":
        return replace(
            self,
            bits_scale=self.bits_scale if bits_scale is None else bits_scale,
            work_scale=self.work_scale if work_scale is None else work_scale,
        )


@dataclass(frozen=True)
class CostSample:
    """One measured data point for ``calibrate``.

    ``bits`` is a measured per-trial BitLedger total (``net.accounting``
    snapshot merged into ``TrialResult.ledger``); ``seconds`` is a
    measured per-trial wall time (telemetry ``UnitStats.trial_seconds``).
    Either may be None when only one axis was measured.
    """

    n: int
    params: Tuple[Tuple[str, Any], ...] = ()
    bits: Optional[float] = None
    seconds: Optional[float] = None


def calibrate(
    model: ScenarioCostModel, samples: Sequence[CostSample]
) -> ScenarioCostModel:
    """Fit the model's constant factors to measured samples.

    Least squares through the origin, per axis: the bits scale maps the
    symbolic bit count onto measured ledger totals, the work scale maps
    work units onto measured seconds (so calibrated ``trial_cost`` is in
    seconds).  Axes with no samples keep their current scale.
    """
    bits_num = bits_den = 0.0
    work_num = work_den = 0.0
    for sample in samples:
        predicted = model.predict(sample.n, dict(sample.params))
        raw_bits = predicted.bits / model.bits_scale if model.bits_scale else 0.0
        raw_work = predicted.work / model.work_scale if model.work_scale else 0.0
        if sample.bits is not None and raw_bits > 0:
            bits_num += raw_bits * sample.bits
            bits_den += raw_bits * raw_bits
        if sample.seconds is not None and raw_work > 0:
            work_num += raw_work * sample.seconds
            work_den += raw_work * raw_work
    return model.calibrated(
        bits_scale=bits_num / bits_den if bits_den else None,
        work_scale=work_num / work_den if work_den else None,
    )


#: Simulator envelope cost per message (header + 1-bit payload), measured
#: from BitLedger traces: phase-king / rabin / unreliable-coin-ba all
#: charge exactly 49 bits per vote message.
_VOTE_BITS = 49.0

_MODEL_BUILDERS: Dict[str, Callable[[], ScenarioCostModel]] = {}
_MODELS: Dict[str, ScenarioCostModel] = {}
_BUILTINS_REGISTERED = False


def register_cost_model(
    scenario: str, builder: Callable[[], ScenarioCostModel]
) -> None:
    """Register (or replace) the cost-model builder for a scenario."""
    _MODEL_BUILDERS[scenario] = builder
    _MODELS.pop(scenario, None)


def _register_builtins() -> None:
    """Register the built-in models on first lookup, not at import.

    Building them imports sympy, which every ``import repro.engine``
    (CLI commands, pool children, ``repro worker serve``) would
    otherwise pay for.  A model registered before this runs wins.
    """
    global _BUILTINS_REGISTERED
    if not _BUILTINS_REGISTERED:
        if _have_sympy():
            _build_builtin_models()
        _BUILTINS_REGISTERED = True


def get_cost_model(scenario: str) -> Optional[ScenarioCostModel]:
    """The scenario's cost model, or None (unknown scenario / no sympy).

    A ``None`` here is the documented uniform-geometry fallback signal:
    every consumer (the unit planner in :mod:`repro.engine.costplan`,
    ``repro cost``) must degrade to trial-count sizing.
    """
    _register_builtins()
    if scenario in _MODELS:
        return _MODELS[scenario]
    builder = _MODEL_BUILDERS.get(scenario)
    if builder is None or not _have_sympy():
        return None
    model = builder()
    _MODELS[scenario] = model
    return model


def cost_model_names() -> Tuple[str, ...]:
    """Scenarios with a registered cost model."""
    _register_builtins()
    return tuple(sorted(_MODEL_BUILDERS))


def _eig_tree_values(n: int, t: int) -> float:
    """Values relayed per EIG round pair: sum_{r=0..t} P(n-1, r)."""
    total, term = 0.0, 1.0
    for r in range(t + 1):
        total += term
        term *= max(0, (n - 1) - r)
    return total


def _resolved(params: Mapping[str, Any], key: str, default: Any) -> Any:
    value = params.get(key)
    return default if value is None else value


def _build_builtin_models() -> None:
    sympy = _sympy()
    Sym = sympy.Symbol

    n = Sym("n")

    def simple(
        scenario: str,
        bits_expr: Any,
        work_expr: Any,
        resolver: Callable[[int, Mapping[str, Any]], Dict[str, float]],
        uses: Tuple[str, ...],
    ) -> None:
        _MODEL_BUILDERS.setdefault(
            scenario,
            lambda: ScenarioCostModel(
                scenario=scenario,
                bits_expr=bits_expr,
                work_expr=work_expr,
                resolver=resolver,
                uses=uses,
            ),
        )

    # phase-king: `phases` x (2 all-to-all rounds + king broadcast);
    # the ledger charges exactly phases*(n^2-1) vote messages.
    phases = Sym("phases")
    pk_msgs = phases * (n**2 - 1)
    simple(
        "phase-king",
        _VOTE_BITS * pk_msgs,
        pk_msgs + 2 * phases * n,
        lambda N, p: {
            "phases": float(
                _resolved(p, "num_phases", max(0, (N - 1) // 4) + 1)
            )
        },
        ("num_phases",),
    )

    # rabin: all-to-all votes for `rounds_eff` expected rounds (3 at the
    # default corruption, growing toward max_rounds under faults).
    rounds_eff = Sym("rounds_eff")
    rb_msgs = rounds_eff * n * (n - 1)
    simple(
        "rabin",
        _VOTE_BITS * rb_msgs,
        rb_msgs + 2 * rounds_eff * n,
        lambda N, p: {
            "rounds_eff": float(
                min(
                    3.0 + 8.0 * float(p.get("corrupt", 0.0) or 0.0),
                    _resolved(p, "max_rounds", 64),
                )
            )
        },
        ("corrupt", "max_rounds"),
    )

    # benor (sync local-coin): expected phases grow exponentially in the
    # corrupted fraction; each phase is two all-to-all vote rounds.
    exp_phases = Sym("exp_phases")
    bo_msgs = 2 * exp_phases * n * (n - 1)
    simple(
        "benor",
        _VOTE_BITS * bo_msgs,
        bo_msgs + 4 * exp_phases * n,
        lambda N, p: {
            "exp_phases": float(
                min(
                    2.0 * 2.0 ** (float(p.get("corrupt", 0.0) or 0.0) * N),
                    _resolved(p, "max_phases", 64),
                )
            )
        },
        ("corrupt", "max_phases"),
    )

    # eig: exact message count — n(n-1) sends per round, each relaying
    # the previous level's tree values: sum_{r=0..t} P(n-1, r) values.
    tree_values = Sym("tree_values")
    t_sym = Sym("t")
    eig_msgs = n * (n - 1) * tree_values
    simple(
        "eig",
        (40.0 + 3.0 * t_sym) * eig_msgs,
        eig_msgs,
        lambda N, p: (
            lambda t: {"t": float(t), "tree_values": _eig_tree_values(N, t)}
        )(int(_resolved(p, "t", max(0, (N - 1) // 3)))),
        ("t",),
    )

    # bracha-broadcast: init (n-1) + echo n(n-1) + ready n(n-1) messages.
    br_msgs = (2 * n + 1) * (n - 1)
    simple(
        "bracha-broadcast",
        58.6 * br_msgs,
        2 * br_msgs,
        lambda N, p: {},
        (),
    )

    # async-benor / common-coin-ba: expected ~4 phases of all-to-all
    # traffic under the async scheduler (measured ~4.5 n^2 messages).
    exp_phases_a = Sym("exp_phases")
    ab_msgs = exp_phases_a * n * (n - 1)
    for name in ("async-benor", "common-coin-ba"):
        simple(
            name,
            74.0 * ab_msgs,
            2 * ab_msgs,
            lambda N, p: {
                "exp_phases": float(min(5.0, _resolved(p, "max_phases", 64)))
            },
            ("max_phases",),
        )

    # unreliable-coin-ba: one vote to every sparse-graph neighbor per
    # round — exactly n * degree * num_rounds ledger messages.
    degree = Sym("degree")
    num_rounds = Sym("num_rounds")
    uc_msgs = n * degree * num_rounds
    def _uc_resolver(N: int, p: Mapping[str, Any]) -> Dict[str, float]:
        from ..topology.sparse_graph import theorem5_degree

        return {
            "degree": float(_resolved(p, "degree", theorem5_degree(N))),
            "num_rounds": float(_resolved(p, "num_rounds", 1)),
        }

    simple(
        "unreliable-coin-ba",
        _VOTE_BITS * uc_msgs,
        uc_msgs + 2 * num_rounds * n,
        _uc_resolver,
        ("degree", "num_rounds"),
    )

    # async-sparse-aeba: (num_rounds + 1) sparse vote rounds at a
    # measured 119.7 bits per message.
    as_msgs = n * degree * (num_rounds + 1)
    def _as_resolver(N: int, p: Mapping[str, Any]) -> Dict[str, float]:
        from ..topology.sparse_graph import theorem5_degree

        deg = int(_resolved(p, "degree", theorem5_degree(N)))
        return {
            "degree": float(deg),
            "num_rounds": float(
                _resolved(p, "num_rounds", max(8, deg // 2))
            ),
        }

    simple(
        "async-sparse-aeba",
        119.7 * as_msgs,
        2 * as_msgs,
        _as_resolver,
        ("degree", "num_rounds"),
    )

    # vss-coin: 4 k(k-1) dealing/echo/reveal messages whose payloads are
    # rows of ~k field words; reconstruction work is cubic in k.
    k = Sym("k")
    vss_msgs = 4 * k * (k - 1)
    simple(
        "vss-coin",
        k * (k - 1) * (214.0 + 98.0 * k),
        vss_msgs + k**3,
        lambda N, p: {"k": float(_resolved(p, "k", N))},
        ("k",),
    )

    # cpa: nothing hits the ledger (charge-free flooding sim); work is
    # rounds x n x degree relays.
    rounds_sym = Sym("rounds")
    simple(
        "cpa",
        sympy.Integer(0),
        rounds_sym * n * degree,
        lambda N, p: {
            "rounds": float(_resolved(p, "rounds", 3 * N)),
            "degree": float(
                _resolved(p, "degree", max(2, int(math.log2(max(N, 2))) + 1))
            ),
        },
        ("rounds", "degree"),
    )

    # disc09-ae2e: a log(n) pull requests per processor at 41 bits/msg.
    a_sym = Sym("a")
    d9_msgs = a_sym * n * sympy.log(n)
    simple(
        "disc09-ae2e",
        41.0 * d9_msgs,
        d9_msgs,
        lambda N, p: {"a": float(_resolved(p, "a", 6.0))},
        ("a",),
    )

    # sampler-quality: pure computation (no network) — r outer samplers
    # each drawing s candidates and running inner_trials degree-sized
    # committee probes.
    r_sym, s_sym, it_sym = Sym("r"), Sym("s"), Sym("inner_trials")
    simple(
        "sampler-quality",
        sympy.Integer(0),
        r_sym * (s_sym + it_sym * s_sym),
        lambda N, p: {
            "r": float(_resolved(p, "r", 100)),
            "s": float(_resolved(p, "s", 300)),
            "inner_trials": float(_resolved(p, "inner_trials", 15)),
        },
        ("r", "s", "inner_trials"),
    )

    # everywhere-ba: the tournament simulation; bits from the existing
    # simulation-preset closed form (Theorem 1 constants), work
    # proportional to the implied message count.
    bits_pp = Sym("bits_pp")
    simple(
        "everywhere-ba",
        n * bits_pp,
        n * bits_pp / 31.0,
        lambda N, p: {"bits_pp": everywhere_ba_bits_simulation(N)},
        (),
    )

