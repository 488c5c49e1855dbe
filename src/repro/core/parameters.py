"""Protocol parameter derivation (paper Sections 3.2-3.6, Lemma 5).

The paper's asymptotic parameter choices only "fit" at astronomically
large n (e.g. leaf committees of log^3 n processors require n >> 2^10
before the tree has more than one level).  We therefore keep every
*structural* parameter but expose two presets:

* :meth:`ProtocolParameters.paper` — the literal asymptotic formulas,
  consumed by the closed-form cost model (:mod:`repro.analysis.costmodel`).
* :meth:`ProtocolParameters.simulation` — scaled-down constants chosen so
  the end-to-end protocol runs at simulation scale (n up to a few
  thousand) while preserving the shape of every phase.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Optional


class ParameterError(ValueError):
    """Raised for inconsistent protocol parameters."""


def log2n(n: int) -> float:
    """log2(n), floored at 2 so small-n formulas stay sane."""
    return max(2.0, math.log2(max(n, 2)))


@dataclass(frozen=True)
class ProtocolParameters:
    """Every tunable of the almost-everywhere tournament and its users.

    Attributes:
        n: number of processors.
        epsilon: the adversary tolerance slack; adversary corrupts at most
            (1/3 - epsilon) * n processors.
        q: tree arity (paper: log^delta n for delta > 4).
        k1: leaf committee size (paper: log^3 n).
        winners_per_election: w, the number of arrays surviving each
            election (paper: 5c log^3 n).
        uplink_degree: uplinks per processor to its parent node (paper:
            q log^3 n).
        ell_link_degree: leaf nodes each ancestor-node processor listens
            to (paper: O(log^3 n)).
        intra_degree: degree of the intra-node sparse graph for the
            agreement subprotocol (paper Theorem 5: k log n).
        ba_rounds: rounds of AEBA-with-coins per bin-choice agreement.
        epsilon0: the informed-processor margin of Algorithm 5.
        request_fanout_a: the 'a' of Algorithm 3 (a log n requests per
            label; paper: a = 32c/epsilon^2).
        word_bits: size of one protocol word on the wire.
    """

    n: int
    epsilon: float = 1 / 12
    q: int = 3
    k1: int = 6
    winners_per_election: int = 2
    uplink_degree: int = 4
    ell_link_degree: int = 3
    intra_degree: int = 6
    ba_rounds: int = 8
    epsilon0: float = 0.05
    request_fanout_a: float = 4.0
    word_bits: int = 31
    #: Reconstruction-threshold fraction t/n of each sharing.  The paper
    #: uses 1/2 and notes any value in [1/3, 2/3] works; 1/3 maximises
    #: Reed-Solomon error tolerance ((n - t)/2 wrong shares) which is the
    #: binding constraint at simulation-scale committee sizes, at the
    #: price of a thinner secrecy margin (benchmark E9 sweeps this).
    share_threshold_fraction: float = 1 / 3

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ParameterError("n must be positive")
        if not 0 < self.epsilon < 1 / 3:
            raise ParameterError("epsilon must lie in (0, 1/3)")
        if self.q < 2:
            raise ParameterError("q must be >= 2")
        if self.winners_per_election < 1:
            raise ParameterError("need at least one winner per election")

    # -- presets -----------------------------------------------------------------

    @classmethod
    def paper(cls, n: int, delta: float = 5.0, c: float = 1.0,
              epsilon: float = 1 / 12) -> "ProtocolParameters":
        """The paper's asymptotic choices (used by the cost model).

        q = (log n)^delta, k1 = log^3 n, w = 5c log^3 n,
        uplink degree q log^3 n, ell-link degree log^3 n.
        """
        ln = log2n(n)
        return cls(
            n=n,
            epsilon=epsilon,
            q=max(2, int(round(ln**delta))),
            k1=max(1, int(round(ln**3))),
            winners_per_election=max(1, int(round(5 * c * ln**3))),
            uplink_degree=max(1, int(round(ln**delta * ln**3))),
            ell_link_degree=max(1, int(round(ln**3))),
            intra_degree=max(2, int(round(4 * ln))),
            ba_rounds=max(2, int(round(ln))),
            request_fanout_a=32 * c / epsilon**2,
            share_threshold_fraction=0.5,
        )

    @classmethod
    def simulation(cls, n: int, epsilon: float = 1 / 12,
                   seed_scale: float = 1.0) -> "ProtocolParameters":
        """Scaled-down constants that keep every phase non-degenerate.

        Committee sizes and degrees grow slowly with n (logarithmically),
        so medium-n simulations finish in seconds while the tree still has
        multiple levels and elections still have real candidate pools.

        The arity follows the paper's shallow-and-wide regime: q =
        log^delta n keeps the tree depth l* ~ constant, which is what
        bounds the d^l share-replication growth (Lemma 5's dominant
        term).  We use q ~ n^(1/3), giving depth ~4 at any simulated n.
        """
        ln = log2n(n)
        k1 = max(5, int(round(ln)))
        return cls(
            n=n,
            epsilon=epsilon,
            q=max(3, math.ceil(n ** (1 / 3))),
            k1=k1,
            winners_per_election=2,
            uplink_degree=max(8, int(round(1.6 * ln * seed_scale))),
            ell_link_degree=max(5, int(round(ln))),
            intra_degree=max(4, int(round(2 * ln))),
            ba_rounds=max(4, int(round(ln))),
            epsilon0=0.05,
            request_fanout_a=4.0,
            share_threshold_fraction=1 / 3,
        )

    # -- derived quantities --------------------------------------------------------

    @property
    def corruption_budget(self) -> int:
        """floor((1/3 - epsilon) * n): the adaptive adversary's cap."""
        return int((1 / 3 - self.epsilon) * self.n)

    @property
    def good_node_threshold(self) -> float:
        """Definition 3: a good node has >= 2/3 + epsilon/2 good members."""
        return 2 / 3 + self.epsilon / 2

    def candidates_per_election(self, level: int) -> int:
        """r: arrays competing at a level-``level`` node.

        Level 2 receives one candidate per leaf child; higher levels
        receive w winners from each of q children.
        """
        if level < 2:
            raise ParameterError("elections happen at level >= 2")
        if level == 2:
            return self.q
        return self.q * self.winners_per_election

    def num_bins(self, level: int) -> int:
        """numBins = r / w (paper: r / (5c log^3 n)), at least 2.

        The lightest of ``num_bins`` bins has at most r/numBins = w
        candidates in expectation, producing w winners.
        """
        r = self.candidates_per_election(level)
        return max(2, r // self.winners_per_election)

    def block_words(self, level: int) -> int:
        """Words in one level-``level`` block: bin choice + r coin words."""
        return 1 + self.candidates_per_election(level)

    def sqrt_n(self) -> int:
        """ceil(sqrt(n)): the request-label range of Algorithm 3."""
        return max(1, math.isqrt(self.n - 1) + 1) if self.n > 1 else 1

    def request_fanout(self) -> int:
        """a log n: requests sent per label in Algorithm 3."""
        return max(1, int(round(self.request_fanout_a * log2n(self.n))))

    def overload_limit(self) -> int:
        """sqrt(n) log n: requests per label before a responder mutes."""
        return max(1, int(round(self.sqrt_n() * log2n(self.n))))

    def with_overrides(self, **kwargs) -> "ProtocolParameters":
        """A modified copy — handy for benchmark sweeps."""
        return replace(self, **kwargs)
