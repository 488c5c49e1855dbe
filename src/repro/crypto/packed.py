"""Packed (ramp) secret sharing — the block-sharing optimisation.

The tournament ships whole *blocks* of words up the tree (Definition 4:
a bin choice plus r coin words per level).  Plain Shamir shares each word
separately: k shares per player for a k-word block.  Packed sharing
embeds all k words into a single polynomial evaluated at k reserved
points, so each player holds ONE share per block — a factor-k bandwidth
saving at the cost of a higher reconstruction threshold
(t + k shares instead of t + 1) and a ramped secrecy guarantee
(coalitions below t learn nothing; between t and t+k they learn partial
information).

This is the classic Franklin-Yung trade-off, a design-choice ablation
next to bench E9; the library exposes it as an alternative backend for
:mod:`repro.core.communication`-style block flows.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Sequence, Tuple

from .field import DEFAULT_FIELD, PrimeField
from .kernels import get_interp_plan
from .shamir import SecretSharingError, Share


@dataclass(frozen=True)
class PackedShamirScheme:
    """A (n_players, secrecy, k) ramp scheme.

    The dealer fixes a polynomial of degree ``secrecy + k - 1`` that
    passes through the k secrets at reserved negative evaluation points
    (-1, ..., -k) with ``secrecy`` random degrees of freedom; players
    receive evaluations at 1..n as usual.

    * Any ``secrecy`` or fewer shares reveal nothing about the block.
    * Any ``secrecy + k`` shares reconstruct the whole block.
    """

    n_players: int
    secrecy: int
    block_size: int
    field: PrimeField = DEFAULT_FIELD

    def __post_init__(self) -> None:
        if self.n_players < 1:
            raise SecretSharingError("need at least one player")
        if self.secrecy < 1:
            raise SecretSharingError("secrecy parameter must be >= 1")
        if self.block_size < 1:
            raise SecretSharingError("block size must be >= 1")
        if self.reconstruction_threshold > self.n_players:
            raise SecretSharingError(
                "secrecy + block_size exceeds player count"
            )
        if self.n_players + self.block_size >= self.field.modulus:
            raise SecretSharingError("field too small")

    @property
    def reconstruction_threshold(self) -> int:
        """Shares needed to reconstruct: secrecy + block size."""
        return self.secrecy + self.block_size

    # -- dealing ----------------------------------------------------------------

    def deal(self, block: Sequence[int], rng: random.Random) -> List[Share]:
        """Share a whole block; every player gets one share."""
        if len(block) != self.block_size:
            raise SecretSharingError(
                f"block must have exactly {self.block_size} words"
            )
        mod = self.field.modulus
        # Interpolation constraints: secrets at x = -1..-k, plus `secrecy`
        # random anchor values at x = n+1 .. n+secrecy to randomise.
        points: List[Tuple[int, int]] = [
            ((-(i + 1)) % mod, block[i] % mod)
            for i in range(self.block_size)
        ]
        for j in range(self.secrecy):
            points.append(
                (self.n_players + 1 + j, self.field.random_element(rng))
            )
        # The constraint grid (reserved negative points + anchors) is
        # fixed per scheme, so its interpolation plan — and the lambda
        # vector at every player coordinate — is cached after one deal.
        plan = get_interp_plan(self.field, tuple(p[0] for p in points))
        ys = [p[1] for p in points]
        return [
            Share(x=x, value=plan.interpolate_at(x, ys))
            for x in range(1, self.n_players + 1)
        ]

    # -- reconstruction ----------------------------------------------------------

    def reconstruct(self, shares: Sequence[Share]) -> List[int]:
        """Recover the whole block from >= secrecy + k shares."""
        unique = {}
        for share in shares:
            if share.x in unique and unique[share.x] != share.value:
                raise SecretSharingError(
                    f"conflicting shares for x={share.x}"
                )
            unique[share.x] = share.value
        if len(unique) < self.reconstruction_threshold:
            raise SecretSharingError(
                f"need {self.reconstruction_threshold} shares, "
                f"got {len(unique)}"
            )
        points = list(unique.items())[: self.reconstruction_threshold]
        mod = self.field.modulus
        plan = get_interp_plan(self.field, tuple(p[0] for p in points))
        ys = [p[1] for p in points]
        return [
            plan.interpolate_at((-(i + 1)) % mod, ys)
            for i in range(self.block_size)
        ]

    # -- sizing ------------------------------------------------------------------

    def share_bits(self) -> int:
        """One share regardless of block size — the packing win."""
        return self.field.element_bits

    def bandwidth_ratio_vs_shamir(self) -> float:
        """Bandwidth of packed vs word-by-word Shamir for one block."""
        return 1.0 / self.block_size
