"""Shamir (n, t+1) threshold secret sharing.

Implements the scheme assumed in Definition 1 of the paper: ``n`` players
each receive one share per secret word; any ``threshold`` (= t+1) shares
reconstruct; any ``threshold - 1`` or fewer shares are information-
theoretically independent of the secret.  The paper fixes t = n/2 ("quite
robust, as any t in [1/3, 2/3] would work"); :func:`paper_threshold`
reproduces that choice.

Shares carry the x-coordinate of their evaluation point so that iterated
sharing (re-sharing a share) can be reversed unambiguously.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from .field import DEFAULT_FIELD, FieldError, PrimeField
from .kernels import (
    get_batch_eval_plan,
    get_eval_plan,
    get_interp_plan,
    interpolate_constant,
)
from .polynomial import random_polynomial


class SecretSharingError(ValueError):
    """Raised on invalid scheme parameters or reconstruction failure."""


@dataclass(frozen=True)
class Share:
    """One player's share of a single secret word.

    Attributes:
        x: the evaluation point (1-based player index within the dealing).
        value: the field element f(x).
    """

    x: int
    value: int

    def as_tuple(self) -> Tuple[int, int]:
        """The share as an (x, value) pair."""
        return (self.x, self.value)


def paper_threshold(n_players: int) -> int:
    """The paper's t = n/2 rule, expressed as the reconstruction threshold t+1."""
    return n_players // 2 + 1


@dataclass(frozen=True)
class ShamirScheme:
    """A fixed (n_players, threshold) Shamir configuration.

    ``threshold`` is the number of shares *required* to reconstruct (the
    paper's t+1).  Any ``threshold - 1`` shares reveal nothing.
    """

    n_players: int
    threshold: int
    field: PrimeField = DEFAULT_FIELD

    def __post_init__(self) -> None:
        if self.n_players < 1:
            raise SecretSharingError("need at least one player")
        if not 1 <= self.threshold <= self.n_players:
            raise SecretSharingError(
                f"threshold {self.threshold} out of range for "
                f"{self.n_players} players"
            )
        if self.n_players >= self.field.modulus:
            raise SecretSharingError("field too small for player count")

    # -- dealing ----------------------------------------------------------------

    def _grid_plan(self):
        """The cached evaluation plan for this scheme's share grid 1..n."""
        return get_eval_plan(self.field, range(1, self.n_players + 1))

    def deal(self, secret: int, rng: random.Random) -> List[Share]:
        """Split one secret word into ``n_players`` shares.

        Evaluation routes through the scheme's cached batch plan (a
        width-1 batch) — the same kernel the bulk paths use — rather
        than an inlined loop.
        """
        return self.deal_many([secret], rng)[0]

    def deal_values(
        self, secrets: Sequence[int], rng: random.Random
    ) -> List[List[int]]:
        """Share many words as bare values: ``result[w][j]`` is word
        ``w``'s share at x = j + 1.

        The bulk fast path for iterated sharing and dealer-free MPC,
        which deal hundreds of values over the same grid.  Coefficients
        are sampled per word in order (same rng stream as dealing one
        word at a time), then evaluated over the whole batch in single
        array-level passes through the cached
        :class:`~repro.crypto.kernels.BatchEvalPlan`.
        """
        plan = get_batch_eval_plan(
            self.field, range(1, self.n_players + 1)
        )
        degree = self.threshold - 1
        rows = [
            random_polynomial(self.field, secret, degree, rng)
            for secret in secrets
        ]
        return plan.evaluate_many(rows)

    def deal_many(
        self, secrets: Sequence[int], rng: random.Random
    ) -> List[List[Share]]:
        """Share many words with one plan fetch: ``result[w]`` is word
        ``w``'s full share list — the layout :meth:`deal` returns.

        :meth:`deal_values` with each value wrapped as a :class:`Share`.
        """
        return [
            [
                Share(x=x, value=value)
                for x, value in enumerate(values, start=1)
            ]
            for values in self.deal_values(secrets, rng)
        ]

    def deal_sequence(
        self, secrets: Sequence[int], rng: random.Random
    ) -> List[List[Share]]:
        """Share a sequence of words; returns per-player share vectors.

        ``result[p]`` is player ``p``'s list of shares, one per word — the
        layout processors actually store in the protocol.
        """
        per_word = self.deal_many(secrets, rng)
        return [
            [per_word[w][p] for w in range(len(secrets))]
            for p in range(self.n_players)
        ]

    # -- reconstruction ----------------------------------------------------------

    def reconstruct(self, shares: Sequence[Share]) -> int:
        """Recover a secret word from at least ``threshold`` shares.

        Duplicate x-coordinates are rejected; exactly ``threshold`` shares
        are used (the first ``threshold`` after de-duplication) since the
        scheme is non-verifiable — robustness against wrong shares is
        provided at the protocol layer by majority over good paths.
        """
        unique: Dict[int, int] = {}
        for share in shares:
            if share.x in unique and unique[share.x] != share.value:
                raise SecretSharingError(
                    f"conflicting shares for x={share.x}"
                )
            unique[share.x] = share.value
        if len(unique) < self.threshold:
            raise SecretSharingError(
                f"need {self.threshold} shares, got {len(unique)}"
            )
        points = list(unique.items())[: self.threshold]
        return interpolate_constant(self.field, points)

    def reconstruct_many(
        self, share_lists: Sequence[Sequence[Share]]
    ) -> List[int]:
        """Recover many secret words, one batched interpolation per grid.

        ``result[w]`` equals ``reconstruct(share_lists[w])`` — the same
        per-list de-duplication and validation — but lists sharing an
        x-grid (the common case: a whole re-sharing level, a wave of
        reveals) collapse into a single matrix product against that
        grid's memoised lambda vector instead of one dot product each.
        """
        prepared: List[Tuple[Tuple[int, ...], List[int]]] = []
        for shares in share_lists:
            unique: Dict[int, int] = {}
            for share in shares:
                if share.x in unique and unique[share.x] != share.value:
                    raise SecretSharingError(
                        f"conflicting shares for x={share.x}"
                    )
                unique[share.x] = share.value
            if len(unique) < self.threshold:
                raise SecretSharingError(
                    f"need {self.threshold} shares, got {len(unique)}"
                )
            points = list(unique.items())[: self.threshold]
            prepared.append(
                (tuple(p[0] for p in points), [p[1] for p in points])
            )
        groups: Dict[Tuple[int, ...], List[int]] = {}
        for index, (xs, _ys) in enumerate(prepared):
            groups.setdefault(xs, []).append(index)
        out = [0] * len(prepared)
        for xs, indices in groups.items():
            plan = get_interp_plan(self.field, xs)
            values = plan.constant_many(
                [prepared[i][1] for i in indices]
            )
            for i, value in zip(indices, values):
                out[i] = value
        return out

    def reconstruct_sequence(
        self, per_player_shares: Sequence[Sequence[Share]]
    ) -> List[int]:
        """Recover a word sequence from per-player share vectors."""
        if not per_player_shares:
            raise SecretSharingError("no share vectors supplied")
        lengths = {len(vec) for vec in per_player_shares}
        if len(lengths) != 1:
            raise SecretSharingError("ragged share vectors")
        n_words = lengths.pop()
        return [
            self.reconstruct([vec[w] for vec in per_player_shares])
            for w in range(n_words)
        ]

    def reconstruct_majority(self, shares: Sequence[Share]) -> int:
        """Robust reconstruction by majority vote over candidate values.

        Tries every x-coordinate's claimed value at most once and asks which
        reconstructed secret a majority of threshold-sized prefixes agree
        on.  Used by tests to demonstrate that a minority of corrupted
        shares cannot silently flip the secret when the protocol also
        majority-votes (Lemma 3's ``sendOpen`` voting); for large share
        counts the protocol layer does the voting instead.
        """
        unique: Dict[int, int] = {}
        for share in shares:
            unique.setdefault(share.x, share.value)
        points = sorted(unique.items())
        if len(points) < self.threshold:
            raise SecretSharingError("not enough shares")
        votes: Dict[int, int] = {}
        # Slide a window of threshold-many points; each window votes.
        # Window grids recur across calls, so each window's interpolation
        # plan (weights + lambdas-at-zero) is a cache hit after the first.
        for start in range(len(points) - self.threshold + 1):
            window = points[start : start + self.threshold]
            candidate = interpolate_constant(self.field, window)
            votes[candidate] = votes.get(candidate, 0) + 1
        winner = max(votes.items(), key=lambda kv: kv[1])
        return winner[0]

    # -- sizing -----------------------------------------------------------------

    def share_bits(self) -> int:
        """Size of one share in bits (equal to one secret word, per Def. 1)."""
        return self.field.element_bits


def split_words(scheme: ShamirScheme, secrets: Sequence[int], rng: random.Random):
    """Convenience wrapper used by the communication layer: share words.

    Returns ``(per_player, scheme)`` where ``per_player[p]`` is player p's
    share vector.
    """
    return scheme.deal_sequence(secrets, rng)
