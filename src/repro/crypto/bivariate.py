"""Bivariate-polynomial verifiable secret sharing (BGW/Feldman-free).

The paper deliberately assumes only a *non-verifiable* (n, t+1) threshold
scheme (Section 3.1): with private channels and honest-majority
committees, plain Shamir suffices, and verifiability would cost extra
rounds and bits.  This module implements the classic information-
theoretic alternative — Ben-Or-Goldwasser-Wigderson-style sharing with a
symmetric bivariate polynomial and pairwise echo consistency — so the
trade-off can be measured (ablation in benchmark E9/E17):

* The dealer samples a symmetric bivariate polynomial ``F(x, y)`` of
  degree ``t`` in each variable with ``F(0, 0) = secret`` and gives
  player ``i`` the univariate *row* ``f_i(y) = F(i, y)``.
* Players ``i`` and ``j`` cross-check ``f_i(j) == f_j(i)`` (symmetry);
  a dealt sharing in which every pair of good players is consistent is
  guaranteed to define a unique degree-``t`` secret even if the dealer
  is corrupt — that is the verifiability plain Shamir lacks.
* Player ``i``'s effective Shamir share is ``f_i(0)``; reconstruction is
  ordinary Lagrange interpolation, so verified sharings drop into the
  rest of the library unchanged.

Cost: a row is ``t + 1`` field elements versus Shamir's one, and the
pairwise check is Theta(n^2) messages per dealing — exactly the overhead
the paper avoids by trusting committee majorities instead.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from .field import DEFAULT_FIELD, PrimeField
from .kernels import (
    get_batch_eval_plan,
    get_interp_plan,
    interpolate_constant,
)
from .polynomial import evaluate
from .shamir import SecretSharingError, Share


@dataclass(frozen=True)
class BivariateRow:
    """Player ``x``'s row of the bivariate sharing: the map y -> F(x, y).

    ``values[j]`` holds ``F(x, j)`` for j = 0..n_players (index 0 is the
    player's effective Shamir share ``F(x, 0)``).
    """

    x: int
    values: Tuple[int, ...]

    def at(self, y: int) -> int:
        """The row polynomial's value at column ``y``."""
        if not 0 <= y < len(self.values):
            raise SecretSharingError(f"row has no point y={y}")
        return self.values[y]

    def shamir_share(self) -> Share:
        """The effective (x, F(x, 0)) Shamir share of the secret."""
        return Share(x=self.x, value=self.values[0])

    def wire_bits(self) -> int:
        """On-wire size: every stored point is one field element."""
        return sum(max(1, v.bit_length()) for v in self.values)


@dataclass(frozen=True)
class BivariateScheme:
    """A fixed (n_players, threshold) verifiable sharing configuration.

    ``threshold`` is the number of rows needed to reconstruct (t + 1 in
    the usual notation, matching :class:`repro.crypto.shamir.ShamirScheme`).
    """

    n_players: int
    threshold: int
    field: PrimeField = DEFAULT_FIELD

    def __post_init__(self) -> None:
        if self.n_players < 1:
            raise SecretSharingError("need at least one player")
        if not 1 <= self.threshold <= self.n_players:
            raise SecretSharingError(
                "threshold must be in [1, n_players]"
            )
        if self.n_players >= self.field.modulus:
            raise SecretSharingError("field too small for player count")

    # -- dealing -----------------------------------------------------------------

    def deal(self, secret: int, rng: random.Random) -> List[BivariateRow]:
        """Deal rows of a symmetric bivariate polynomial with F(0,0)=secret.

        Grid-factored evaluation: each coefficient row g_i(y) is
        evaluated over the whole column grid once, then every column
        polynomial sum_i g_i(y) x^i over the row grid once — O(n t^2 +
        n^2 t) instead of the naive per-point O(n^2 t^2), through the
        cached :class:`~repro.crypto.kernels.BatchEvalPlan` grids.
        Values are identical to :meth:`_evaluate_bivariate` point by
        point.
        """
        t = self.threshold - 1
        coeffs = self._symmetric_coefficients(secret, t, rng)
        return self.deal_from_coefficients([coeffs])[0]

    def deal_many(
        self, secrets: Sequence[int], rng: random.Random
    ) -> List[List[BivariateRow]]:
        """Deal many independent sharings, batched across dealings.

        Coefficient matrices are sampled per secret in order (the same
        rng stream as dealing one at a time), then every dealing's grid
        passes run stacked through one :class:`BatchEvalPlan` per stage.
        """
        t = self.threshold - 1
        return self.deal_from_coefficients(
            [
                self._symmetric_coefficients(secret, t, rng)
                for secret in secrets
            ]
        )

    def deal_from_coefficients(
        self, coeffs_list: Sequence[Sequence[Sequence[int]]]
    ) -> List[List[BivariateRow]]:
        """Evaluate many sampled coefficient matrices into dealt rows.

        The wave-bulk entry point: callers that must draw each dealing's
        coefficients from a *different* rng (every committee member
        deals from its own stream) sample via
        :meth:`_symmetric_coefficients` themselves and hand the matrices
        here, where both grid-factored stages run as single batched
        passes across every dealing at once.
        """
        if not coeffs_list:
            return []
        n = self.n_players
        t = self.threshold - 1
        y_plan = get_batch_eval_plan(self.field, range(0, n + 1))
        x_plan = get_batch_eval_plan(self.field, range(1, n + 1))
        # Stage 1, all dealings at once: g_i(y) = sum_j c[i][j] * y^j.
        on_grid_flat = y_plan.evaluate_many(
            [row for coeffs in coeffs_list for row in coeffs]
        )
        # Stage 2, all dealings at once: F(x, y) = sum_i g_i(y) * x^i.
        # Column y's polynomial has coefficients g_0(y), ..., g_t(y):
        # column y of the dealing's stage-1 grid.
        col_polys = []
        for d in range(len(coeffs_list)):
            on_grid = on_grid_flat[d * (t + 1) : (d + 1) * (t + 1)]
            col_polys.extend(zip(*on_grid))
        cols_flat = x_plan.evaluate_many(col_polys)
        # columns[y][x-1] = F(x, y), so one transpose of a dealing's
        # columns yields its rows x = 1..n.
        return [
            [
                BivariateRow(x=x, values=values)
                for x, values in enumerate(
                    zip(*cols_flat[d * (n + 1) : (d + 1) * (n + 1)]), 1
                )
            ]
            for d in range(len(coeffs_list))
        ]

    def _symmetric_coefficients(
        self, secret: int, t: int, rng: random.Random
    ) -> List[List[int]]:
        """Coefficient matrix c[i][j] with c[i][j] == c[j][i], c[0][0]=secret."""
        field = self.field
        coeffs = [[0] * (t + 1) for _ in range(t + 1)]
        for i in range(t + 1):
            for j in range(i, t + 1):
                value = field.random_element(rng)
                coeffs[i][j] = value
                coeffs[j][i] = value
        coeffs[0][0] = field.element(secret)
        return coeffs

    def _evaluate_bivariate(
        self, coeffs: Sequence[Sequence[int]], x: int, y: int
    ) -> int:
        """Evaluate F(x, y) via nested Horner in each variable."""
        field = self.field
        # g_i = sum_j coeffs[i][j] * y^j, then F = sum_i g_i * x^i.
        per_row = [evaluate(field, row, y) for row in coeffs]
        return evaluate(field, per_row, x)

    # -- verification ------------------------------------------------------------

    def cross_check(self, row_i: BivariateRow, row_j: BivariateRow) -> bool:
        """The pairwise echo test: F(i, j) must equal F(j, i)."""
        return row_i.at(row_j.x) == row_j.at(row_i.x)

    def verify_dealing(
        self, rows: Sequence[BivariateRow]
    ) -> List[Tuple[int, int]]:
        """All inconsistent pairs among the given rows (empty = verified).

        A corrupt dealer that hands out rows failing any cross-check is
        exposed by the pair involved; a dealing in which all pairs of
        good players verify defines a unique degree-(threshold-1) secret.
        """
        bad_pairs = []
        for a in range(len(rows)):
            for b in range(a + 1, len(rows)):
                if not self.cross_check(rows[a], rows[b]):
                    bad_pairs.append((rows[a].x, rows[b].x))
        return bad_pairs

    def row_degree_ok(self, row: BivariateRow) -> bool:
        """Check the row is a degree-(threshold-1) polynomial in y.

        Interpolate from the first ``threshold`` points and confirm the
        remaining points lie on the same polynomial.
        """
        t = self.threshold
        points = [(y, row.values[y]) for y in range(0, self.n_players + 1)]
        basis, rest = points[:t], points[t:]
        # The basis grid 0..t-1 is the same for every row of every
        # dealing, so the plan (and its per-y lambda vectors) is shared
        # across the whole echo/verification phase.
        plan = get_interp_plan(self.field, tuple(p[0] for p in basis))
        ys = [p[1] for p in basis]
        for y, value in rest:
            if plan.interpolate_at(y, ys) != value:
                return False
        return True

    def rows_degree_ok(
        self, rows: Sequence[BivariateRow]
    ) -> List[bool]:
        """Degree-check many rows with one matrix product.

        ``result[r]`` equals ``row_degree_ok(rows[r])``: every row's
        off-basis points are predicted from its first ``threshold``
        points in a single ``(rows, t) @ (t, rest)`` product against
        the basis grid's memoised lambda vectors
        (:meth:`~repro.crypto.kernels.InterpPlan.interpolate_grid`),
        instead of one dot product per predicted point — the echo-phase
        verification of an entire dealing at once.
        """
        if not rows:
            return []
        t = self.threshold
        rest_ys = list(range(t, self.n_players + 1))
        plan = get_interp_plan(self.field, range(t))
        predicted = plan.interpolate_grid(
            rest_ys, [row.values[:t] for row in rows]
        )
        return [
            all(
                value == row.values[y]
                for y, value in zip(rest_ys, values)
            )
            for row, values in zip(rows, predicted)
        ]

    # -- reconstruction ----------------------------------------------------------

    def reconstruct(self, rows: Sequence[BivariateRow]) -> int:
        """Reconstruct the secret from >= threshold rows."""
        shares = [row.shamir_share() for row in rows]
        if len({s.x for s in shares}) < self.threshold:
            raise SecretSharingError(
                f"need {self.threshold} distinct rows, got "
                f"{len({s.x for s in shares})}"
            )
        points = [(s.x, s.value) for s in shares[: self.threshold]]
        return interpolate_constant(self.field, points)

    def reconstruct_with_complaints(
        self, rows: Sequence[BivariateRow]
    ) -> Tuple[int, Set[int]]:
        """Reconstruct while discarding rows that fail cross-checks.

        Majority-consistency filter: a row inconsistent with more than
        half of the others is presumed forged and dropped.  Returns the
        secret and the set of discarded row indices (player x values).
        """
        keep: List[BivariateRow] = []
        discarded: Set[int] = set()
        for row in rows:
            disagreements = sum(
                0 if self.cross_check(row, other) else 1
                for other in rows
                if other.x != row.x
            )
            if disagreements > (len(rows) - 1) / 2:
                discarded.add(row.x)
            else:
                keep.append(row)
        if len(keep) < self.threshold:
            raise SecretSharingError(
                "too few consistent rows to reconstruct"
            )
        return self.reconstruct(keep), discarded

    # -- accounting ----------------------------------------------------------------

    def row_bits(self) -> int:
        """On-wire bits per dealt row (n_players + 1 field elements)."""
        return (self.n_players + 1) * self.field.element_bits

    def verification_messages(self) -> int:
        """Pairwise echo messages one dealing costs (ordered pairs)."""
        return self.n_players * (self.n_players - 1)

    def overhead_vs_shamir(self) -> float:
        """Share-size blow-up factor relative to plain Shamir."""
        return self.row_bits() / self.field.element_bits
