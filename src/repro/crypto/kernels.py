"""Cached reconstruction and evaluation kernels — the crypto fast path.

Every layer of the Section-3 stack (Shamir dealing, iterated re-sharing,
VSS coins, robust reconstruction) bottoms out in two polynomial
primitives: *evaluate this polynomial on a fixed grid of points* and
*interpolate these points at a fixed x*.  The naive implementations in
:mod:`repro.crypto.polynomial` redo all structural work on every call —
``lagrange_interpolate_at`` spends O(k^2) products plus one modular
inversion per point even though a sweep reconstructs thousands of
secrets over the *same* x-grid (players ``1..n``).

This module precomputes that recurring structure once into *plan*
objects and caches the plans:

* :class:`EvalPlan` — batch grid evaluation.  Fixes the grid ``xs``,
  runs one tight Horner loop per point, and lazily maintains a power
  table ``xs[i]**j`` for callers (Berlekamp-Welch) that need raw
  Vandermonde rows.
* :class:`InterpPlan` — fixes the interpolation nodes ``xs`` and
  precomputes the barycentric weights ``w_i = 1 / prod_{j!=i}
  (x_i - x_j)`` with a **single** modular inversion via
  :func:`~repro.crypto.polynomial.batch_inverse` (Montgomery's trick).
  The Lagrange coefficient vector at any evaluation point ``x`` is then
  O(k) multiplications plus one further batched inversion, and is
  memoised per ``x`` — so reconstruct-at-0 over a warm plan is a plain
  O(k) dot product.  A table of Lagrange-basis coefficient rows, built
  once per plan, turns the whole coefficient vector into k such dot
  products (:meth:`InterpPlan.coefficients`).
* :class:`BatchEvalPlan` — *many* polynomials on one fixed grid in
  single array-level passes: a vectorised Horner sweep over an
  ``(batch, grid)`` int64 matrix when numpy is importable and the
  modulus fits 31 bits (every intermediate stays below 2**63, so int64
  arithmetic is exact), or fused stacked-column passes over Python ints
  as the portable fallback.  Same GF(p) results either way.
* Batched interpolation — :meth:`InterpPlan.constant_many`,
  :meth:`InterpPlan.interpolate_many_at`,
  :meth:`InterpPlan.interpolate_grid` and the windowed front end
  :func:`interpolate_windows_at_zero` reconstruct many point-sets as a
  single matrix product against the memoised lambda vectors, using a
  16-bit split of the y matrix so every int64 partial sum stays exact.

Cache invalidation rules (also documented in ENGINE.md):

* Plans are keyed on ``(modulus, xs)`` and are immutable with respect to
  that key — the weights depend on nothing else — so a cached plan can
  never go stale; the caches exist purely to bound memory.
* Both global plan caches and the per-plan lambda memo are bounded;
  overflowing them evicts the **oldest** entry (FIFO over the
  insertion-ordered dict), so a plan or lambda vector in active use
  survives adversarial access patterns — e.g. sliding reconstruction
  windows over huge pools — that previously dropped the whole cache.
* Two fields with the same ``xs`` never share a plan: the modulus is
  part of the key.

Exactness: every kernel performs the same GF(p) arithmetic as its naive
counterpart, so results are bit-identical — pinned over random degrees,
grids, fields and batch widths by ``tests/test_kernels.py`` (including
the numpy-absent fallback) and registry-wide by the engine parity suite.
"""

from __future__ import annotations

from operator import mul
from typing import Dict, List, Optional, Sequence, Tuple

from .field import FieldError, PrimeField
from .polynomial import batch_inverse, pairwise_denominators

try:  # pragma: no cover - exercised via the fallback tests
    import numpy as _np
except ImportError:  # pragma: no cover
    _np = None

#: Bound on the number of plans each global cache may hold.
PLAN_CACHE_MAX = 2048

#: Bound on memoised per-x lambda vectors within one :class:`InterpPlan`.
LAMBDA_CACHE_MAX = 1024

#: Moduli up to this many bits take the numpy int64 path: with residues
#: below 2**31, a Horner step ``acc * x + c`` stays below 2**63 and the
#: split matrix product keeps every partial sum exact in int64.
_NUMPY_MOD_BITS = 31

#: Largest node count the split matrix product accepts: the low 16-bit
#: half contributes < 2**47 per term, so up to 2**15 terms sum below
#: 2**62 — comfortably exact in int64.
_MATMUL_MAX_K = 1 << 15


def _evict_oldest(cache: Dict) -> None:
    """Drop the single oldest entry (dicts iterate in insertion order)."""
    del cache[next(iter(cache))]


def _numpy_ready(modulus: int) -> bool:
    """Whether the vectorised int64 path is available *and* exact."""
    return _np is not None and modulus.bit_length() <= _NUMPY_MOD_BITS


def batch_engine(field: PrimeField) -> str:
    """Which batch implementation this field's kernels will use.

    ``"numpy"`` for the vectorised int64 path, ``"columns"`` for the
    portable stacked-column fallback (numpy missing, or the modulus too
    wide for exact int64 arithmetic).  Diagnostic only — both engines
    are bit-identical.
    """
    return "numpy" if _numpy_ready(field.modulus) else "columns"


def _rows_to_array(ys_rows: Sequence[Sequence[int]], mod: int):
    """``ys_rows`` as a canonical-residue int64 matrix, or None.

    Returns None when the rows are ragged or carry ints too wide for
    int64 (callers then take the Python fallback, which reduces them
    exactly).
    """
    try:
        arr = _np.array(ys_rows, dtype=_np.int64)
    except (OverflowError, ValueError, TypeError):
        return None
    if arr.ndim != 2:
        return None
    return arr % mod


def _matmul_mod(ys, lam, mod: int):
    """Exact ``(ys @ lam) % mod`` for canonical int64 residues.

    A direct int64 product of two residues below 2**31 already brushes
    2**62, so summing over the nodes would overflow.  Splitting the y
    matrix into 16-bit halves keeps every partial sum exact:
    ``ys @ lam == 2**16 * (hi @ lam) + lo @ lam`` with ``hi < 2**15``
    and ``lo < 2**16``, so both partial products stay below 2**63 for
    up to ``_MATMUL_MAX_K`` nodes.
    """
    hi = ys >> 16
    lo = ys & 0xFFFF
    return ((hi @ lam % mod << 16) + lo @ lam) % mod


class EvalPlan:
    """Batch evaluation of polynomials on one fixed grid of points.

    The plan owns the grid (reduced into the field once) and a lazily
    grown power table; :meth:`evaluate` is the single Horner
    implementation every dealing path routes through.
    """

    __slots__ = ("modulus", "xs", "_powers")

    def __init__(self, field: PrimeField, xs: Sequence[int]) -> None:
        self.modulus = field.modulus
        self.xs: Tuple[int, ...] = tuple(x % self.modulus for x in xs)
        # _powers[i][j] == xs[i] ** j (mod p); columns extend on demand.
        self._powers: List[List[int]] = []

    def evaluate(self, coefficients: Sequence[int]) -> List[int]:
        """The polynomial's value at every grid point (Horner per point)."""
        mod = self.modulus
        rev = coefficients[::-1]
        out = []
        append = out.append
        for x in self.xs:
            acc = 0
            for c in rev:
                acc = (acc * x + c) % mod
            append(acc)
        return out

    def power_table(self, count: int) -> List[List[int]]:
        """Rows ``[x**0, x**1, ..., x**(count-1)]`` per grid point.

        Grown monotonically and kept on the plan, so repeated decodes
        over the same pool (Berlekamp-Welch's Vandermonde rows) reuse
        the powers instead of remultiplying them.

        The returned rows ARE the live cache: they may be longer than
        ``count`` (a previous caller asked for more) and must not be
        mutated — slice-copy before building on them, as
        :func:`~repro.crypto.reed_solomon._solve_key_equation` does.
        """
        mod = self.modulus
        if not self._powers:
            self._powers = [[1] for _ in self.xs]
        have = len(self._powers[0]) if self._powers else 0
        if count > have:
            for x, row in zip(self.xs, self._powers):
                acc = row[-1]
                for _ in range(count - len(row)):
                    acc = (acc * x) % mod
                    row.append(acc)
        return self._powers


class BatchEvalPlan:
    """Evaluate *many* polynomials on one fixed grid in single passes.

    The batched analogue of :class:`EvalPlan`: where that plan runs one
    Horner loop per grid point per call, this plan runs one Horner step
    per coefficient *column* across the whole ``(batch, grid)`` matrix.
    Ragged coefficient rows are padded with high-order zero coefficients
    (a mathematical no-op).  The numpy path and the stacked-column
    fallback perform the identical GF(p) reductions, so both are
    bit-identical to :meth:`EvalPlan.evaluate` row by row.
    """

    __slots__ = ("modulus", "xs", "_xs_arr")

    def __init__(self, field: PrimeField, xs: Sequence[int]) -> None:
        self.modulus = field.modulus
        self.xs: Tuple[int, ...] = tuple(x % self.modulus for x in xs)
        self._xs_arr = None  # built lazily, only on the numpy path

    def evaluate_many(
        self, coefficient_rows: Sequence[Sequence[int]]
    ) -> List[List[int]]:
        """``result[b]`` is polynomial ``b``'s value at every grid point."""
        rows = coefficient_rows
        if not rows:
            return []
        width = max(len(r) for r in rows)
        if width == 0:
            return [[0] * len(self.xs) for _ in rows]
        if _numpy_ready(self.modulus):
            arr = self._rows_array(rows, width)
            if arr is not None:
                return self._evaluate_numpy(arr)
        return self._evaluate_columns(rows, width)

    def _rows_array(self, rows: Sequence[Sequence[int]], width: int):
        """Coefficient rows as a zero-padded canonical int64 matrix."""
        try:
            if all(len(r) == width for r in rows):
                arr = _np.array(rows, dtype=_np.int64)
            else:
                arr = _np.zeros((len(rows), width), dtype=_np.int64)
                for i, row in enumerate(rows):
                    if row:
                        arr[i, : len(row)] = row
            return arr % self.modulus
        except (OverflowError, ValueError, TypeError):
            return None

    def _evaluate_numpy(self, coeffs) -> List[List[int]]:
        """Vectorised Horner: one fused pass per coefficient column."""
        mod = self.modulus
        if self._xs_arr is None:
            self._xs_arr = _np.array(self.xs, dtype=_np.int64)
        xs_arr = self._xs_arr
        acc = _np.zeros((coeffs.shape[0], len(self.xs)), dtype=_np.int64)
        for j in range(coeffs.shape[1] - 1, -1, -1):
            acc = (acc * xs_arr + coeffs[:, j : j + 1]) % mod
        return acc.tolist()

    def _evaluate_columns(
        self, rows: Sequence[Sequence[int]], width: int
    ) -> List[List[int]]:
        """Portable fallback: fused Horner over stacked Python-int columns."""
        mod = self.modulus
        cols = [
            [row[j] if j < len(row) else 0 for row in rows]
            for j in range(width)
        ]
        out = [[0] * len(self.xs) for _ in rows]
        batch = len(rows)
        for g, x in enumerate(self.xs):
            acc = [0] * batch
            for j in range(width - 1, -1, -1):
                col = cols[j]
                acc = [(a * x + c) % mod for a, c in zip(acc, col)]
            for b, value in enumerate(acc):
                out[b][g] = value
        return out


class InterpPlan:
    """Lagrange interpolation from one fixed set of nodes.

    Setup computes the barycentric weights with one batched inversion;
    afterwards :meth:`interpolate_at` costs O(k) multiplications per
    call for any memoised evaluation point (0, the share grid, packed
    sharing's reserved negative points, ...).  The ``*_many`` methods
    reconstruct whole batches of point-sets as one matrix product
    against the same memoised lambda vectors.
    """

    __slots__ = (
        "modulus", "xs", "weights", "_field", "_index", "_lambdas", "_basis",
    )

    def __init__(self, field: PrimeField, xs: Sequence[int]) -> None:
        mod = field.modulus
        nodes = tuple(x % mod for x in xs)
        if len(set(nodes)) != len(nodes):
            raise FieldError("interpolation points must have distinct x values")
        self.modulus = mod
        self.xs = nodes
        self._field = field
        # w_i = 1 / prod_{j != i} (x_i - x_j): one pow for all of them.
        self.weights: Tuple[int, ...] = tuple(
            batch_inverse(field, pairwise_denominators(field, nodes))
        )
        self._index: Dict[int, int] = {x: i for i, x in enumerate(nodes)}
        self._lambdas: Dict[int, Tuple[int, ...]] = {}
        # _basis[d][i]: coefficient of x**d in the i-th Lagrange basis
        # polynomial; built on the first coefficients() call.
        self._basis: Optional[Tuple[Tuple[int, ...], ...]] = None

    def lambdas_at(self, x: int) -> Tuple[int, ...]:
        """Lagrange coefficients lambda_i(x): value = sum lambda_i * y_i."""
        x %= self.modulus
        cached = self._lambdas.get(x)
        if cached is None:
            cached = self._compute_lambdas(x)
            if len(self._lambdas) >= LAMBDA_CACHE_MAX:
                _evict_oldest(self._lambdas)
            self._lambdas[x] = cached
        return cached

    def _compute_lambdas(self, x: int) -> Tuple[int, ...]:
        node = self._index.get(x)
        if node is not None:
            # x is a node: the interpolating polynomial passes through it.
            lam = [0] * len(self.xs)
            lam[node] = 1
            return tuple(lam)
        mod = self.modulus
        diffs = [(x - xj) % mod for xj in self.xs]
        inverses = batch_inverse(self._field, diffs)
        full = 1
        for d in diffs:
            full = (full * d) % mod
        return tuple(
            (w * full % mod) * inv % mod
            for w, inv in zip(self.weights, inverses)
        )

    def interpolate_at(self, x: int, ys: Sequence[int]) -> int:
        """Evaluate the polynomial through ``zip(xs, ys)`` at ``x``."""
        if len(ys) != len(self.xs):
            raise FieldError("one y value per interpolation node required")
        total = 0
        for lam, y in zip(self.lambdas_at(x), ys):
            total += lam * y
        return total % self.modulus

    def constant(self, ys: Sequence[int]) -> int:
        """The constant coefficient — the Shamir secret."""
        return self.interpolate_at(0, ys)

    def coefficients(self, ys: Sequence[int]) -> List[int]:
        """Coefficients (low to high, one per node) of the polynomial
        through ``zip(xs, ys)``.

        Each is a dot product of ``ys`` with one row of the Lagrange
        basis table, which is built once per plan; bit-identical to
        :func:`~repro.crypto.polynomial.interpolate_coefficients`.
        """
        if len(ys) != len(self.xs):
            raise FieldError("one y value per interpolation node required")
        basis = self._basis
        if basis is None:
            basis = self._basis = self._basis_rows()
        mod = self.modulus
        return [sum(map(mul, row, ys)) % mod for row in basis]

    def _basis_rows(self) -> Tuple[Tuple[int, ...], ...]:
        """``rows[d][i]``: the x**d coefficient of ``w_i * master / (x -
        x_i)``, where master is the product of ``(x - x_j)``."""
        mod = self.modulus
        k = len(self.xs)
        master = [1]
        for xj in self.xs:
            nxt = [0] * (len(master) + 1)
            for d, c in enumerate(master):
                nxt[d] = (nxt[d] - c * xj) % mod
                nxt[d + 1] = (nxt[d + 1] + c) % mod
            master = nxt
        columns = []
        for xi, w in zip(self.xs, self.weights):
            # master / (x - xi) by synthetic division, scaled by w_i.
            quotient = [0] * k
            carry = master[k]
            for d in range(k - 1, -1, -1):
                quotient[d] = carry * w % mod
                carry = (master[d] + carry * xi) % mod
            columns.append(quotient)
        return tuple(zip(*columns))

    # -- batched interpolation ---------------------------------------------------

    def _check_rows(self, ys_rows: Sequence[Sequence[int]]) -> None:
        k = len(self.xs)
        for ys in ys_rows:
            if len(ys) != k:
                raise FieldError(
                    "one y value per interpolation node required"
                )

    def interpolate_many_at(
        self, x: int, ys_rows: Sequence[Sequence[int]]
    ) -> List[int]:
        """Interpolate many y-vectors over the plan's nodes at one x.

        One matrix-vector product against the memoised lambda vector on
        the numpy path; bit-identical to calling :meth:`interpolate_at`
        per row.
        """
        self._check_rows(ys_rows)
        if not ys_rows:
            return []
        lam = self.lambdas_at(x)
        mod = self.modulus
        if _numpy_ready(mod) and len(self.xs) <= _MATMUL_MAX_K:
            arr = _rows_to_array(ys_rows, mod)
            if arr is not None:
                lam_arr = _np.array(lam, dtype=_np.int64)
                return _matmul_mod(arr, lam_arr, mod).tolist()
        return [
            sum(l * y for l, y in zip(lam, ys)) % mod for ys in ys_rows
        ]

    def constant_many(
        self, ys_rows: Sequence[Sequence[int]]
    ) -> List[int]:
        """Many secrets from many share vectors over the same nodes."""
        return self.interpolate_many_at(0, ys_rows)

    def interpolate_grid(
        self, xs_eval: Sequence[int], ys_rows: Sequence[Sequence[int]]
    ) -> List[List[int]]:
        """``result[b][j]`` = row ``b`` interpolated at ``xs_eval[j]``.

        The whole (rows x evaluation points) grid as a single matrix
        product — the shape of bivariate row-degree verification, where
        every off-basis point of every row is predicted from the same
        basis nodes.
        """
        self._check_rows(ys_rows)
        if not ys_rows:
            return []
        lams = [self.lambdas_at(x) for x in xs_eval]
        mod = self.modulus
        if not lams:
            return [[] for _ in ys_rows]
        if _numpy_ready(mod) and len(self.xs) <= _MATMUL_MAX_K:
            arr = _rows_to_array(ys_rows, mod)
            if arr is not None:
                lam_mat = _np.array(lams, dtype=_np.int64).T
                return _matmul_mod(arr, lam_mat, mod).tolist()
        return [
            [sum(l * y for l, y in zip(lam, ys)) % mod for lam in lams]
            for ys in ys_rows
        ]


# -- plan caches --------------------------------------------------------------------

_EVAL_PLANS: Dict[Tuple[int, Tuple[int, ...]], EvalPlan] = {}
_BATCH_EVAL_PLANS: Dict[Tuple[int, Tuple[int, ...]], BatchEvalPlan] = {}
_INTERP_PLANS: Dict[Tuple[int, Tuple[int, ...]], InterpPlan] = {}


def get_eval_plan(field: PrimeField, xs: Sequence[int]) -> EvalPlan:
    """The cached :class:`EvalPlan` for ``(field.modulus, xs)``."""
    key = (field.modulus, tuple(x % field.modulus for x in xs))
    plan = _EVAL_PLANS.get(key)
    if plan is None:
        if len(_EVAL_PLANS) >= PLAN_CACHE_MAX:
            _evict_oldest(_EVAL_PLANS)
        plan = EvalPlan(field, key[1])
        _EVAL_PLANS[key] = plan
    return plan


def get_batch_eval_plan(
    field: PrimeField, xs: Sequence[int]
) -> BatchEvalPlan:
    """The cached :class:`BatchEvalPlan` for ``(field.modulus, xs)``."""
    key = (field.modulus, tuple(x % field.modulus for x in xs))
    plan = _BATCH_EVAL_PLANS.get(key)
    if plan is None:
        if len(_BATCH_EVAL_PLANS) >= PLAN_CACHE_MAX:
            _evict_oldest(_BATCH_EVAL_PLANS)
        plan = BatchEvalPlan(field, key[1])
        _BATCH_EVAL_PLANS[key] = plan
    return plan


def get_interp_plan(field: PrimeField, xs: Sequence[int]) -> InterpPlan:
    """The cached :class:`InterpPlan` for ``(field.modulus, xs)``."""
    key = (field.modulus, tuple(x % field.modulus for x in xs))
    plan = _INTERP_PLANS.get(key)
    if plan is None:
        if len(_INTERP_PLANS) >= PLAN_CACHE_MAX:
            _evict_oldest(_INTERP_PLANS)
        plan = InterpPlan(field, key[1])
        _INTERP_PLANS[key] = plan
    return plan


def clear_plan_caches() -> None:
    """Drop every cached plan (tests; never required for correctness)."""
    _EVAL_PLANS.clear()
    _BATCH_EVAL_PLANS.clear()
    _INTERP_PLANS.clear()


# -- drop-in fast front ends ---------------------------------------------------------


def evaluate_on(
    field: PrimeField, coefficients: Sequence[int], xs: Sequence[int]
) -> List[int]:
    """Plan-cached equivalent of :func:`polynomial.evaluate_many`."""
    return get_eval_plan(field, xs).evaluate(coefficients)


def evaluate_rows(
    field: PrimeField,
    coefficient_rows: Sequence[Sequence[int]],
    xs: Sequence[int],
) -> List[List[int]]:
    """Batched equivalent: many polynomials on one grid, single passes."""
    return get_batch_eval_plan(field, xs).evaluate_many(coefficient_rows)


def interpolate_at(
    field: PrimeField, points: Sequence[Tuple[int, int]], x: int
) -> int:
    """Plan-cached equivalent of :func:`polynomial.lagrange_interpolate_at`."""
    xs = tuple(p[0] for p in points)
    ys = [p[1] for p in points]
    return get_interp_plan(field, xs).interpolate_at(x, ys)


def interpolate_constant(
    field: PrimeField, points: Sequence[Tuple[int, int]]
) -> int:
    """Plan-cached equivalent of :func:`polynomial.interpolate_constant`."""
    return interpolate_at(field, points, 0)


def interpolate_constant_many(
    field: PrimeField,
    xs: Sequence[int],
    ys_rows: Sequence[Sequence[int]],
) -> List[int]:
    """Many reconstructions-at-0 over one shared x-grid, batched.

    ``result[b]`` equals ``interpolate_constant(field,
    list(zip(xs, ys_rows[b])))`` — one matrix-vector product instead of
    one dot product per point-set.
    """
    return get_interp_plan(field, xs).constant_many(ys_rows)


def interpolate_windows_at_zero(
    field: PrimeField,
    xs: Sequence[int],
    ys_rows: Sequence[Sequence[int]],
    windows: Sequence[Sequence[int]],
) -> List[List[int]]:
    """Reconstruct-at-0 of every (row, window) pair in one matrix product.

    ``windows`` are index tuples into ``xs``; ``result[b][w]`` equals
    ``interpolate_constant`` over row ``b``'s points at the ``w``-th
    window's indices.  This is the shape of windowed robust reveal: many
    dealers' share pools over the same member grid, each probed through
    the same threshold-sized windows.  Each window's lambda vector comes
    from the (cached) sub-plan over its own nodes, zero-padded to the
    full pool width, so all windows of all rows collapse into a single
    ``(rows, k) @ (k, windows)`` product on the numpy path.
    """
    mod = field.modulus
    nodes = tuple(x % mod for x in xs)
    k = len(nodes)
    for ys in ys_rows:
        if len(ys) != k:
            raise FieldError("one y value per pool node required")
    win_lams: List[Tuple[Tuple[int, ...], Tuple[int, ...]]] = []
    for combo in windows:
        combo = tuple(combo)
        sub = get_interp_plan(field, tuple(nodes[i] for i in combo))
        win_lams.append((combo, sub.lambdas_at(0)))
    if not ys_rows:
        return []
    if not win_lams:
        return [[] for _ in ys_rows]
    if _numpy_ready(mod) and k <= _MATMUL_MAX_K:
        arr = _rows_to_array(ys_rows, mod)
        if arr is not None:
            lam_mat = _np.zeros((k, len(win_lams)), dtype=_np.int64)
            for w, (combo, lam) in enumerate(win_lams):
                for i, value in zip(combo, lam):
                    lam_mat[i, w] = value
            return _matmul_mod(arr, lam_mat, mod).tolist()
    return [
        [
            sum(lam[j] * ys[i] for j, i in enumerate(combo)) % mod
            for combo, lam in win_lams
        ]
        for ys in ys_rows
    ]


def lambdas_at_zero(
    field: PrimeField, xs: Sequence[int]
) -> Tuple[int, ...]:
    """Plan-cached equivalent of
    :func:`polynomial.lagrange_coefficients_at_zero`."""
    return get_interp_plan(field, xs).lambdas_at(0)
