"""Berlekamp-Welch decoding of Shamir shares with errors.

A Shamir dealing of threshold t is a Reed-Solomon codeword: shares are
evaluations of a degree-(t-1) polynomial.  A pool of m received shares
containing at most e = (m - t) // 2 *wrong* values (tampered by corrupted
holders) can be decoded exactly: find an error-locator polynomial E
(monic, degree e) and Q (degree < t + e) with

    Q(x_i) = y_i * E(x_i)      for every received point,

by solving the linear system; then P = Q / E is the dealer's polynomial.
This is deterministic and one-shot — the hot path of every ``sendDown``
reconstruction, replacing randomized sample-and-verify decoding.

Most pools hold few wrong values, so :func:`berlekamp_welch` first tries
the floor(m/t) disjoint windows of t = ``degree_bound`` consecutive
points: it interpolates each window through its cached plan and counts
the pool points the window's polynomial misses.  A window that misses at
most ``max_errors`` points is the answer.  Only when every window misses
more does the key equation above get built and solved
(:func:`_solve_key_equation`, the reference decoder).

The windows return exactly what the solve would, under three guards:
the x values are distinct modulo p, ``t >= 1``, and ``t + 2 *
max_errors <= m``.  Then two polynomials of degree < t within
``max_errors`` of the pool agree on at least ``m - 2 * max_errors >= t``
points, so at most one exists; and any solution (Q, E) of the key
equation at e = ``max_errors`` satisfies Q = P * E for that polynomial
P, so the solve returns P's t coefficients too.  Pools outside the
guards go straight to the solve.
"""

from __future__ import annotations

from itertools import chain
from typing import List, Optional, Sequence, Tuple

from .field import FieldError, PrimeField
from .kernels import get_eval_plan, get_interp_plan


def _solve_linear_system(
    field: PrimeField, matrix: List[List[int]], rhs: List[int]
) -> Optional[List[int]]:
    """Gaussian elimination over GF(p); any solution (free vars -> 0).

    Returns None when the system is inconsistent.
    """
    mod = field.modulus
    rows = len(matrix)
    cols = len(matrix[0]) if rows else 0
    aug = [list(row) + [rhs[i]] for i, row in enumerate(matrix)]
    pivot_cols: List[int] = []
    r = 0
    for c in range(cols):
        pivot = None
        for i in range(r, rows):
            if aug[i][c] % mod != 0:
                pivot = i
                break
        if pivot is None:
            continue
        aug[r], aug[pivot] = aug[pivot], aug[r]
        inv = field.inv(aug[r][c])
        aug[r] = [(v * inv) % mod for v in aug[r]]
        for i in range(rows):
            if i != r and aug[i][c] % mod != 0:
                factor = aug[i][c]
                aug[i] = [
                    (aug[i][j] - factor * aug[r][j]) % mod
                    for j in range(cols + 1)
                ]
        pivot_cols.append(c)
        r += 1
        if r == rows:
            break
    # Inconsistency: zero row with nonzero rhs.
    for i in range(r, rows):
        if all(v % mod == 0 for v in aug[i][:cols]) and aug[i][cols] % mod != 0:
            return None
    solution = [0] * cols
    for i, c in enumerate(pivot_cols):
        solution[c] = aug[i][cols]
    return solution


def _poly_divmod(
    field: PrimeField, numerator: Sequence[int], denominator: Sequence[int]
) -> Tuple[List[int], List[int]]:
    """Polynomial division (coefficients low-to-high)."""
    mod = field.modulus
    num = [v % mod for v in numerator]
    den = [v % mod for v in denominator]
    while den and den[-1] == 0:
        den.pop()
    if not den:
        raise FieldError("division by zero polynomial")
    quotient = [0] * max(0, len(num) - len(den) + 1)
    remainder = list(num)
    inv_lead = field.inv(den[-1])
    for i in range(len(quotient) - 1, -1, -1):
        if len(remainder) < len(den) + i:
            continue
        coeff = (remainder[len(den) + i - 1] * inv_lead) % mod
        quotient[i] = coeff
        for j, d in enumerate(den):
            remainder[i + j] = (remainder[i + j] - coeff * d) % mod
    while remainder and remainder[-1] == 0:
        remainder.pop()
    return quotient, remainder


def berlekamp_welch(
    field: PrimeField,
    points: Sequence[Tuple[int, int]],
    degree_bound: int,
    max_errors: Optional[int] = None,
) -> Optional[List[int]]:
    """Decode a degree < ``degree_bound`` polynomial from noisy points.

    Args:
        points: distinct (x, y) pairs, at most ``max_errors`` of them wrong.
        degree_bound: t, the number of coefficients of the true polynomial
            (Shamir's reconstruction threshold).
        max_errors: defaults to the unique-decoding radius
            (len(points) - degree_bound) // 2.

    Returns the coefficient list (low-to-high, length <= degree_bound) or
    None if decoding fails.

    Tries the disjoint windows of ``degree_bound`` consecutive points
    first and solves the key equation only when none of them explains
    all but ``max_errors`` points.  The result is the solve's, bit for
    bit: the windows run only for distinct x values, ``degree_bound >=
    1`` and ``degree_bound + 2 * max_errors <= len(points)``, where at
    most one polynomial lies within the radius (module docstring).
    """
    m = len(points)
    if max_errors is None:
        max_errors = max(0, (m - degree_bound) // 2)
    if degree_bound >= 1 and degree_bound + 2 * max_errors <= m:
        mod = field.modulus
        xs = [x % mod for x, _y in points]
        if len(set(xs)) == m:
            decoded = _decode_by_windows(
                field, xs, [y % mod for _x, y in points], degree_bound,
                max_errors,
            )
            if decoded is not None:
                return decoded
    return _solve_key_equation(field, points, degree_bound, max_errors)


def _decode_by_windows(
    field: PrimeField,
    xs: List[int],
    ys: List[int],
    t: int,
    max_errors: int,
) -> Optional[List[int]]:
    """The first disjoint t-point window within ``max_errors`` of the pool.

    Each window's cached plan predicts every point outside the window;
    counting stops at the first miss past ``max_errors``.  Returns that
    window's coefficients (length t, from the plan's basis table), or
    None when every window misses too many points.
    """
    m = len(xs)
    for start in range(0, m - t + 1, t):
        stop = start + t
        plan = get_interp_plan(field, xs[start:stop])
        window_ys = ys[start:stop]
        misses = 0
        for i in chain(range(start), range(stop, m)):
            if plan.interpolate_at(xs[i], window_ys) != ys[i]:
                misses += 1
                if misses > max_errors:
                    break
        if misses <= max_errors:
            return plan.coefficients(window_ys)
    return None


def _solve_key_equation(
    field: PrimeField,
    points: Sequence[Tuple[int, int]],
    degree_bound: int,
    max_errors: Optional[int] = None,
) -> Optional[List[int]]:
    """The key-equation decoder: :func:`berlekamp_welch` without windows.

    Same arguments and result; kept whole as the reference the windowed
    front end is pinned against.
    """
    m = len(points)
    if m < degree_bound:
        return None
    if max_errors is None:
        max_errors = max(0, (m - degree_bound) // 2)
    mod = field.modulus

    # The same share pools recur across rounds, so the grid's power
    # table (the Vandermonde rows below) and batch evaluations come
    # from the cached plan instead of being remultiplied per decode.
    plan = get_eval_plan(field, [x for x, _y in points])
    grid_ys = [y % mod for _x, y in points]

    # Solving at the full radius e_max suffices whenever the true error
    # count is within it (E absorbs spurious factors); one step down
    # covers the rare degenerate division.  Beyond that the pool is
    # undecodable and iterating further only burns time.
    candidate_error_counts = [max_errors]
    if max_errors > 0:
        candidate_error_counts.append(max_errors - 1)
    for e in candidate_error_counts:
        q_len = degree_bound + e  # Q has degree < degree_bound + e
        powers = plan.power_table(q_len + 1)
        # Unknowns: q_0..q_{q_len-1}, E_0..E_{e-1} (E monic of degree e).
        matrix: List[List[int]] = []
        rhs: List[int] = []
        for i, y in enumerate(grid_ys):
            xpow = powers[i]
            row = xpow[:q_len]
            row.extend((-y * xpow[j]) % mod for j in range(e))
            # monic term: y * x^e moved to the rhs.
            matrix.append(row)
            rhs.append((y * xpow[e]) % mod)
        solution = _solve_linear_system(field, matrix, rhs)
        if solution is None:
            continue
        q_coeffs = solution[:q_len]
        e_coeffs = solution[q_len:] + [1]  # monic
        try:
            p_coeffs, remainder = _poly_divmod(field, q_coeffs, e_coeffs)
        except FieldError:
            continue
        if remainder:
            continue
        if len(p_coeffs) > degree_bound:
            continue
        # Verify against the pool: must explain all but <= e points.
        decoded = plan.evaluate(p_coeffs)
        mismatches = sum(
            1 for got, y in zip(decoded, grid_ys) if got != y
        )
        if mismatches <= e:
            return p_coeffs + [0] * (degree_bound - len(p_coeffs))
    return None


def decode_constant(
    field: PrimeField,
    points: Sequence[Tuple[int, int]],
    degree_bound: int,
    max_errors: Optional[int] = None,
) -> Optional[int]:
    """The Shamir secret (constant term), or None on decoding failure."""
    coefficients = berlekamp_welch(field, points, degree_bound, max_errors)
    if coefficients is None:
        return None
    return coefficients[0]
