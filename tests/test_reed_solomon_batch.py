"""The grid decoder against the key-equation solve, row by row.

Seeded with the standard library's ``random`` and free of hypothesis,
so the numpy-free CI job runs it too: there the window predictions and
constants take the stacked-column paths of
``InterpPlan.interpolate_grid`` and ``InterpPlan.constant_many``, here
they also take the numpy path.  Besides parity, each call is checked to
send exactly the rows that no window explains to the solve, against a
reference window check built from the naive polynomial helpers.
"""

import random

import pytest

from repro.crypto import kernels, reed_solomon
from repro.crypto.field import DEFAULT_FIELD, MERSENNE_61, PrimeField
from repro.crypto.polynomial import (
    evaluate,
    interpolate_coefficients,
    random_polynomial,
)
from repro.crypto.reed_solomon import _solve_key_equation, berlekamp_welch

FIELDS = [PrimeField(257), DEFAULT_FIELD, PrimeField(MERSENNE_61)]

#: Explicit error caps, below the radius of the larger grids and above
#: that of the smaller ones (t + 2e > m), besides the default radius.
MAX_ERRORS = (None, 1, 3)


@pytest.fixture(params=["numpy", "columns"])
def engine(request, monkeypatch):
    """The batch kernels' engine: numpy where installed, or the
    stacked-column fallback with numpy patched away."""
    if request.param == "columns":
        monkeypatch.setattr(kernels, "_np", None)
    elif kernels._np is None:
        pytest.skip("numpy is not installed")
    return request.param


def dealt_row(field, t, xs, wrong, rng):
    """The values over ``xs`` of a random degree < t polynomial (zero at
    t = 0), with the values at ``wrong`` random positions shifted."""
    poly = []
    if t:
        poly = random_polynomial(
            field, rng.randrange(field.modulus), t - 1, rng
        )
    mod = field.modulus
    row = [evaluate(field, poly, x) for x in xs]
    for i in rng.sample(range(len(xs)), wrong):
        row[i] = (row[i] + 1 + rng.randrange(mod - 1)) % mod
    return tuple(row)


def grids(field, t, rng):
    """The x grids at threshold ``t``: 1..m for m = t (one window, no
    point outside it), t + 1, 2t + 1 and 3t + 2; a random grid; and a
    grid whose last x repeats its first one modulo p."""
    top = min(field.modulus, 2**40)
    out = [list(range(1, m + 1)) for m in (t, t + 1, 2 * t + 1, 3 * t + 2)]
    out.append(rng.sample(range(1, top), 2 * t + 3))
    duplicate = rng.sample(range(1, top), 2 * t + 2)
    duplicate[-1] = duplicate[0] + field.modulus
    out.append(duplicate)
    return out


def rows_on(field, t, xs, rng):
    """Two rows for each count of wrong values from 0 to two past the
    grid's radius, shuffled."""
    radius = max(0, (len(xs) - t) // 2)
    rows = [
        dealt_row(field, t, xs, min(wrong, len(xs)), rng)
        for wrong in range(radius + 3)
        for _ in range(2)
    ]
    rng.shuffle(rows)
    return rows


def explained_by_a_window(field, xs, row, t, max_errors):
    """Whether a disjoint t-point window decodes ``row``: the guards of
    the windows hold and the polynomial through some window misses at
    most ``max_errors`` of the row's values."""
    mod = field.modulus
    m = len(xs)
    errors = max(0, (m - t) // 2) if max_errors is None else max_errors
    if t < 1 or t + 2 * errors > m or len({x % mod for x in xs}) < m:
        return False
    points = list(zip(xs, row))
    for start in range(0, m - t + 1, t):
        coefficients = interpolate_coefficients(
            field, points[start:start + t]
        )
        misses = sum(
            evaluate(field, coefficients, x) != y % mod for x, y in points
        )
        if misses <= errors:
            return True
    return False


def solved_constant(field, xs, row, t, max_errors):
    """The key-equation solve's constant: its first coefficient, 0 for
    the zero polynomial it returns at t = 0, or None."""
    coefficients = _solve_key_equation(
        field, list(zip(xs, row)), t, max_errors
    )
    if coefficients is None:
        return None
    return coefficients[0] if coefficients else 0


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: str(f.modulus))
def test_batch_matches_the_solve_pool_by_pool(field, engine, monkeypatch):
    """One call per grid: each row's constant is the solve's, and the
    rows that no window explains, and only those, reach the solve, in
    row order."""
    solved = []

    def spy(field_, points, t, max_errors):
        solved.append(points)
        return _solve_key_equation(field_, points, t, max_errors)

    monkeypatch.setattr(reed_solomon, "_solve_key_equation", spy)
    rng = random.Random(field.modulus % 9973)
    for t in range(6):
        for xs in grids(field, t, rng):
            rows = rows_on(field, t, xs, rng)
            for max_errors in MAX_ERRORS:
                solved.clear()
                constants = berlekamp_welch(field, xs, rows, t, max_errors)
                assert solved == [
                    list(zip(xs, row)) for row in rows
                    if not explained_by_a_window(
                        field, xs, row, t, max_errors
                    )
                ]
                assert constants == [
                    solved_constant(field, xs, row, t, max_errors)
                    for row in rows
                ]
    assert berlekamp_welch(field, [1, 2, 3], [], 3) == []
