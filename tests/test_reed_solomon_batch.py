"""The batch decoder against the key-equation solve, pool by pool.

Seeded with the standard library's ``random`` and free of hypothesis,
so the numpy-free CI job runs it too: there the window predictions take
the stacked-column path of ``InterpPlan.interpolate_grid``, here they
also take the numpy path.  Besides parity, each batch is checked to
send exactly the pools that no window explains to the solve, against a
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

#: Explicit error caps, below the radius of the larger pools of a batch
#: and above that of the smaller ones, besides the default radius.
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


def dealt_pool(field, t, xs, wrong, rng):
    """Shares of a random degree < t polynomial (zero at t = 0) over
    ``xs``, with the values at ``wrong`` random positions shifted."""
    poly = []
    if t:
        poly = random_polynomial(
            field, rng.randrange(field.modulus), t - 1, rng
        )
    pool = [(x, evaluate(field, poly, x)) for x in xs]
    for i in rng.sample(range(len(xs)), wrong):
        x, y = pool[i]
        pool[i] = (x, (y + 1 + rng.randrange(field.modulus - 1))
                   % field.modulus)
    return pool


def mixed_batch(field, t, rng):
    """Pools at threshold ``t`` on several grids, shuffled together.

    The grids: 1..m for m = t (one window, no point outside it), t + 1,
    2t + 1 and 3t + 2; a random grid; and a grid whose last x repeats
    its first one modulo p.  On each grid, pools with no error, one
    error, errors up to the radius and one and two past it.
    """
    top = min(field.modulus, 2**40)
    grids = [list(range(1, m + 1)) for m in (t, t + 1, 2 * t + 1, 3 * t + 2)]
    grids.append(rng.sample(range(1, top), 2 * t + 3))
    duplicate = rng.sample(range(1, top), 2 * t + 2)
    duplicate[-1] = duplicate[0] + field.modulus
    grids.append(duplicate)
    pools = []
    for xs in grids:
        radius = max(0, (len(xs) - t) // 2)
        for wrong in sorted({0, 1, radius, radius + 1, radius + 2}):
            pools.append(dealt_pool(field, t, xs, min(wrong, len(xs)), rng))
    rng.shuffle(pools)
    return pools


def explained_by_a_window(field, pool, t, max_errors):
    """Whether a disjoint t-point window decodes ``pool``: the guards of
    the windows hold and the polynomial through some window misses at
    most ``max_errors`` of the pool's points."""
    mod = field.modulus
    m = len(pool)
    errors = max(0, (m - t) // 2) if max_errors is None else max_errors
    if t < 1 or t + 2 * errors > m or len({x % mod for x, _y in pool}) < m:
        return False
    for start in range(0, m - t + 1, t):
        coefficients = interpolate_coefficients(field, pool[start:start + t])
        misses = sum(
            evaluate(field, coefficients, x) != y % mod for x, y in pool
        )
        if misses <= errors:
            return True
    return False


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: str(f.modulus))
def test_batch_matches_the_solve_pool_by_pool(field, engine, monkeypatch):
    solved = []

    def spy(field_, pool, t, max_errors):
        solved.append(pool)
        return _solve_key_equation(field_, pool, t, max_errors)

    monkeypatch.setattr(reed_solomon, "_solve_key_equation", spy)
    rng = random.Random(field.modulus % 9973)
    for t in range(6):
        pools = mixed_batch(field, t, rng)
        for max_errors in MAX_ERRORS:
            solved.clear()
            decoded = berlekamp_welch(field, pools, t, max_errors)
            assert len(decoded) == len(pools)
            for got, pool in zip(decoded, pools):
                assert got == _solve_key_equation(field, pool, t, max_errors)
            assert [id(pool) for pool in solved] == [
                id(pool) for pool in pools
                if not explained_by_a_window(field, pool, t, max_errors)
            ]
    assert berlekamp_welch(field, [], 3) == []
