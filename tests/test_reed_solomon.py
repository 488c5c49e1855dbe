"""Tests for Berlekamp-Welch Reed-Solomon decoding."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto import reed_solomon
from repro.crypto.field import DEFAULT_FIELD, MERSENNE_61, PrimeField
from repro.crypto.polynomial import evaluate, random_polynomial
from repro.crypto.reed_solomon import (
    berlekamp_welch,
    decode_constant,
    _poly_divmod,
    _solve_key_equation,
    _solve_linear_system,
)

FIELD = PrimeField(257)


def grid_and_rows(points):
    """A pool as ``berlekamp_welch`` takes it: its x grid and a list
    holding its one row of values."""
    return [x for x, _y in points], [[y for _x, y in points]]


def noisy_points(secret, degree_bound, m, wrong, seed):
    rng = random.Random(seed)
    poly = random_polynomial(FIELD, secret, degree_bound - 1, rng)
    points = [(x, evaluate(FIELD, poly, x)) for x in range(1, m + 1)]
    for i in rng.sample(range(m), wrong):
        x, y = points[i]
        points[i] = (x, (y + 1 + rng.randrange(200)) % FIELD.modulus)
    return points, poly


class TestLinearSolver:
    def test_unique_solution(self):
        # x + y = 3; x - y = 1 (mod 257) -> x=2, y=1
        sol = _solve_linear_system(FIELD, [[1, 1], [1, 256]], [3, 1])
        assert sol == [2, 1]

    def test_inconsistent(self):
        sol = _solve_linear_system(FIELD, [[1, 1], [1, 1]], [1, 2])
        assert sol is None

    def test_underdetermined_free_vars_zero(self):
        sol = _solve_linear_system(FIELD, [[1, 1]], [5])
        assert sol is not None
        assert (sol[0] + sol[1]) % 257 == 5


class TestPolyDivmod:
    def test_exact_division(self):
        # (x+1)(x+2) = x^2 + 3x + 2
        q, r = _poly_divmod(FIELD, [2, 3, 1], [1, 1])
        assert r == []
        assert q == [2, 1]

    def test_with_remainder(self):
        q, r = _poly_divmod(FIELD, [1, 0, 1], [1, 1])  # x^2+1 / x+1
        assert r == [2]

    def test_zero_denominator_raises(self):
        from repro.crypto.field import FieldError

        with pytest.raises(FieldError):
            _poly_divmod(FIELD, [1, 2], [0])


class TestBerlekampWelch:
    def test_no_errors(self):
        points, poly = noisy_points(42, 4, 8, 0, 1)
        (decoded,) = berlekamp_welch(FIELD, *grid_and_rows(points), 4)
        assert decoded == poly[0] == 42
        assert _solve_key_equation(FIELD, points, 4)[: len(poly)] == poly

    def test_max_errors_corrected(self):
        # m=12, t=4 -> radius e=4
        points, poly = noisy_points(99, 4, 12, 4, 2)
        assert decode_constant(FIELD, points, 4) == 99

    def test_beyond_radius_fails_or_truth(self):
        points, poly = noisy_points(7, 4, 10, 5, 3)  # radius is 3
        result = decode_constant(FIELD, points, 4)
        assert result in (None, 7)

    def test_insufficient_points(self):
        points, _ = noisy_points(5, 6, 4, 0, 4)
        assert berlekamp_welch(FIELD, *grid_and_rows(points), 6) == [None]

    def test_every_error_count_up_to_radius(self):
        for wrong in range(0, 5):
            points, _ = noisy_points(123, 5, 13, wrong, 10 + wrong)
            assert decode_constant(FIELD, points, 5) == 123

    def test_explicit_error_cap(self):
        points, _ = noisy_points(55, 3, 9, 1, 5)
        assert decode_constant(FIELD, points, 3, max_errors=1) == 55

    def test_large_field(self):
        from repro.crypto.field import MERSENNE_61

        field = PrimeField(MERSENNE_61)
        rng = random.Random(6)
        poly = random_polynomial(field, 2**60, 4, rng)
        points = [(x, evaluate(field, poly, x)) for x in range(1, 12)]
        points[0] = (points[0][0], points[0][1] ^ 1)
        assert decode_constant(field, points, 5) == 2**60

    def test_default_field_roundtrip(self):
        rng = random.Random(7)
        poly = random_polynomial(DEFAULT_FIELD, 2**30, 3, rng)
        points = [
            (x, evaluate(DEFAULT_FIELD, poly, x)) for x in range(1, 10)
        ]
        points[3] = (points[3][0], (points[3][1] + 5) % DEFAULT_FIELD.modulus)
        assert decode_constant(DEFAULT_FIELD, points, 4) == 2**30


@given(
    secret=st.integers(min_value=0, max_value=256),
    m=st.integers(min_value=6, max_value=14),
    seed=st.integers(min_value=0, max_value=2**32),
)
@settings(max_examples=40, deadline=None)
def test_decoding_within_radius_property(secret, m, seed):
    degree_bound = 3
    radius = (m - degree_bound) // 2
    rng = random.Random(seed)
    wrong = rng.randint(0, radius)
    points, _ = noisy_points(secret, degree_bound, m, wrong, seed)
    assert decode_constant(FIELD, points, degree_bound) == secret


# -- windowed decoding vs the key-equation solve ------------------------------------


def tampered_pool(field, degree_bound, xs, wrong_at, rng):
    """A dealt pool over ``xs`` with the values at ``wrong_at`` shifted."""
    poly = random_polynomial(field, rng.randrange(field.modulus),
                             degree_bound - 1, rng)
    points = [(x, evaluate(field, poly, x)) for x in xs]
    for i in wrong_at:
        x, y = points[i]
        points[i] = (x, (y + 1 + rng.randrange(field.modulus - 1))
                     % field.modulus)
    return points, poly


@pytest.fixture
def solve_calls(monkeypatch):
    """Records every call berlekamp_welch makes to the key-equation solve."""
    calls = []

    def spy(*args):
        calls.append(args)
        return _solve_key_equation(*args)

    monkeypatch.setattr(reed_solomon, "_solve_key_equation", spy)
    return calls


@given(
    field=st.sampled_from(
        [FIELD, DEFAULT_FIELD, PrimeField(MERSENNE_61)]
    ),
    degree_bound=st.integers(min_value=1, max_value=6),
    data=st.data(),
)
@settings(max_examples=300, deadline=None)
def test_windows_return_exactly_what_the_solve_returns(
    field, degree_bound, data
):
    m = data.draw(
        st.integers(min_value=degree_bound, max_value=3 * degree_bound + 3)
    )
    radius = (m - degree_bound) // 2
    wrong = data.draw(st.integers(min_value=0, max_value=min(m, radius + 2)))
    max_errors = data.draw(
        st.one_of(
            st.none(),
            st.integers(min_value=0, max_value=max(0, radius - 1)),
            st.integers(min_value=radius + 1, max_value=radius + 3),
        )
    )
    rng = random.Random(data.draw(st.integers(min_value=0, max_value=2**32)))
    xs = rng.sample(range(1, min(field.modulus, 2**40)), m)
    if m > 1 and data.draw(st.booleans()):
        xs[-1] = xs[0] + field.modulus  # duplicate x modulo p
    points, poly = tampered_pool(
        field, degree_bound, xs, rng.sample(range(m), wrong), rng
    )
    (decoded,) = berlekamp_welch(
        field, xs, [[y for _x, y in points]], degree_bound, max_errors
    )
    solved = _solve_key_equation(field, points, degree_bound, max_errors)
    assert decoded == (None if solved is None else solved[0])
    if max_errors is None and wrong <= radius and len(set(
        x % field.modulus for x in xs
    )) == m:
        assert solved == poly
        assert decoded == poly[0]


class TestWindowedDecoding:
    def test_wrong_value_in_first_window_skips_the_solve(self, solve_calls):
        # The sendDown shape: 8 shares, threshold 3, one tampered value.
        # The first window holds it, so the second window decodes.
        points, poly = tampered_pool(
            DEFAULT_FIELD, 3, range(1, 9), [1], random.Random(21)
        )
        (decoded,) = berlekamp_welch(
            DEFAULT_FIELD, *grid_and_rows(points), 3
        )
        assert decoded == poly[0]
        assert solve_calls == []
        assert _solve_key_equation(DEFAULT_FIELD, points, 3) == poly

    def test_wrong_value_in_every_window_forces_the_solve(self, solve_calls):
        points, poly = tampered_pool(
            DEFAULT_FIELD, 3, range(1, 9), [1, 4], random.Random(22)
        )
        assert berlekamp_welch(
            DEFAULT_FIELD, *grid_and_rows(points), 3
        ) == [poly[0]]
        assert len(solve_calls) == 1

    def test_duplicate_x_goes_straight_to_the_solve(self, solve_calls):
        points = [(1, 5), (1, 6), (2, 7), (3, 9), (4, 11), (5, 13)]
        assert berlekamp_welch(FIELD, *grid_and_rows(points), 2) == [3]
        assert len(solve_calls) == 1
        assert _solve_key_equation(FIELD, points, 2) == [3, 2]

    def test_degree_bound_zero_goes_straight_to_the_solve(self, solve_calls):
        # The solve returns the zero polynomial (no coefficients), whose
        # constant is 0.
        assert berlekamp_welch(FIELD, [1, 2, 3], [[0, 0, 5]], 0) == [0]
        assert len(solve_calls) == 1
        assert _solve_key_equation(FIELD, [(1, 0), (2, 0), (3, 5)], 0) == []
