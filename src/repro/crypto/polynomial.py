"""Polynomial evaluation and Lagrange interpolation over a prime field.

This is the mathematical core of the Shamir (n, t+1) threshold scheme used
throughout the paper's Section 3.1.  Polynomials are represented as
coefficient lists ``[c0, c1, ...]`` meaning ``c0 + c1*x + c2*x^2 + ...``;
the constant coefficient ``c0`` carries the secret.
"""

from __future__ import annotations

import random
from typing import List, Sequence, Tuple

from .field import FieldError, PrimeField


def evaluate(field: PrimeField, coefficients: Sequence[int], x: int) -> int:
    """Evaluate a polynomial at ``x`` using Horner's rule."""
    result = 0
    for coefficient in reversed(coefficients):
        result = (result * x + coefficient) % field.modulus
    return result


def evaluate_many(
    field: PrimeField, coefficients: Sequence[int], xs: Sequence[int]
) -> List[int]:
    """Evaluate a polynomial at each point of ``xs``."""
    return [evaluate(field, coefficients, x) for x in xs]


def random_polynomial(
    field: PrimeField, constant: int, degree: int, rng: random.Random
) -> List[int]:
    """A uniformly random degree-``degree`` polynomial with given constant term.

    This is precisely a Shamir dealer's polynomial: the constant term is the
    secret and the remaining ``degree`` coefficients are uniform.
    """
    if degree < 0:
        raise FieldError("polynomial degree must be non-negative")
    coefficients = [field.element(constant)]
    coefficients.extend(field.random_elements(degree, rng))
    return coefficients


def pairwise_denominators(
    field: PrimeField, xs: Sequence[int]
) -> List[int]:
    """Lagrange denominators ``prod_{j != i} (x_i - x_j)`` per node.

    Shared by the reference interpolation below and the cached
    :class:`~repro.crypto.kernels.InterpPlan` weights, so both paths
    provably invert the same quantities.
    """
    mod = field.modulus
    denominators = []
    for i, xi in enumerate(xs):
        denominator = 1
        for j, xj in enumerate(xs):
            if i != j:
                denominator = (denominator * (xi - xj)) % mod
        denominators.append(denominator)
    return denominators


def lagrange_interpolate_at(
    field: PrimeField, points: Sequence[Tuple[int, int]], x: int
) -> int:
    """Interpolate the unique polynomial through ``points`` and evaluate at ``x``.

    ``points`` is a sequence of distinct ``(x_i, y_i)`` pairs.  Runs in
    O(len(points)**2) field operations with a *single* modular inversion:
    the per-point denominators go through :func:`batch_inverse`
    (Montgomery's trick) instead of one ``pow`` each, and the numerators
    ``prod_{j != i} (x - x_j)`` come from prefix/suffix products.

    This is the reference implementation; hot paths route through the
    cached plans in :mod:`repro.crypto.kernels`, which are pinned
    bit-identical to this function by ``tests/test_kernels.py``.
    """
    mod = field.modulus
    xs = [p[0] % mod for p in points]
    if len(set(xs)) != len(xs):
        raise FieldError("interpolation points must have distinct x values")
    k = len(points)
    if k == 0:
        return 0
    inverses = batch_inverse(field, pairwise_denominators(field, xs))
    # Numerators prod_{j != i} (x - x_j) via prefix/suffix products.
    diffs = [(x - xj) % mod for xj in xs]
    prefix = [1] * (k + 1)
    for i, d in enumerate(diffs):
        prefix[i + 1] = (prefix[i] * d) % mod
    suffix = [1] * (k + 1)
    for i in range(k - 1, -1, -1):
        suffix[i] = (suffix[i + 1] * diffs[i]) % mod
    total = 0
    for i, (_xi, yi) in enumerate(points):
        numerator = (prefix[i] * suffix[i + 1]) % mod
        term = (yi % mod) * numerator % mod
        total = (total + term * inverses[i]) % mod
    return total


def interpolate_constant(field: PrimeField, points: Sequence[Tuple[int, int]]) -> int:
    """Recover the constant coefficient (the Shamir secret) from points."""
    return lagrange_interpolate_at(field, points, 0)


def batch_inverse(field: PrimeField, values: Sequence[int]) -> List[int]:
    """Inverses of many nonzero elements with a single modular pow.

    Montgomery's trick: one inversion plus 3(k-1) multiplications instead
    of k inversions — the hot path of robust reconstruction.
    """
    mod = field.modulus
    k = len(values)
    if k == 0:
        return []
    prefix = [0] * k
    acc = 1
    for i, value in enumerate(values):
        if value % mod == 0:
            raise FieldError("zero has no multiplicative inverse")
        acc = (acc * value) % mod
        prefix[i] = acc
    inv_acc = field.inv(acc)
    out = [0] * k
    for i in range(k - 1, -1, -1):
        before = prefix[i - 1] if i > 0 else 1
        out[i] = (before * inv_acc) % mod
        inv_acc = (inv_acc * values[i]) % mod
    return out


def interpolate_coefficients(
    field: PrimeField, points: Sequence[Tuple[int, int]]
) -> List[int]:
    """Full coefficient vector of the interpolating polynomial.

    O(k^2) field operations via synthetic division of the master product
    polynomial.  This is the reference implementation: the windowed
    decoder takes coefficients from the cached
    :meth:`~repro.crypto.kernels.InterpPlan.coefficients`, pinned
    bit-identical to this function by ``tests/test_kernels.py``.
    """
    xs = [p[0] % field.modulus for p in points]
    if len(set(xs)) != len(xs):
        raise FieldError("interpolation points must have distinct x values")
    k = len(points)
    mod = field.modulus
    # master(x) = prod (x - x_j), coefficients low-to-high.
    master = [1]
    for xj in xs:
        nxt = [0] * (len(master) + 1)
        for d, c in enumerate(master):
            nxt[d] = (nxt[d] - c * xj) % mod
            nxt[d + 1] = (nxt[d + 1] + c) % mod
        master = nxt
    inverses = batch_inverse(field, pairwise_denominators(field, xs))

    result = [0] * k
    for index, (xi, yi) in enumerate(points):
        xi %= mod
        # quotient = master / (x - xi) by synthetic division.
        quotient = [0] * k
        carry = master[k]  # leading coefficient (= 1)
        for d in range(k - 1, -1, -1):
            quotient[d] = carry
            carry = (master[d] + carry * xi) % mod
        scale = (yi % mod) * inverses[index] % mod
        for d in range(k):
            result[d] = (result[d] + scale * quotient[d]) % mod
    return result


def lagrange_coefficients_at_zero(
    field: PrimeField, xs: Sequence[int]
) -> List[int]:
    """Per-point multipliers lambda_i with secret = sum(lambda_i * y_i).

    Precomputing these is useful when many secrets are reconstructed from
    shares at the same x-coordinates (as ``sendDown`` does for whole blocks).
    """
    xs = [x % field.modulus for x in xs]
    if len(set(xs)) != len(xs):
        raise FieldError("interpolation points must have distinct x values")
    lambdas: List[int] = []
    for i, xi in enumerate(xs):
        numerator = 1
        denominator = 1
        for j, xj in enumerate(xs):
            if i == j:
                continue
            numerator = (numerator * (-xj)) % field.modulus
            denominator = (denominator * (xi - xj)) % field.modulus
        lambdas.append(numerator * field.inv(denominator) % field.modulus)
    return lambdas
