"""Dealer-free Beaver triple generation (GRR degree reduction).

Removes the trusted dealer that :mod:`repro.mpc.beaver` assumes.  The
committee generates its own triples with the Gennaro-Rabin-Rabin (1998)
simplification of BGW multiplication:

1. **Random sharings without a dealer**: every member deals a random
   value; the sum of all dealings is a uniformly random shared value no
   coalition below the threshold can bias or predict (each member's own
   contribution is a one-time pad on the rest).  Two of these give
   shared ``a`` and ``b``.
2. **Local multiplication**: member ``i`` computes ``d_i = a_i * b_i``,
   a point on the degree-``2t`` product polynomial — too high a degree
   to reconstruct with ``t+1`` shares, hence step 3.
3. **Degree reduction**: each member re-shares ``d_i`` at degree ``t``;
   members then combine the received sub-shares with the public
   Lagrange coefficients lambda_i (``ab = sum_i lambda_i * d_i``) to
   obtain degree-``t`` shares of ``c = a * b``.

Requires ``n_players >= 2t + 1`` so the product polynomial is
determined by the members' points — the honest-majority condition of
BGW, satisfied by the paper's committees (corruption below 1/3 with
t chosen at n/3 rather than the sharing layer's default n/2).

Cost: 2 dealings per member for a/b plus one re-sharing per member for
the reduction — Theta(k^2) field elements per triple, the figure quoted
in the E18 notes.
"""

from __future__ import annotations

import random
from typing import List, Optional, Sequence

from ..crypto.kernels import lambdas_at_zero
from ..crypto.shamir import SecretSharingError, ShamirScheme, Share
from .beaver import BeaverTriple


def triple_scheme(committee_size: int) -> ShamirScheme:
    """A Shamir configuration that supports degree reduction.

    Degree reduction needs n >= 2t + 1; choose t = (k - 1) // 3 (the
    BA-compatible third) so the committee tolerates the same corruption
    fraction as the surrounding protocol.
    """
    t = (committee_size - 1) // 3
    return ShamirScheme(n_players=committee_size, threshold=t + 1)


def check_reduction_compatible(scheme: ShamirScheme) -> None:
    """Raise unless the scheme leaves room for degree-2t interpolation."""
    t = scheme.threshold - 1
    if scheme.n_players < 2 * t + 1:
        raise SecretSharingError(
            f"degree reduction needs n >= 2t+1: n={scheme.n_players}, "
            f"t={t}"
        )


def distributed_random_sharing(
    scheme: ShamirScheme,
    rng: random.Random,
    contributions: Optional[Sequence[int]] = None,
) -> List[Share]:
    """A shared uniform random value with no dealer.

    Every member deals a random contribution; members sum their columns.
    ``contributions`` overrides the sampled values (used by tests and by
    adversary simulations that fix corrupt members' inputs — note that
    fixing up to ``threshold - 1`` contributions cannot bias the sum).
    """
    fld = scheme.field
    k = scheme.n_players
    if contributions is None:
        contributions = [fld.random_element(rng) for _ in range(k)]
    if len(contributions) != k:
        raise SecretSharingError("one contribution per member required")
    rows = scheme.deal_many(contributions, rng)
    summed = []
    for i in range(k):
        x = rows[0][i].x
        acc = 0
        for row in rows:
            acc = fld.add(acc, row[i].value)
        summed.append(Share(x=x, value=acc))
    return summed


def degree_reduce_product(
    a_shares: Sequence[Share],
    b_shares: Sequence[Share],
    scheme: ShamirScheme,
    rng: random.Random,
) -> List[Share]:
    """Degree-t shares of a*b from degree-t shares of a and b (GRR).

    Every member participates (the simulation is omniscient; a real
    deployment runs the same arithmetic across the committee's private
    channels and one synchronous round).
    """
    check_reduction_compatible(scheme)
    fld = scheme.field
    k = scheme.n_players
    if [s.x for s in a_shares] != [s.x for s in b_shares]:
        raise SecretSharingError("a and b shares misaligned")

    # Step 2: local products — points on the degree-2t polynomial.
    products = [
        fld.mul(a.value, b.value) for a, b in zip(a_shares, b_shares)
    ]

    # Step 3: each member re-shares its product point at degree t...
    reshared = scheme.deal_many(products, rng)

    # ...and everyone linearly combines with the public Lagrange weights
    # for interpolating the degree-2t polynomial at zero from all k points
    # (plan-cached: the committee grid is fixed, so repeated triples pay
    # the weight setup once).
    xs = [s.x for s in a_shares]
    lambdas = lambdas_at_zero(fld, xs)
    reduced = []
    for j in range(k):
        x = reshared[0][j].x
        acc = 0
        for i in range(k):
            acc = fld.add(acc, fld.mul(lambdas[i], reshared[i][j].value))
        reduced.append(Share(x=x, value=acc))
    return reduced


def generate_triple_distributed(
    scheme: ShamirScheme, rng: random.Random
) -> BeaverTriple:
    """A Beaver triple produced by the committee itself (no dealer)."""
    check_reduction_compatible(scheme)
    a_shares = distributed_random_sharing(scheme, rng)
    b_shares = distributed_random_sharing(scheme, rng)
    c_shares = degree_reduce_product(a_shares, b_shares, scheme, rng)
    return BeaverTriple(
        a=tuple(a_shares), b=tuple(b_shares), c=tuple(c_shares)
    )


def triple_generation_bits(scheme: ShamirScheme) -> int:
    """Field bits of committee traffic one distributed triple costs.

    Two random dealings plus one re-sharing, each k members dealing k
    shares: 3 * k^2 field elements.
    """
    k = scheme.n_players
    return 3 * k * k * scheme.field.element_bits
