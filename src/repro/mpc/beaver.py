"""Multiplication of shared values via Beaver triples.

Linear MPC (:mod:`repro.mpc.linear`) handles additions for free;
multiplication needs one round of interaction and preprocessed
randomness.  Beaver's trick (1991): given shares of random ``a, b, c``
with ``c = a * b`` (the *triple*), the committee multiplies shared
``x`` and ``y`` by

1. locally computing shares of ``d = x - a`` and ``e = y - b``;
2. opening ``d`` and ``e`` (safe: ``a``/``b`` are uniform one-time pads);
3. locally setting ``z_i = c_i + d * b_i + e * a_i + d * e`` — shares of
   ``x * y``, since ``xy = c + db + ea + de``.

Triple generation here uses a **trusted dealer** (the standard
preprocessing model; in a full deployment triples are produced by a
distributed protocol — e.g. the committee's own sharing plus degree
reduction — at Theta(k^2) communication per triple;
:mod:`repro.mpc.triples` is that protocol).  The dealer exercises the
same online code path the distributed generation feeds.

Cost per multiplication: two openings (2k field elements) on top of the
free linear algebra — so an arithmetic circuit with m multiplication
gates costs O(m * k) field elements of committee traffic.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from ..crypto.shamir import SecretSharingError, ShamirScheme, Share


@dataclass(frozen=True)
class BeaverTriple:
    """Shares of random a, b and c = a*b, aligned on evaluation points."""

    a: Tuple[Share, ...]
    b: Tuple[Share, ...]
    c: Tuple[Share, ...]

    def __post_init__(self) -> None:
        xs = [s.x for s in self.a]
        if [s.x for s in self.b] != xs or [s.x for s in self.c] != xs:
            raise SecretSharingError(
                "triple rows must use aligned evaluation points"
            )


def generate_triple(
    scheme: ShamirScheme, rng: random.Random
) -> BeaverTriple:
    """Trusted-dealer triple: sample a, b uniformly; deal a, b and a*b."""
    fld = scheme.field
    a_value = fld.random_element(rng)
    b_value = fld.random_element(rng)
    c_value = fld.mul(a_value, b_value)
    return BeaverTriple(
        a=tuple(scheme.deal(a_value, rng)),
        b=tuple(scheme.deal(b_value, rng)),
        c=tuple(scheme.deal(c_value, rng)),
    )


def _open(scheme: ShamirScheme, shares: Sequence[Share]) -> int:
    """Reconstruct a value from its full share row (the 'opening')."""
    return scheme.reconstruct(list(shares)[: scheme.threshold])


def secure_multiply(
    x_shares: Sequence[Share],
    y_shares: Sequence[Share],
    triple: BeaverTriple,
    scheme: ShamirScheme,
) -> List[Share]:
    """Shares of x*y from shares of x and y plus one Beaver triple.

    Consumes the triple (reusing one leaks linear relations between the
    products — callers must generate a fresh triple per gate).
    """
    fld = scheme.field
    if [s.x for s in x_shares] != [s.x for s in triple.a]:
        raise SecretSharingError("x shares misaligned with triple")
    if [s.x for s in y_shares] != [s.x for s in triple.b]:
        raise SecretSharingError("y shares misaligned with triple")

    d_shares = [
        Share(x=s.x, value=fld.sub(s.value, a.value))
        for s, a in zip(x_shares, triple.a)
    ]
    e_shares = [
        Share(x=s.x, value=fld.sub(s.value, b.value))
        for s, b in zip(y_shares, triple.b)
    ]
    d = _open(scheme, d_shares)
    e = _open(scheme, e_shares)

    de = fld.mul(d, e)
    out = []
    for c, a, b in zip(triple.c, triple.a, triple.b):
        value = fld.add(c.value, fld.mul(d, b.value))
        value = fld.add(value, fld.mul(e, a.value))
        value = fld.add(value, de)
        out.append(Share(x=c.x, value=value))
    return out


def secure_inner_product(
    xs: Sequence[Sequence[Share]],
    ys: Sequence[Sequence[Share]],
    triples: Sequence[BeaverTriple],
    scheme: ShamirScheme,
) -> List[Share]:
    """Shares of sum_j x_j * y_j, one triple per term.

    The per-term products are summed locally (free), so the whole inner
    product costs len(xs) multiplications' openings and nothing more.
    """
    if len(xs) != len(ys):
        raise SecretSharingError("vectors must have equal length")
    if len(triples) < len(xs):
        raise SecretSharingError("need one triple per product term")
    fld = scheme.field
    acc: Optional[List[Share]] = None
    for x_shares, y_shares, triple in zip(xs, ys, triples):
        term = secure_multiply(x_shares, y_shares, triple, scheme)
        if acc is None:
            acc = term
        else:
            acc = [
                Share(x=a.x, value=fld.add(a.value, t.value))
                for a, t in zip(acc, term)
            ]
    assert acc is not None
    return acc
