"""E18 — extension: scalable secure computation (Conclusion, question 3).

The paper asks whether its ideas extend to scalable secure multi-party
computation.  The library's answer is the committee composition: universe
reduction picks a polylog committee; the committee runs Shamir-additive
MPC on everyone's behalf.  This bench measures the costs that make the
composition "scalable":

* E18a — per-owner bits vs committee size for a secure sum over n
  owners, against the naive n-party MPC where every owner deals to all n
  (Theta(n) per owner) — the committee keeps each owner at O(k).
* E18b — multiplication depth: Beaver openings per inner product, and
  correctness across committee sizes.
* E18c — triple preprocessing: dealer-free (GRR degree reduction)
  generation cost versus committee size — the Theta(k^2) per triple that
  a deployment pays instead of trusting a dealer.
"""

import random

import pytest

from conftest import print_table
from repro.crypto.shamir import ShamirScheme
from repro.mpc import (
    generate_triple,
    secure_inner_product,
    secure_sum,
)


def test_e18a_committee_vs_naive_cost(benchmark, capsys):
    n_owners = 256
    inputs = [i % 50 for i in range(n_owners)]
    rows = []
    for k in (5, 9, 17, 33):
        transcript = secure_sum(inputs, committee_size=k, seed=k)
        naive_bits = n_owners * 31  # deal to all n owners instead
        rows.append(
            (
                k,
                transcript.bits_per_input_owner,
                naive_bits,
                f"{naive_bits / transcript.bits_per_input_owner:.1f}x",
                transcript.result == sum(inputs),
            )
        )
        assert transcript.result == sum(inputs)
    benchmark.pedantic(
        lambda: secure_sum(inputs, committee_size=9, seed=1),
        rounds=1, iterations=1,
    )
    print_table(
        capsys,
        f"E18a secure sum over {n_owners} owners: committee vs naive "
        "n-party dealing",
        ["committee k", "bits/owner (committee)", "bits/owner (naive)",
         "saving", "correct"],
        rows,
        note=(
            "Each owner deals k shares instead of n: with k = polylog(n) "
            "the per-owner cost stays within Theorem 1's O~(sqrt n) "
            "budget -- the committee composition the conclusion asks for."
        ),
    )


def test_e18b_beaver_inner_products(benchmark, capsys):
    rng = random.Random(3)
    rows = []
    for k in (5, 9, 17):
        scheme = ShamirScheme(n_players=k, threshold=k // 2 + 1)
        length = 8
        xs_plain = [rng.randrange(100) for _ in range(length)]
        ys_plain = [rng.randrange(100) for _ in range(length)]
        xs = [scheme.deal(v, rng) for v in xs_plain]
        ys = [scheme.deal(v, rng) for v in ys_plain]
        triples = [generate_triple(scheme, rng) for _ in range(length)]
        z_shares = secure_inner_product(xs, ys, triples, scheme)
        z = scheme.reconstruct(z_shares[: scheme.threshold])
        expected = sum(a * b for a, b in zip(xs_plain, ys_plain))
        openings = 2 * length  # d and e per term
        rows.append(
            (k, length, openings, openings * k * 31, z == expected)
        )
        assert z == expected
    benchmark.pedantic(
        lambda: secure_inner_product(xs, ys, triples, scheme),
        rounds=1, iterations=1,
    )
    print_table(
        capsys,
        "E18b Beaver-triple inner products (length-8 vectors)",
        ["committee k", "mult gates", "openings", "opened bits total",
         "correct"],
        rows,
        note=(
            "Each multiplication costs two openings (2k elements); "
            "additions are free. Circuit cost scales with multiplication "
            "count times committee size, independent of n."
        ),
    )


def test_e18c_distributed_triple_generation(benchmark, capsys):
    from repro.mpc import (
        generate_triple_distributed,
        secure_multiply,
        triple_generation_bits,
        triple_scheme,
    )

    rng = random.Random(9)
    rows = []
    for k in (4, 7, 10, 13):
        scheme = triple_scheme(k)
        triple = generate_triple_distributed(scheme, rng)
        x_shares = scheme.deal(21, rng)
        y_shares = scheme.deal(2, rng)
        z = scheme.reconstruct(
            secure_multiply(x_shares, y_shares, triple, scheme)[
                : scheme.threshold
            ]
        )
        rows.append(
            (
                k,
                scheme.threshold - 1,
                triple_generation_bits(scheme),
                2 * k * 31,
                z == 42,
            )
        )
        assert z == 42
    benchmark.pedantic(
        lambda: generate_triple_distributed(triple_scheme(7), rng),
        rounds=1, iterations=1,
    )
    print_table(
        capsys,
        "E18c dealer-free Beaver triples (GRR degree reduction)",
        ["committee k", "t", "preprocessing bits/triple",
         "online bits/mult", "correct"],
        rows,
        note=(
            "Preprocessing is Theta(k^2) per triple (3 dealings of k "
            "shares by each of k members) and amortises across the "
            "batch; the online multiplication stays at two openings. "
            "This removes the trusted dealer entirely."
        ),
    )
