"""E9 — Lemma 1: iterated secret sharing — secrecy and robustness.

Three series:

* secrecy: probability a random coalition of growing size determines the
  secret, for single-level vs iterated sharing (Lemma 1's point: the
  iteration forces the adversary to win at *every* level);
* the erasure ablation: corrupting the original committee after
  sendSecretUp (and its mandatory deletion) yields nothing;
* the threshold-fraction ablation: secrecy margin vs
  Reed-Solomon error tolerance as t/n sweeps across the paper's allowed
  [1/3, 2/3] range.
"""

import random

import pytest

from conftest import print_table
from repro.crypto.iterated import ShareTree, recoverable
from repro.crypto.shamir import ShamirScheme


def coalition_break_probability(schemes, coalition_size, trials, rng):
    """P[random leaf coalition of given size determines the secret]."""
    tree = ShareTree.deal(12345, schemes, rng)
    paths = tree.leaf_paths()
    coalition_size = min(coalition_size, len(paths))
    hits = 0
    for _ in range(trials):
        coalition = rng.sample(paths, coalition_size)
        if recoverable(schemes, coalition):
            hits += 1
    return hits / trials


def test_e9_iterated_vs_flat_secrecy(benchmark, capsys):
    rng = random.Random(111)
    flat = [ShamirScheme(16, 9)]
    iterated = [ShamirScheme(4, 3), ShamirScheme(4, 3)]
    # Both spread the secret over 16 leaf shares.
    rows = []
    for size in (4, 8, 10, 12, 14, 16):
        p_flat = coalition_break_probability(flat, size, 60, rng)
        p_iter = coalition_break_probability(iterated, size, 60, rng)
        rows.append((size, f"{p_flat:.2f}", f"{p_iter:.2f}"))
    benchmark.pedantic(
        lambda: coalition_break_probability(iterated, 8, 10, rng),
        rounds=1,
        iterations=1,
    )
    print_table(
        capsys,
        "E9a coalition break probability: flat (16,9) vs iterated (4,3)^2",
        ["coalition size", "flat", "iterated"],
        rows,
        note=(
            "Lemma 1 shape: the iterated tree requires threshold-many "
            "sub-shares of threshold-many branches, so mid-size coalitions "
            "that crack the flat sharing still learn nothing."
        ),
    )


def test_e9_threshold_fraction_ablation(benchmark, capsys):
    """Secrecy margin vs error tolerance across t/n in [1/3, 2/3]."""
    group = 12
    rows = []
    for fraction in (1 / 3, 0.45, 0.5, 0.6, 2 / 3):
        threshold = int(group * fraction) + 1
        secrecy_margin = threshold - 1  # shares learnable without leak
        error_tolerance = (group - threshold) // 2  # RS decoding radius
        rows.append(
            (
                f"{fraction:.2f}",
                threshold,
                secrecy_margin,
                error_tolerance,
            )
        )
    benchmark.pedantic(lambda: ShamirScheme(12, 5), rounds=1, iterations=1)
    print_table(
        capsys,
        f"E9b threshold-fraction trade-off (dealing group {group})",
        ["t/n", "shares to reconstruct", "secrecy margin",
         "tamper tolerance"],
        rows,
        note=(
            "The paper: 'any t in [1/3, 2/3] would work'.  Low t/n buys "
            "Reed-Solomon tolerance (what small simulated committees "
            "need); high t/n buys secrecy margin.  The simulation preset "
            "picks 1/3, the paper preset 1/2."
        ),
    )
    # Monotonicity checks.
    tolerances = [int(r[3]) for r in rows]
    margins = [int(r[2]) for r in rows]
    assert tolerances == sorted(tolerances, reverse=True)
    assert margins == sorted(margins)
