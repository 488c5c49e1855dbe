"""repro — a reproduction of King & Saia (PODC 2010).

"Breaking the O(n^2) Bit Barrier: Scalable Byzantine Agreement with an
Adaptive Adversary."

Quickstart::

    from repro import run_everywhere_ba

    result = run_everywhere_ba(n=81, inputs=[p % 2 for p in range(81)])
    print(result.bit, result.success(), result.max_bits_per_processor())

Package map:

* :mod:`repro.core` — Algorithms 1-5 and their composition (Theorem 1).
* :mod:`repro.crypto` — iterated Shamir secret sharing (§3.1).
* :mod:`repro.samplers` — averaging samplers (§3.2.1).
* :mod:`repro.topology` — committee tree, links, sparse graphs (§3.2.2).
* :mod:`repro.net` — synchronous simulator with rushing adaptive adversary.
* :mod:`repro.adversary` — adversary strategies.
* :mod:`repro.baselines` — O(n^2)-bit comparators (Phase King, Rabin, Ben-Or).
* :mod:`repro.analysis` — closed-form cost models and concentration bounds.
* :mod:`repro.asynchrony` — asynchronous substrate (the conclusion's open
  problem 2): adversarial scheduler, Bracha broadcast, common-coin BA.
* :mod:`repro.lowerbounds` — executable Dolev-Reischuk and
  Holtby-Kapron-King attacks (the bounds of Sections 1-2).
* :mod:`repro.mpc` — secure computation on the sharing substrate (open
  problem 3): linear MPC, Beaver multiplication, dealer-free triples.
* :mod:`repro.engine` — sharded/batched Monte-Carlo execution of
  experiment specs (serial, process-pool and batch backends; ENGINE.md).
* :mod:`repro.cli` — the ``python -m repro`` command line.
"""

from .core import (
    AEBAResult,
    AEToEResult,
    EverywhereBAResult,
    GlobalCoinSubsequence,
    LeaderSchedule,
    ProtocolParameters,
    ReplicatedLogResult,
    Tournament,
    TournamentResult,
    lightest_bin_election,
    run_ae_to_everywhere,
    run_almost_everywhere_ba,
    run_everywhere_ba,
    run_leader_election,
    run_replicated_log,
    run_unreliable_coin_ba,
)
from .engine import (
    Engine,
    ExperimentResult,
    ExperimentSpec,
    TrialResult,
    run_experiment,
)

__version__ = "1.1.0"

__all__ = [
    "AEBAResult",
    "AEToEResult",
    "Engine",
    "EverywhereBAResult",
    "ExperimentResult",
    "ExperimentSpec",
    "TrialResult",
    "run_experiment",
    "GlobalCoinSubsequence",
    "LeaderSchedule",
    "ProtocolParameters",
    "ReplicatedLogResult",
    "Tournament",
    "TournamentResult",
    "lightest_bin_election",
    "run_ae_to_everywhere",
    "run_almost_everywhere_ba",
    "run_everywhere_ba",
    "run_leader_election",
    "run_replicated_log",
    "run_unreliable_coin_ba",
    "__version__",
]
