"""Asynchronous BA driven by a *common* coin — what a global coin buys.

This module runs the exact Ben-Or skeleton of
:mod:`repro.asynchrony.benor_async` but replaces the private per-
processor coin flip with a phase-indexed **common coin oracle**: all good
processors that reach phase ``r`` undecided adopt the same random bit
``coin(r)``.  The classic analysis (Rabin 1983, the paper's [21]) then
gives agreement within expected O(1) phases instead of expected
exponentially many: every phase in which the good processors are split,
the coin matches the side that could decide with probability 1/2.

King-Saia's contribution in the synchronous model is precisely the
construction of such a coin for o(n^2) bits against an adaptive
adversary (the global coin subsequence, Theorem 2/3).  Asynchronously,
every known unconditional construction costs Omega(n^2) bits — which is
why we model the coin as an oracle here and charge its cost separately
in benchmark E15.

The oracle interface also admits an *adversarially biased* coin
(:class:`AdversarialCoinOracle`) so tests can show exactly how agreement
degrades when the coin's randomness guarantee is broken — the asynchronous
mirror of the zero-good-coins experiment E3.
"""

from __future__ import annotations

import abc
import random
from typing import Dict, List, Optional, Sequence

from ..net.messages import Message
from .benor_async import NO_PROPOSAL, AsyncBenOrProcess
from .scheduler import (
    AsyncAdversary,
    AsyncNetwork,
    AsyncRunResult,
    NullAsyncAdversary,
    Scheduler,
)


class CommonCoinOracle(abc.ABC):
    """Phase-indexed source of shared random bits."""

    @abc.abstractmethod
    def coin(self, phase: int) -> int:
        """The common coin for ``phase``; must be stable across calls."""

    def bits_charged_per_processor(self) -> int:
        """Accounting hook: bits each processor pays per coin (0 = free)."""
        return 0


class SeededCoinOracle(CommonCoinOracle):
    """Honest oracle: independent fair bits, identical for all callers."""

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed
        self._cache: Dict[int, int] = {}

    def coin(self, phase: int) -> int:
        if phase not in self._cache:
            self._cache[phase] = random.Random(
                (self.seed << 24) | phase
            ).randrange(2)
        return self._cache[phase]


class AdversarialCoinOracle(CommonCoinOracle):
    """Broken oracle: the adversary fixes every coin (worst case).

    With ``fixed_bit`` the coin always lands one way; with a ``schedule``
    the adversary scripts each phase.  Used to demonstrate that the
    skeleton's *safety* (agreement, validity) never depends on the coin —
    only liveness does.
    """

    def __init__(
        self,
        fixed_bit: int = 0,
        schedule: Optional[Dict[int, int]] = None,
    ) -> None:
        self.fixed_bit = int(fixed_bit)
        self.schedule = dict(schedule) if schedule else {}

    def coin(self, phase: int) -> int:
        return self.schedule.get(phase, self.fixed_bit)


class CoinBAProcess(AsyncBenOrProcess):
    """Ben-Or skeleton with the private coin swapped for the oracle."""

    def __init__(
        self,
        pid: int,
        n: int,
        input_bit: int,
        oracle: CommonCoinOracle,
        max_phases: int = 64,
    ) -> None:
        # The private RNG is never consulted; pass a fixed-seed stub.
        super().__init__(
            pid, n, input_bit, rng=random.Random(0), max_phases=max_phases
        )
        self.oracle = oracle
        self.coins_consumed = 0

    def _finish_stage(self, key):  # type: ignore[override]
        phase, stage = key
        if stage != "proposal":
            return super()._finish_stage(key)
        # Re-implement the proposal stage with the common coin fallback.
        own = self._own_proposal
        values = list(self._received[key].values()) + [own]
        from collections import Counter

        proposals = Counter(v for v in values if v != NO_PROPOSAL)
        if proposals:
            top, count = self._top(proposals)
            if count >= 3 * self.fault_bound + 1:
                self._decided = top
                self.vote = top
                return self._broadcast_decision()
            if count >= self.fault_bound + 1:
                self.vote = top
                return self._next_phase()
        self.vote = self.oracle.coin(phase)
        self.coins_consumed += 1
        return self._next_phase()


def run_common_coin_ba(
    n: int,
    inputs: Sequence[int],
    oracle: Optional[CommonCoinOracle] = None,
    adversary: Optional[AsyncAdversary] = None,
    scheduler: Optional[Scheduler] = None,
    max_phases: int = 64,
    seed: int = 0,
    max_steps: Optional[int] = None,
) -> AsyncRunResult:
    """Run the common-coin BA until decision or the step cap."""
    if len(inputs) != n:
        raise ValueError("inputs length must equal n")
    if oracle is None:
        oracle = SeededCoinOracle(seed)
    if adversary is None:
        adversary = NullAsyncAdversary(n)
    processes = [
        CoinBAProcess(pid, n, inputs[pid], oracle, max_phases=max_phases)
        for pid in range(n)
    ]
    network = AsyncNetwork(processes, adversary, scheduler=scheduler)
    cap = max_steps if max_steps is not None else 50 * n * n * max_phases
    return network.run(max_steps=cap)
