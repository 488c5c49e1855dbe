"""Adaptive-corruption adversaries — the model this paper is about.

An adaptive adversary may take over processors *during* the protocol, up
to its (1/3 - eps) * n budget.  The killer application of adaptivity is
targeting whoever becomes important: elected committee members, processors
holding revealed secrets, high-degree sampler elements.

Two flavours are provided:

* :class:`AdaptiveByzantineAdversary` — actor-model adversary for the
  :class:`~repro.net.simulator.SyncNetwork`; corrupts according to a
  targeting policy fed by its (private-channel-limited) observations.
* :class:`TournamentAdversary` — the adversary interface used by the
  tournament orchestration in :mod:`repro.core.almost_everywhere`, with
  hooks at each phase where the paper's adversary gets to move.
"""

from __future__ import annotations

import abc
import random
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from ..net.messages import Message
from ..net.simulator import Adversary, AdversaryView
from .behaviors import VoteBehavior


class TargetingPolicy(abc.ABC):
    """Chooses who to corrupt next, given what the adversary has seen."""

    @abc.abstractmethod
    def choose(
        self,
        round_no: int,
        corrupted: Set[int],
        observed_senders: Dict[int, int],
        remaining_budget: int,
        n: int,
        rng: random.Random,
    ) -> Set[int]:
        """Return processor IDs to corrupt this round (<= remaining budget)."""


class NoTargeting(TargetingPolicy):
    """Targeting policy that never corrupts anyone."""

    def choose(self, round_no, corrupted, observed_senders, remaining_budget, n, rng):
        return set()


class CorruptChattiest(TargetingPolicy):
    """Corrupt the processors the adversary has heard from most.

    With private channels the adversary only observes senders of messages
    addressed to corrupted processors; "chattiest toward me" is the best
    proxy it has for protocol importance.
    """

    def __init__(self, per_round: int = 1, start_round: int = 1) -> None:
        self.per_round = per_round
        self.start_round = start_round

    def choose(self, round_no, corrupted, observed_senders, remaining_budget, n, rng):
        if round_no < self.start_round or remaining_budget <= 0:
            return set()
        candidates = [
            pid
            for pid, _count in sorted(
                observed_senders.items(), key=lambda kv: -kv[1]
            )
            if pid not in corrupted
        ]
        take = min(self.per_round, remaining_budget)
        return set(candidates[:take])


class CorruptScheduled(TargetingPolicy):
    """Corrupt a scripted set of processors at scripted rounds.

    Used to reproduce the adaptive attack on processor-elections: wait for
    the election result, then take over the winners.
    """

    def __init__(self, schedule: Dict[int, Iterable[int]]) -> None:
        self.schedule = {r: set(p) for r, p in schedule.items()}

    def choose(self, round_no, corrupted, observed_senders, remaining_budget, n, rng):
        return set(self.schedule.get(round_no, set())) - corrupted


class CorruptRandomGradually(TargetingPolicy):
    """Corrupt random good processors at a steady rate until out of budget."""

    def __init__(self, per_round: int = 1) -> None:
        self.per_round = per_round

    def choose(self, round_no, corrupted, observed_senders, remaining_budget, n, rng):
        if remaining_budget <= 0:
            return set()
        available = [pid for pid in range(n) if pid not in corrupted]
        take = min(self.per_round, remaining_budget, len(available))
        return set(rng.sample(available, take))


class AdaptiveByzantineAdversary(Adversary):
    """Actor-model adversary combining a targeting policy and a vote behavior."""

    def __init__(
        self,
        n: int,
        budget: int,
        policy: TargetingPolicy,
        behavior: VoteBehavior,
        recipients_of: Optional[Dict[int, Sequence[int]]] = None,
        vote_tag: str = "vote",
        seed: int = 0,
    ) -> None:
        super().__init__(n, budget)
        self.policy = policy
        self.behavior = behavior
        self.recipients_of = recipients_of
        self.vote_tag = vote_tag
        self.rng = random.Random(seed)
        self._observed_senders: Dict[int, int] = {}
        self._round = 0

    def select_corruptions(self, round_no: int) -> Set[int]:
        self._round = round_no
        return self.policy.choose(
            round_no,
            self.corrupted,
            self._observed_senders,
            self.remaining_budget(),
            self.n,
            self.rng,
        )

    def act(self, view: AdversaryView) -> List[Message]:
        for message in view.inbound:
            if message.sender not in view.corrupted:
                self._observed_senders[message.sender] = (
                    self._observed_senders.get(message.sender, 0) + 1
                )
        messages: List[Message] = []
        for sender in sorted(view.corrupted):
            if self.recipients_of is not None:
                recipients = self.recipients_of.get(sender, ())
            else:
                recipients = [
                    pid for pid in range(self.n) if pid not in view.corrupted
                ]
            votes = self.behavior.votes(view, sender, recipients, self.rng)
            for recipient, bit in votes.items():
                if bit is None:
                    continue
                messages.append(
                    Message(sender, recipient, self.vote_tag, bit)
                )
        return messages


class TournamentAdversary:
    """Adversary hooks for the phase-structured tournament orchestration.

    The tournament (Algorithm 2) is simulated phase-by-phase; at each
    phase boundary the adversary gets exactly the moves the paper grants
    it.  Subclass and override any hook.

    Hook contract:

    * ``initial_corruptions`` — static head start (may be empty).
    * ``corrupt_after_election`` — adaptive takeover between levels; sees
      which arrays won which elections *after* the result is fixed, which
      is exactly when the paper's adaptive adversary gets to move and
      exactly why electing *processors* would fail.
    * ``bad_bin_choice`` / ``bad_coin_word`` — values revealed from
      corrupted arrays' blocks (the adversary controls the inputs of bad
      processors, hence the contents of bad arrays).
    """

    def __init__(self, n: int, budget: int, seed: int = 0) -> None:
        self.n = n
        self.budget = budget
        self.corrupted: Set[int] = set()
        self.rng = random.Random(seed)

    def remaining_budget(self) -> int:
        """Corruption budget not yet spent."""
        return self.budget - len(self.corrupted)

    def take_over(self, pids: Iterable[int]) -> Set[int]:
        """Corrupt as many of ``pids`` as the budget allows; returns those taken."""
        taken = set()
        for pid in pids:
            if self.remaining_budget() <= 0:
                break
            if pid not in self.corrupted and 0 <= pid < self.n:
                self.corrupted.add(pid)
                taken.add(pid)
        return taken

    # -- hooks --------------------------------------------------------------------

    def initial_corruptions(self) -> Set[int]:
        return set()

    def corrupt_after_election(
        self,
        level: int,
        winners: Sequence[int],
        node_members: Sequence[int],
    ) -> Set[int]:
        """Called after each node election with the winning array owners."""
        return set()

    def bad_bin_choice(self, level: int, owner: int, num_bins: int) -> int:
        """Bin choice revealed for a corrupted candidate array."""
        return 0  # stuff the lowest bin

    def bad_coin_word(self, level: int, owner: int, index: int) -> int:
        """Coin word revealed for a corrupted candidate array."""
        return 0


class GreedyElectionAdversary(TournamentAdversary):
    """Adaptively corrupts winning-array owners after every election.

    Against a *processor* election this wins outright (take over the small
    elected set).  Against the paper's *array* election it gains nothing:
    the arrays' secrets were shared before the winners were known, so
    corrupting the owners afterwards does not let the adversary bias coins
    already committed.  E5's ablation measures exactly this difference.
    """

    def corrupt_after_election(self, level, winners, node_members):
        return self.take_over(list(winners))


class BinStuffingAdversary(TournamentAdversary):
    """Corrupted candidates coordinate bin choices to crowd a chosen bin."""

    def __init__(
        self, n: int, budget: int, seed: int = 0, strategy: str = "stuff"
    ) -> None:
        super().__init__(n, budget, seed)
        if strategy not in ("stuff", "spread", "random"):
            raise ValueError(f"unknown bin strategy {strategy!r}")
        self.strategy = strategy
        self._spread_counter = 0

    def initial_corruptions(self) -> Set[int]:
        return self.take_over(range(self.budget))

    def bad_bin_choice(self, level: int, owner: int, num_bins: int) -> int:
        if self.strategy == "stuff":
            return 0
        if self.strategy == "spread":
            self._spread_counter += 1
            return self._spread_counter % max(1, num_bins)
        return self.rng.randrange(max(1, num_bins))
