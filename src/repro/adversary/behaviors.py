"""Reusable byzantine message-generation behaviors.

These plug into :class:`~repro.adversary.static.StaticByzantineAdversary`
and :class:`~repro.adversary.adaptive.AdaptiveByzantineAdversary` to decide
what corrupted processors say each round.  They target the voting protocols
in this library (Algorithm 5's ``vote`` messages and the baselines'
broadcast votes) but are deliberately protocol-agnostic: a behavior simply
maps (round, view, recipients) to payload bits.
"""

from __future__ import annotations

import abc
import random
from collections import Counter
from typing import Dict, Iterable, List, Optional, Sequence, Set

from ..net.messages import Message
from ..net.simulator import AdversaryView


class VoteBehavior(abc.ABC):
    """Decides the bit each corrupted processor sends to each recipient."""

    @abc.abstractmethod
    def votes(
        self,
        view: AdversaryView,
        sender: int,
        recipients: Sequence[int],
        rng: random.Random,
    ) -> Dict[int, Optional[int]]:
        """Map recipient -> bit (or None to stay silent to that recipient)."""


class SilentBehavior(VoteBehavior):
    """Crash-style faults: corrupted processors say nothing."""

    def votes(self, view, sender, recipients, rng):
        return {recipient: None for recipient in recipients}


class FixedBitBehavior(VoteBehavior):
    """Always vote a fixed bit — pushes the network toward one value."""

    def __init__(self, bit: int) -> None:
        self.bit = bit

    def votes(self, view, sender, recipients, rng):
        return {recipient: self.bit for recipient in recipients}


class RandomBitBehavior(VoteBehavior):
    """Independent uniform bit per recipient per round."""

    def votes(self, view, sender, recipients, rng):
        return {recipient: rng.randrange(2) for recipient in recipients}


class EquivocatingBehavior(VoteBehavior):
    """Split-vote attack: 0 to even-ID recipients, 1 to odd-ID ones.

    The classic attack that randomized BA's coin must defeat — it keeps
    good processors maximally split around the 2/3 threshold.
    """

    def votes(self, view, sender, recipients, rng):
        return {recipient: recipient % 2 for recipient in recipients}


class AntiMajorityBehavior(VoteBehavior):
    """Rushing attack: observe inbound votes, then push the minority bit.

    Because the adversary is rushing it sees all good votes addressed to
    corrupted processors before it must speak; it votes against whatever
    majority it observed, maximising confusion.  Every corrupted sender
    of a round gets the same view, so the view is tallied on the first
    sender's call and its opposing bit reused by the others.  With
    nothing to oppose, each sender draws its own random bit.
    """

    def __init__(self) -> None:
        self._view: Optional[AdversaryView] = None
        self._opposing: Optional[int] = None

    def votes(self, view, sender, recipients, rng):
        if view is not self._view:
            self._view = view
            self._opposing = _opposing_bit(view.inbound)
        push = self._opposing
        if push is None:
            push = rng.randrange(2)
        return dict.fromkeys(recipients, push)


def _opposing_bit(inbound: Iterable[Message]) -> Optional[int]:
    """The bit against the majority of the observed votes, if any."""
    tally = Counter(
        message.payload
        for message in inbound
        if message.tag == "vote" and isinstance(message.payload, int)
    )
    if not tally:
        return None
    majority_bit = max(tally.items(), key=lambda kv: kv[1])[0]
    return 1 - int(majority_bit) % 2


class KeepSplitBehavior(VoteBehavior):
    """Adaptive split-maintenance: report opposite bits to the two halves
    of the recipients *per round*, reshuffled so no recipient can learn a
    stable pattern."""

    def votes(self, view, sender, recipients, rng):
        shuffled = list(recipients)
        rng.shuffle(shuffled)
        half = len(shuffled) // 2
        result: Dict[int, Optional[int]] = {}
        for i, recipient in enumerate(shuffled):
            result[recipient] = 0 if i < half else 1
        return result


def behavior_by_name(name: str, **kwargs) -> VoteBehavior:
    """Factory used by benchmarks to sweep adversary behaviors by name."""
    table = {
        "silent": SilentBehavior,
        "fixed0": lambda: FixedBitBehavior(0),
        "fixed1": lambda: FixedBitBehavior(1),
        "random": RandomBitBehavior,
        "equivocate": EquivocatingBehavior,
        "anti_majority": AntiMajorityBehavior,
        "keep_split": KeepSplitBehavior,
    }
    try:
        factory = table[name]
    except KeyError:
        raise ValueError(f"unknown behavior {name!r}") from None
    return factory(**kwargs) if kwargs else factory()
