"""Per-processor bit and message accounting.

Theorem 1 is a statement about the number of bits each processor *sends*;
the ledger therefore attributes cost to senders.  It also tracks received
bits (useful for flooding experiments: bad processors may send any number
of messages, and the protocol must bound what good processors *act on*,
not what arrives).
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, Iterable, Optional, Sequence

from .messages import Message

#: Matches no message field, so an outbox's first message is sized.
_UNSIZED = object()


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolation percentile (q in [0, 100]) of raw values.

    The one percentile definition the repo uses — ledger snapshots,
    engine aggregates (re-exported by :mod:`repro.engine.aggregate`)
    and telemetry reports all interpolate identically.
    """
    if not values:
        raise ValueError("percentile of empty sequence")
    if not 0 <= q <= 100:
        raise ValueError("q must be within [0, 100]")
    ordered = sorted(float(v) for v in values)
    if len(ordered) == 1:
        return ordered[0]
    rank = (q / 100) * (len(ordered) - 1)
    low = math.floor(rank)
    high = math.ceil(rank)
    if low == high:
        return ordered[low]
    weight = rank - low
    return ordered[low] * (1 - weight) + ordered[high] * weight


@dataclass
class LedgerSnapshot:
    """Aggregated statistics at a point in time."""

    total_bits_sent: int
    total_messages: int
    max_bits_per_processor: int
    mean_bits_per_processor: float
    rounds: int
    p50_bits_per_processor: float = 0.0
    p90_bits_per_processor: float = 0.0
    p99_bits_per_processor: float = 0.0

    def as_row(self) -> Dict[str, float]:
        """The snapshot as a flat dict (one results-table row)."""
        return {
            "total_bits_sent": self.total_bits_sent,
            "total_messages": self.total_messages,
            "max_bits_per_processor": self.max_bits_per_processor,
            "mean_bits_per_processor": self.mean_bits_per_processor,
            "p50_bits_per_processor": self.p50_bits_per_processor,
            "p90_bits_per_processor": self.p90_bits_per_processor,
            "p99_bits_per_processor": self.p99_bits_per_processor,
            "rounds": self.rounds,
        }


class BitLedger:
    """Accumulates sent/received bit counts per processor and per phase."""

    def __init__(self, n: int) -> None:
        self.n = n
        self.sent_bits: Dict[int, int] = defaultdict(int)
        self.received_bits: Dict[int, int] = defaultdict(int)
        self.sent_messages: Dict[int, int] = defaultdict(int)
        self.phase_bits: Dict[str, int] = defaultdict(int)
        self.rounds = 0
        self._phase = "default"

    # -- recording ---------------------------------------------------------------

    def set_phase(self, phase: str) -> None:
        """Attribute subsequent traffic to a named protocol phase."""
        self._phase = phase

    def record(self, *messages: Message) -> None:
        """Account one sender's messages to it, their recipients and phase.

        ``record(m)`` charges one message; ``SyncNetwork.step`` charges
        a good sender's whole outbox of a round with one call.  Either
        way every counter ends as one call per message would leave it:
        each message's bits go to its recipient, and the total bits and
        message count go to the sender and the phase in one add each.
        A message is sized by :meth:`Message.bits` only when its tag or
        payload is not the same object as the previous message's, so a
        broadcast of one vote is sized once.  No messages charge
        nothing.  Every message must be from the first one's sender.
        """
        if not messages:
            return
        received = self.received_bits
        tag = payload = _UNSIZED
        bits = total = 0
        for message in messages:
            if message.tag is not tag or message.payload is not payload:
                tag = message.tag
                payload = message.payload
                bits = message.bits()
            received[message.recipient] += bits
            total += bits
        sender = messages[0].sender
        self.sent_bits[sender] += total
        self.sent_messages[sender] += len(messages)
        self.phase_bits[self._phase] += total

    def record_abstract(
        self,
        sender: int,
        recipients: Sequence[int],
        bits: int,
        messages: int = 1,
    ) -> None:
        """Account one sender's fan-out without materialising Message
        objects.

        The tournament orchestration uses this for bulk share transfers
        where building millions of Message objects would dominate runtime
        without changing the counted bits.  One call stands for
        ``messages`` messages carrying ``bits`` in total from ``sender``
        to each of ``recipients``, and leaves every counter, values and
        key order alike, as one call per recipient would; one call with
        ``k * w`` bits and ``messages=k`` counts as k calls with ``w``
        bits.  An empty ``recipients`` charges nothing, as ``record()``
        with no messages does.

        The tree communicator's message-count convention
        (:mod:`repro.core.communication`): the initial dealing and
        sendSecretUp count one message per share copy, so each dealer
        makes one call for all its targets with ``messages`` set to its
        share count; the sendDown hops, the level-1 exchange and sendOpen
        count one message per (sender, recipient) pair per call, whatever
        the word count.  Every caller but sendOpen, whose word counts
        differ per pair, charges a sender's whole fan-out in one call.
        Callers skip senders that carry no words, so no call adds a zero
        entry.

        Raises:
            ValueError: if ``messages`` is below 1.
        """
        if messages < 1:
            raise ValueError(f"messages must be at least 1, got {messages}")
        if not recipients:
            return
        received = self.received_bits
        for recipient in recipients:
            received[recipient] += bits
        total = bits * len(recipients)
        self.sent_bits[sender] += total
        self.sent_messages[sender] += messages * len(recipients)
        self.phase_bits[self._phase] += total

    def tick_round(self) -> None:
        """Advance the round counter."""
        self.rounds += 1

    # -- queries -----------------------------------------------------------------

    def bits_sent_by(self, processor: int) -> int:
        """Total bits this processor has sent."""
        return self.sent_bits.get(processor, 0)

    def total_bits(self) -> int:
        """Total bits sent across all processors."""
        return sum(self.sent_bits.values())

    def total_messages(self) -> int:
        """Total messages sent across all processors."""
        return sum(self.sent_messages.values())

    def max_bits_per_processor(self, include: Optional[Iterable[int]] = None) -> int:
        """Largest per-processor sent-bit total (optionally over a subset)."""
        processors = range(self.n) if include is None else include
        return max((self.sent_bits.get(p, 0) for p in processors), default=0)

    def mean_bits_per_processor(
        self, include: Optional[Iterable[int]] = None
    ) -> float:
        """Mean per-processor sent-bit total (optionally over a subset)."""
        processors = list(range(self.n) if include is None else include)
        if not processors:
            return 0.0
        return sum(self.sent_bits.get(p, 0) for p in processors) / len(processors)

    def snapshot(self) -> LedgerSnapshot:
        """Freeze the current totals into a :class:`LedgerSnapshot`."""
        # Zeros included: a processor that sent nothing still counts in
        # the distribution Theorem 1 quantifies over.
        per_processor = [self.sent_bits.get(p, 0) for p in range(self.n)] or [0]
        return LedgerSnapshot(
            total_bits_sent=self.total_bits(),
            total_messages=self.total_messages(),
            max_bits_per_processor=self.max_bits_per_processor(),
            mean_bits_per_processor=self.mean_bits_per_processor(),
            rounds=self.rounds,
            p50_bits_per_processor=percentile(per_processor, 50),
            p90_bits_per_processor=percentile(per_processor, 90),
            p99_bits_per_processor=percentile(per_processor, 99),
        )

    def phase_breakdown(self) -> Dict[str, int]:
        """Bits attributed to each named protocol phase."""
        return dict(self.phase_bits)
