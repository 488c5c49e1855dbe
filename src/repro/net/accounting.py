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

    def record(self, message: Message) -> None:
        """Account one message's bits to sender, recipient and phase."""
        bits = message.bits()
        self.sent_bits[message.sender] += bits
        self.received_bits[message.recipient] += bits
        self.sent_messages[message.sender] += 1
        self.phase_bits[self._phase] += bits

    def record_many(self, messages: Iterable[Message]) -> None:
        """Account a batch of messages."""
        for message in messages:
            self.record(message)

    def record_abstract(
        self, sender: int, recipient: int, bits: int, messages: int = 1
    ) -> None:
        """Account traffic without materialising Message objects.

        The tournament orchestration uses this for bulk share transfers
        where building millions of Message objects would dominate runtime
        without changing the counted bits.  One call stands for
        ``messages`` messages from ``sender`` to ``recipient`` carrying
        ``bits`` in total, so one call with ``k * w`` bits and
        ``messages=k`` leaves every counter as k calls with ``w`` bits
        would.

        The tree communicator's message-count convention
        (:mod:`repro.core.communication`): the initial dealing and
        sendSecretUp count one message per share copy, so each dealer
        makes one call per recipient with ``messages`` set to its share
        count; the sendDown hops, the level-1 exchange and sendOpen count
        one message per (sender, recipient) pair per call, whatever the
        word count.  Callers skip pairs that carry no words, so no call
        adds a zero entry.

        Raises:
            ValueError: if ``messages`` is below 1.
        """
        if messages < 1:
            raise ValueError(f"messages must be at least 1, got {messages}")
        self.sent_bits[sender] += bits
        self.received_bits[recipient] += bits
        self.sent_messages[sender] += messages
        self.phase_bits[self._phase] += bits

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
