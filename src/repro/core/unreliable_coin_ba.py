"""Almost-everywhere Byzantine agreement with unreliable global coins.

Paper Appendix A.2, Algorithm 5, analysed in Theorem 5 (and used as the
per-node agreement engine of the tournament; Theorem 3 is its statement
in the main text).  This is Rabin's randomized agreement run on a sparse
``k log n``-regular graph:

    each round:  send vote to neighbors; let maj/fraction be the majority
    bit and its fraction among received votes; get a global coin;
    if fraction >= (1 - eps0)(2/3 + eps/2): vote <- maj
    else: vote <- coin.

Two implementations share one pure round-update function:

* :class:`SparseAEBAProcessor` — actor protocol for the full
  message-level simulator (benchmarks E3/E11 run it against adaptive
  adversaries and flooding).
* :func:`run_aeba_dataflow` — a fast vectorised execution over explicit
  vote dictionaries, used inside the tournament where thousands of
  instances run (one per candidate bin choice per node).
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from ..net.messages import Message
from ..net.simulator import (
    Adversary,
    NullAdversary,
    ProcessorProtocol,
    SyncNetwork,
)
from ..topology.sparse_graph import random_regular_graph, theorem5_degree
from .coins import CoinSource


def vote_threshold(epsilon: float, epsilon0: float) -> float:
    """Algorithm 5's commit threshold (1 - eps0)(2/3 + eps/2)."""
    return (1 - epsilon0) * (2 / 3 + epsilon / 2)


def majority_and_fraction(votes: Sequence[int]) -> Tuple[int, float]:
    """The most common vote and its fraction; a tie goes to the larger
    value (1 between 0 and 1).

    An empty vote list yields (0, 0.0), which always falls through to the
    coin branch — the safe behaviour for an isolated processor.  When
    every vote is 0 or 1 (bools included) two ``count`` calls tally
    them; any other value goes through a ``Counter``.
    """
    if not votes:
        return 0, 0.0
    total = len(votes)
    ones = votes.count(1)
    zeros = votes.count(0)
    if ones + zeros == total:
        if ones >= zeros:
            return 1, ones / total
        return 0, zeros / total
    tally = Counter(votes)
    majority = max(tally, key=lambda b: (tally[b], b))
    return majority, tally[majority] / total


def aeba_vote_update(
    current_vote: int,
    received_votes: Sequence[int],
    coin: int,
    threshold: float,
) -> int:
    """One processor's round update (Algorithm 5 steps 3-7)."""
    majority, fraction = majority_and_fraction(received_votes)
    if fraction >= threshold:
        return majority
    return 1 if coin else 0


class SparseAEBAProcessor(ProcessorProtocol):
    """Actor-model Algorithm 5 participant.

    Round ``j`` of the simulator carries the votes of algorithm round
    ``j``; the update happens when round ``j+1`` begins and the inbox
    holds round-``j`` votes.  After ``num_rounds`` algorithm rounds the
    processor commits its vote as output.
    """

    def __init__(
        self,
        pid: int,
        input_bit: int,
        neighbors: Sequence[int],
        coin_view: Callable[[int], int],
        num_rounds: int,
        threshold: float,
    ) -> None:
        super().__init__(pid)
        self.vote = int(input_bit)
        self.neighbors = list(neighbors)
        self._neighbor_set = frozenset(self.neighbors)
        self.coin_view = coin_view
        self.num_rounds = num_rounds
        self.threshold = threshold
        self._committed: Optional[int] = None
        # Vote -> its broadcast to the neighbours, built on first use.
        # Messages are frozen and networks only read an outbox, so a
        # repeated vote returns the list it built before.
        self._outboxes: Dict[int, List[Message]] = {}

    def on_round(self, round_no: int, inbox: List[Message]) -> List[Message]:
        if round_no > 1:
            # Finish algorithm round (round_no - 1).
            neighbor_set = self._neighbor_set
            received = [
                int(m.payload)
                for m in inbox
                if m.tag == "vote" and m.sender in neighbor_set
                and isinstance(m.payload, (bool, int))
            ]
            coin = self.coin_view(round_no - 2)  # 0-based coin index
            self.vote = aeba_vote_update(
                self.vote, received, coin, self.threshold
            )
        if round_no > self.num_rounds:
            if self._committed is None:
                self._committed = self.vote
            return []
        vote = self.vote
        outbox = self._outboxes.get(vote)
        if outbox is None:
            outbox = self._outboxes[vote] = [
                Message(self.pid, neighbor, "vote", vote)
                for neighbor in self.neighbors
            ]
        return outbox

    def output(self) -> Optional[int]:
        return self._committed


@dataclass
class AEBAResult:
    """Outcome of one Algorithm 5 execution."""

    votes: Dict[int, int]
    corrupted: Set[int]
    rounds: int
    max_bits_per_processor: int
    total_bits: int

    def good_votes(self) -> Dict[int, int]:
        """Votes of uncorrupted processors."""
        return {
            p: v for p, v in self.votes.items() if p not in self.corrupted
        }

    def agreement_fraction(self) -> float:
        """Fraction of good processors holding the most common good vote."""
        good = self.good_votes()
        if not good:
            return 0.0
        tally = Counter(good.values())
        return max(tally.values()) / len(good)

    def agreed_bit(self) -> int:
        """The modal vote among good processors (ties break to 1)."""
        tally = Counter(self.good_votes().values())
        return max(tally, key=lambda b: (tally[b], b))


def run_unreliable_coin_ba(
    n: int,
    inputs: Sequence[int],
    coin_source: CoinSource,
    adversary: Optional[Adversary] = None,
    num_rounds: Optional[int] = None,
    degree: Optional[int] = None,
    epsilon: float = 1 / 12,
    epsilon0: float = 0.05,
    seed: int = 0,
) -> AEBAResult:
    """End-to-end Algorithm 5 on a fresh random regular graph.

    Args:
        n: processors.
        inputs: input bit per processor.
        coin_source: the GetGlobalCoin oracle (per-processor views).
        adversary: optional; its ``recipients_of`` is patched to the
            sparse graph's neighbor lists if unset, so corrupted
            processors speak only where the protocol listens.
        num_rounds: algorithm rounds (default: coin source length).
        degree: graph degree (default: Theorem 5's k log n).
    """
    if len(inputs) != n:
        raise ValueError("inputs length must equal n")
    rng = random.Random(seed)
    if degree is None:
        degree = theorem5_degree(n)
    graph = random_regular_graph(n, degree, rng)
    if num_rounds is None:
        num_rounds = coin_source.num_rounds
    threshold = vote_threshold(epsilon, epsilon0)

    protocols = [
        SparseAEBAProcessor(
            pid=p,
            input_bit=inputs[p],
            neighbors=sorted(graph[p]),
            coin_view=lambda idx, p=p: coin_source.view(idx, p),
            num_rounds=num_rounds,
            threshold=threshold,
        )
        for p in range(n)
    ]
    if adversary is None:
        adversary = NullAdversary(n)
    if getattr(adversary, "recipients_of", None) is None and hasattr(
        adversary, "recipients_of"
    ):
        adversary.recipients_of = {
            p: sorted(graph[p]) for p in range(n)
        }
    network = SyncNetwork(protocols, adversary)
    result = network.run(max_rounds=num_rounds + 2)

    votes = {
        p: protocols[p].vote for p in range(n)
    }
    good = [p for p in range(n) if p not in adversary.corrupted]
    return AEBAResult(
        votes=votes,
        corrupted=set(adversary.corrupted),
        rounds=result.rounds,
        max_bits_per_processor=result.ledger.max_bits_per_processor(
            include=good
        ),
        total_bits=result.ledger.total_bits(),
    )


def run_aeba_dataflow(
    members: Sequence[int],
    inputs: Dict[int, int],
    neighbors: Dict[int, Sequence[int]],
    coin_views: Callable[[int, int], int],
    num_rounds: int,
    bad_members: Set[int],
    bad_vote_fn: Callable[[int, int, Dict[int, int]], int],
    threshold: float,
    on_traffic: Optional[Callable[[int, Sequence[int], int], None]] = None,
    word_bits: int = 1,
) -> Dict[int, int]:
    """Fast Algorithm 5 execution over explicit per-member state.

    Used by the tournament, which runs one instance per candidate per
    node: message objects are skipped but traffic is still accounted via
    ``on_traffic(sender, recipients, bits)``, one call per sender and
    round for its whole fan-out (``bits`` per recipient), the shape of
    :meth:`~repro.net.accounting.BitLedger.record_abstract`.

    Args:
        members: participating processor IDs.
        inputs: initial vote per member.
        neighbors: adjacency among members.
        coin_views: ``(round_index, pid) -> bit``.
        bad_members: corrupted members (their votes come from
            ``bad_vote_fn(round, pid, current_good_votes)`` — a rushing
            adversary: it sees this round's good votes first).
        threshold: commit threshold from :func:`vote_threshold`.

    Returns: final vote per good member.
    """
    votes: Dict[int, int] = {
        m: int(inputs.get(m, 0)) for m in members if m not in bad_members
    }
    for round_index in range(num_rounds):
        bad_votes: Dict[int, int] = {
            m: bad_vote_fn(round_index, m, votes)
            for m in members
            if m in bad_members
        }
        current = dict(votes)
        current.update(bad_votes)
        new_votes: Dict[int, int] = {}
        for m in votes:
            fan_out = neighbors.get(m, ())
            received = [current[u] for u in fan_out if u in current]
            if on_traffic is not None:
                on_traffic(m, fan_out, word_bits)
            coin = coin_views(round_index, m)
            new_votes[m] = aeba_vote_update(
                votes[m], received, coin, threshold
            )
        votes = new_votes
    return votes
