"""Exponential Information Gathering (EIG) Byzantine agreement.

The oldest deterministic BA family (Pease-Shostak-Lamport lineage):
t+1 rounds of full relaying, each processor maintaining a tree of "who
said that who said ...".  Tolerates t < n/3 — optimal resilience — but
each round multiplies traffic by n: total message volume Theta(n^{t+1}).

It is included as the extreme point of benchmark E12's cost spectrum:
EIG shows why early BA was hopeless at scale, Phase King why O(n^2) was
celebrated, and the paper why O~(sqrt n) changes the game.  Only tiny
(n, t) are simulatable, which is exactly the point.
"""

from __future__ import annotations

from collections import Counter
from itertools import permutations
from typing import Dict, List, Optional, Sequence, Tuple

from ..adversary.static import StaticByzantineAdversary
from ..net.messages import Message
from ..net.simulator import (
    Adversary,
    AdversaryView,
    NullAdversary,
    ProcessorProtocol,
    RunResult,
    SyncNetwork,
)

#: An EIG tree node: the path of relayers, e.g. (3, 1) = "1 said that 3
#: said".  The root path is ().
Path = Tuple[int, ...]


def eig_fault_bound(n: int) -> int:
    """Maximum tolerated faults: t < n/3."""
    return max(0, (n - 1) // 3)


class EIGProcessor(ProcessorProtocol):
    """One good processor running EIG for ``t + 1`` rounds.

    Round r broadcasts every depth-(r-1) tree value with its path; the
    resolve step then folds the tree bottom-up by majority.
    """

    def __init__(self, pid: int, n: int, input_bit: int, t: int) -> None:
        super().__init__(pid)
        self.n = n
        self.t = t
        self.tree: Dict[Path, int] = {(): int(input_bit)}
        self._decided: Optional[int] = None
        self._child_index: Optional[Dict[Path, List[Path]]] = None

    def on_round(self, round_no: int, inbox: List[Message]) -> List[Message]:
        if round_no > 1:
            self._absorb(round_no - 1, inbox)
        if round_no > self.t + 1:
            if self._decided is None:
                self._decided = self._resolve((), 0)
            return []
        # Broadcast all values whose path has depth round_no - 1; paths
        # never repeat a relayer (standard EIG pruning applies at the
        # sender: one does not relay one's own relays).
        messages: List[Message] = []
        depth = round_no - 1
        own_relays: List[Tuple[Path, int]] = []
        for path, value in self.tree.items():
            if len(path) != depth or self.pid in path:
                continue
            own_relays.append((path, value))
            for other in range(self.n):
                if other == self.pid:
                    continue
                messages.append(
                    Message(
                        self.pid, other, "eig",
                        (list(path), value),
                    )
                )
        # A processor hears its own relays: keeps every tree identical
        # across good processors (ties at the fold are broken the same
        # way everywhere).
        for path, value in own_relays:
            self.tree[path + (self.pid,)] = value
        return messages

    def _absorb(self, algo_round: int, inbox: List[Message]) -> None:
        for m in inbox:
            if m.tag != "eig":
                continue
            payload = m.payload
            if (
                not isinstance(payload, (list, tuple))
                or len(payload) != 2
            ):
                continue
            raw_path, value = payload
            path = tuple(raw_path)
            if len(path) != algo_round - 1:
                continue
            if m.sender in path or not isinstance(value, int):
                continue
            self.tree[path + (m.sender,)] = value & 1

    def _resolve(self, path: Path, depth: int) -> int:
        """Fold the subtree at ``path`` by recursive majority."""
        if self._child_index is None:
            # Build the parent -> children index once: scanning the whole
            # tree per node made resolution quadratic in tree size, which
            # at n = 16 (a ~36k-node tree per processor) turned the fold
            # into minutes of work.
            index: Dict[Path, List[Path]] = {}
            for p in self.tree:
                if p:
                    index.setdefault(p[:-1], []).append(p)
            self._child_index = index
        children = self._child_index.get(path, [])
        if depth == self.t + 1 or not children:
            return self.tree.get(path, 0)
        votes = [
            self._resolve(child, depth + 1) for child in children
        ]
        tally = Counter(votes)
        return max(tally, key=lambda v: (tally[v], v))

    def output(self) -> Optional[int]:
        return self._decided


class EIGRelayAdversary(StaticByzantineAdversary):
    """Static corruption that speaks EIG: forged relays, not bare votes.

    In round r <= t + 1, each corrupted sender relays every
    depth-(r-1) path of distinct pids that excludes itself (the paths
    a good processor relays) to each good recipient, tagged ``eig``,
    with the behaviour's bit for that recipient as the value.  Targets,
    seed and behaviour are the base class's, so ``silent`` still sends
    nothing; ``recipients_of`` and ``vote_tag`` go unused, since EIG
    is full-mesh and reads tag ``eig`` only.

    Behaviours read ``vote`` messages, so the behaviour sees the round
    through a view, built once per round, whose ``inbound`` lists as
    ``vote`` messages the values of the depth-(r-1) relays that reached
    corrupted processors (the rushing adversary's view of round r).
    """

    def __init__(self, *args, t: int, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.t = t

    def act(self, view: AdversaryView) -> List[Message]:
        depth = view.round_no - 1
        if depth > self.t:
            return []
        recipients = [
            pid for pid in range(self.n) if pid not in view.corrupted
        ]
        relayed = AdversaryView(
            round_no=view.round_no,
            corrupted=view.corrupted,
            inbound=[
                Message(m.sender, m.recipient, "vote", m.payload[1])
                for m in view.inbound
                if m.tag == "eig" and len(m.payload[0]) == depth
            ],
            n=view.n,
        )
        messages: List[Message] = []
        for sender in sorted(view.corrupted):
            votes = self.behavior.votes(
                relayed, sender, recipients, self.rng
            )
            paths = [
                list(path)
                for path in permutations(
                    [pid for pid in range(self.n) if pid != sender], depth
                )
            ]
            for recipient, bit in votes.items():
                if bit is None:
                    continue
                messages.extend(
                    Message(sender, recipient, "eig", (path, bit))
                    for path in paths
                )
        return messages


def run_eig(
    n: int,
    inputs: Sequence[int],
    adversary: Optional[Adversary] = None,
    t: Optional[int] = None,
) -> RunResult:
    """Run EIG to completion (t + 2 simulator rounds)."""
    if len(inputs) != n:
        raise ValueError("inputs length must equal n")
    if t is None:
        t = eig_fault_bound(n)
    if adversary is None:
        adversary = NullAdversary(n)
    protocols = [
        EIGProcessor(pid, n, inputs[pid], t) for pid in range(n)
    ]
    network = SyncNetwork(protocols, adversary)
    return network.run(max_rounds=t + 2)
