"""Synchronous message-passing simulator with a rushing, adaptive adversary.

Implements the model of Section 1.1:

* Fully connected network of ``n`` processors with **private channels**:
  the adversary observes only traffic sent to (or from) processors it has
  corrupted — never the contents, or even the existence, of good-to-good
  messages.
* **Synchronous rounds**: all messages sent in round ``i`` arrive before
  round ``i+1``.
* **Rushing**: within a round the adversary receives all messages
  addressed to its processors *before* it must commit its own messages.
* **Adaptive corruption**: at the start of every round the adversary may
  take over additional processors (learning their private state), up to a
  fixed budget of ``floor((1/3 - eps) * n)``.
* **Flooding**: corrupted processors may emit any number of messages;
  the ledger records them separately so benchmarks can report good-
  processor cost (the quantity Theorem 1 bounds).

Protocol code subclasses :class:`ProcessorProtocol`; adversaries subclass
:class:`Adversary` (see :mod:`repro.adversary`).
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Set

from .accounting import BitLedger
from .messages import Message
from .tracing import TraceRecorder


class SimulationError(RuntimeError):
    """Raised on protocol/simulator contract violations."""


class ProcessorProtocol(abc.ABC):
    """Base class for the code run by one (good) processor."""

    def __init__(self, pid: int) -> None:
        self.pid = pid

    @abc.abstractmethod
    def on_round(self, round_no: int, inbox: List[Message]) -> List[Message]:
        """Consume last round's inbox; emit this round's messages."""

    def output(self) -> Optional[Any]:
        """The processor's decision, or None while undecided."""
        return None

    def snapshot_state(self) -> Dict[str, Any]:
        """State surrendered to the adversary upon corruption."""
        return dict(self.__dict__)


@dataclass
class AdversaryView:
    """Everything the adversary legitimately sees in one round.

    ``inbound`` contains messages addressed to corrupted processors
    (delivered early — rushing).  ``outbound_metadata`` is empty by
    design: private channels hide good-to-good traffic entirely.
    """

    round_no: int
    corrupted: Set[int]
    inbound: List[Message]
    n: int


class Adversary(abc.ABC):
    """Base adversary: owns a corruption budget and the corrupted set."""

    def __init__(self, n: int, budget: int) -> None:
        if budget >= n:
            raise SimulationError("corruption budget must be < n")
        self.n = n
        self.budget = budget
        self.corrupted: Set[int] = set()
        self.captured_state: Dict[int, Dict[str, Any]] = {}

    # -- adaptive takeover ---------------------------------------------------------

    def select_corruptions(self, round_no: int) -> Set[int]:
        """Processor IDs to take over at the start of this round.

        Default: corrupt nothing.  Implementations may corrupt at any
        time, up to ``budget`` in total; the simulator enforces the cap.
        """
        return set()

    def record_capture(self, pid: int, state: Dict[str, Any]) -> None:
        self.captured_state[pid] = state

    # -- message generation ----------------------------------------------------------

    @abc.abstractmethod
    def act(self, view: AdversaryView) -> List[Message]:
        """Messages sent by corrupted processors this round (any number)."""

    def remaining_budget(self) -> int:
        """Corruption budget not yet spent."""
        return self.budget - len(self.corrupted)


class NullAdversary(Adversary):
    """Corrupts nothing and stays silent — the fault-free baseline."""

    def __init__(self, n: int) -> None:
        super().__init__(n, budget=0)

    def act(self, view: AdversaryView) -> List[Message]:
        return []


@dataclass
class RunResult:
    """Outcome of one simulated execution."""

    rounds: int
    outputs: Dict[int, Any]
    corrupted: Set[int]
    ledger: BitLedger
    halted: bool

    def good_outputs(self) -> Dict[int, Any]:
        """Outputs of uncorrupted processors."""
        return {
            pid: value
            for pid, value in self.outputs.items()
            if pid not in self.corrupted
        }

    def agreement_value(self) -> Optional[Any]:
        """The unanimous good output, or None if good processors disagree."""
        values = {v for v in self.good_outputs().values() if v is not None}
        if len(values) == 1:
            return values.pop()
        return None


class SyncNetwork:
    """Round-driven execution engine.

    Args:
        protocols: one :class:`ProcessorProtocol` per processor ID 0..n-1.
        adversary: the adversary (use :class:`NullAdversary` for none).
        ledger: optional shared ledger; a fresh one is created otherwise.
        count_adversary_traffic: if False (default) only good processors'
            sends are charged to the ledger, matching the paper's
            per-(good-)processor bit bounds; adversarial flooding is
            tracked separately in ``flood_bits``.
    """

    def __init__(
        self,
        protocols: Sequence[ProcessorProtocol],
        adversary: Adversary,
        ledger: Optional[BitLedger] = None,
        count_adversary_traffic: bool = False,
        trace: Optional["TraceRecorder"] = None,
    ) -> None:
        self.protocols = list(protocols)
        self.n = len(self.protocols)
        for pid, protocol in enumerate(self.protocols):
            if protocol.pid != pid:
                raise SimulationError(
                    f"protocol at slot {pid} claims pid {protocol.pid}"
                )
        self.adversary = adversary
        self.ledger = ledger if ledger is not None else BitLedger(self.n)
        self.count_adversary_traffic = count_adversary_traffic
        self.trace = trace
        self.flood_bits = 0
        # Double-buffered inboxes, reused round over round: protocols
        # consume their inbox within on_round (the simulator contract),
        # so the buffer handed out in round r can be cleared and
        # refilled for round r+2 instead of reallocated every round.
        self._inboxes: List[List[Message]] = [[] for _ in range(self.n)]
        self._spare_inboxes: List[List[Message]] = [
            [] for _ in range(self.n)
        ]
        # Exactly a NullAdversary (not a subclass) can neither corrupt
        # nor speak, so the per-round corruption scan, rushing view and
        # adversary dispatch are skipped wholesale.
        self._null_adversary = type(adversary) is NullAdversary
        self._rounds = 0
        self._halted = False

    # -- execution ---------------------------------------------------------------

    def run(self, max_rounds: int) -> RunResult:
        """Run until every good processor has an output or rounds expire.

        Implemented entirely through :attr:`steps` / :meth:`advance` /
        :meth:`result` — the primitives external callers use (the
        engine's batch backend steps many networks breadth-first), so
        both executions are bit-identical by construction.
        """
        while self.steps < max_rounds and self.advance():
            pass
        return self.result()

    @property
    def steps(self) -> int:
        """Rounds executed so far."""
        return self._rounds

    def advance(self) -> bool:
        """Execute one round; False (and no round) once the run is over.

        The run is over once a round ends with every good processor
        decided.  Callers enforce their own round cap by checking
        :attr:`steps` before advancing.
        """
        if self._halted:
            return False
        self._rounds += 1
        self.step(self._rounds)
        self._halted = self.all_good_decided()
        return True

    def result(self) -> RunResult:
        """The run so far as a :class:`RunResult`."""
        return self.collect_result(self._rounds, self._halted)

    def collect_result(self, rounds: int, halted: bool) -> RunResult:
        """Freeze the network's current state into a :class:`RunResult`."""
        outputs = {
            pid: self.protocols[pid].output() for pid in range(self.n)
        }
        return RunResult(
            rounds=rounds,
            outputs=outputs,
            corrupted=set(self.adversary.corrupted),
            ledger=self.ledger,
            halted=halted,
        )

    def step(self, round_no: int) -> None:
        """Execute one synchronous round."""
        if self.trace is not None:
            self.trace.set_round(round_no)
        fast = self._null_adversary
        if not fast:
            self._apply_corruptions(round_no)
        corrupted = self.adversary.corrupted

        outgoing: List[Message] = []
        protocols = self.protocols
        inboxes = self._inboxes
        for pid in range(self.n):
            if corrupted and pid in corrupted:
                continue
            messages = protocols[pid].on_round(round_no, inboxes[pid])
            for message in messages:
                if message.sender != pid:
                    raise SimulationError(
                        f"processor {pid} forged sender {message.sender}"
                    )
                if not 0 <= message.recipient < self.n:
                    raise SimulationError(
                        f"message to unknown recipient {message.recipient}"
                    )
            self.ledger.record_many(messages)
            outgoing.extend(messages)

        if fast:
            adversary_messages: List[Message] = []
        else:
            # Rushing: adversary sees its inbound traffic before acting.
            view = AdversaryView(
                round_no=round_no,
                corrupted=set(corrupted),
                inbound=[m for m in outgoing if m.recipient in corrupted],
                n=self.n,
            )
            adversary_messages = self.adversary.act(view)
            for message in adversary_messages:
                if message.sender not in corrupted:
                    raise SimulationError(
                        "adversary may only send from corrupted processors"
                    )
                if not 0 <= message.recipient < self.n:
                    raise SimulationError(
                        f"adversary message to unknown recipient "
                        f"{message.recipient}"
                    )
                self.flood_bits += message.bits()
                if self.count_adversary_traffic:
                    self.ledger.record(message)

        # Swap in the spare buffers: clear-and-refill instead of a
        # fresh dict of lists every round.
        next_inboxes = self._spare_inboxes
        for box in next_inboxes:
            box.clear()
        for message in outgoing:
            next_inboxes[message.recipient].append(message)
        for message in adversary_messages:
            next_inboxes[message.recipient].append(message)
        self._spare_inboxes = inboxes
        self._inboxes = next_inboxes
        self.ledger.tick_round()

    # -- internals ---------------------------------------------------------------

    def _apply_corruptions(self, round_no: int) -> None:
        requested = self.adversary.select_corruptions(round_no)
        for pid in sorted(requested):
            if pid in self.adversary.corrupted:
                continue
            if self.adversary.remaining_budget() <= 0:
                break
            if not 0 <= pid < self.n:
                raise SimulationError(f"cannot corrupt unknown pid {pid}")
            self.adversary.corrupted.add(pid)
            self.adversary.record_capture(
                pid, self.protocols[pid].snapshot_state()
            )
            if self.trace is not None:
                self.trace.emit("corrupt", pid)

    def all_good_decided(self) -> bool:
        """Whether every uncorrupted processor has produced an output."""
        return all(
            self.protocols[pid].output() is not None
            for pid in range(self.n)
            if pid not in self.adversary.corrupted
        )
