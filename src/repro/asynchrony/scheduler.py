"""Event-driven asynchronous network with an adversarial scheduler.

The asynchronous model drops the synchronous-round assumption of
Section 1.1: there is no bound on message transit time, only *eventual
delivery*.  The adversary controls the delivery order (the asynchronous
analogue of rushing) and may adaptively corrupt processors, subject to
its budget.

Eventual delivery is enforced mechanically: a message may be delayed at
most ``fairness_bound`` delivery steps past the oldest pending message,
after which the network force-delivers it regardless of what the
scheduler asks for.  Every scheduler therefore yields a *fair* execution
and deterministic protocols that are live under fair schedulers
terminate here.

Protocols are written in the message-driven style standard for
asynchronous algorithms: :meth:`AsyncProcess.on_start` emits the initial
messages and :meth:`AsyncProcess.on_message` reacts to each delivery.
"""

from __future__ import annotations

import abc
import random
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional, Sequence, Set

from ..net.accounting import BitLedger
from ..net.messages import Message
from ..net.tracing import TraceRecorder


class SchedulerError(RuntimeError):
    """Raised on asynchronous-network contract violations."""


@dataclass
class PendingMessage:
    """A message in flight, stamped with the step it was sent."""

    message: Message
    sent_step: int
    seq: int


class AsyncProcess(abc.ABC):
    """Base class for one good processor in the asynchronous model."""

    def __init__(self, pid: int) -> None:
        self.pid = pid

    def on_start(self) -> List[Message]:
        """Messages emitted before any delivery occurs."""
        return []

    @abc.abstractmethod
    def on_message(self, message: Message) -> List[Message]:
        """React to a single delivered message."""

    def output(self) -> Optional[Any]:
        """The processor's decision, or None while undecided."""
        return None

    def snapshot_state(self) -> Dict[str, Any]:
        """State surrendered to the adversary upon corruption."""
        return dict(self.__dict__)


class Scheduler(abc.ABC):
    """Chooses which pending message the network delivers next."""

    @abc.abstractmethod
    def choose(self, pending: Sequence[PendingMessage], step: int) -> int:
        """Index into ``pending`` of the message to deliver."""


class FIFOScheduler(Scheduler):
    """Delivers messages in the order they were sent."""

    def choose(self, pending: Sequence[PendingMessage], step: int) -> int:
        return min(range(len(pending)), key=lambda i: pending[i].seq)


class RandomScheduler(Scheduler):
    """Delivers a uniformly random pending message."""

    def __init__(self, seed: int = 0) -> None:
        self.rng = random.Random(seed)

    def choose(self, pending: Sequence[PendingMessage], step: int) -> int:
        return self.rng.randrange(len(pending))


class TargetedDelayScheduler(Scheduler):
    """Starves traffic touching ``victims`` for as long as fairness allows.

    This is the strongest delivery attack available to an asynchronous
    adversary: messages to or from the victim set are only delivered when
    the fairness bound would force them anyway (the network applies the
    force-delivery override), so victims run maximally behind.
    """

    def __init__(self, victims: Iterable[int], seed: int = 0) -> None:
        self.victims = set(victims)
        self.rng = random.Random(seed)

    def _touches_victim(self, pending: PendingMessage) -> bool:
        message = pending.message
        return (
            message.sender in self.victims
            or message.recipient in self.victims
        )

    def choose(self, pending: Sequence[PendingMessage], step: int) -> int:
        preferred = [
            i for i in range(len(pending))
            if not self._touches_victim(pending[i])
        ]
        if preferred:
            return self.rng.choice(preferred)
        return self.rng.randrange(len(pending))


class AsyncAdversary(abc.ABC):
    """Adaptive Byzantine adversary for the asynchronous network.

    Owns the corruption budget and may inject messages from corrupted
    processors after each delivery step.  The view it gets (the message
    just delivered, when the recipient is corrupted) models private
    channels exactly as :class:`repro.net.simulator.AdversaryView` does.
    """

    def __init__(self, n: int, budget: int) -> None:
        if budget >= n:
            raise SchedulerError("corruption budget must be < n")
        self.n = n
        self.budget = budget
        self.corrupted: Set[int] = set()
        self.captured_state: Dict[int, Dict[str, Any]] = {}

    def select_corruptions(self, step: int) -> Set[int]:
        """Processor IDs to take over before this delivery step."""
        return set()

    def record_capture(self, pid: int, state: Dict[str, Any]) -> None:
        self.captured_state[pid] = state

    @abc.abstractmethod
    def on_deliver(
        self, step: int, delivered: Optional[Message]
    ) -> List[Message]:
        """Messages injected from corrupted processors this step.

        ``delivered`` is the message just handed to a *corrupted*
        recipient, or None when the delivery went to a good processor
        (private channels: good-to-good traffic is invisible).
        """

    def remaining_budget(self) -> int:
        """Corruption budget not yet spent."""
        return self.budget - len(self.corrupted)


class NullAsyncAdversary(AsyncAdversary):
    """Corrupts nothing and stays silent."""

    def __init__(self, n: int) -> None:
        super().__init__(n, budget=0)

    def on_deliver(
        self, step: int, delivered: Optional[Message]
    ) -> List[Message]:
        return []


@dataclass
class AsyncRunResult:
    """Outcome of one asynchronous execution."""

    steps: int
    outputs: Dict[int, Any]
    corrupted: Set[int]
    ledger: BitLedger
    quiescent: bool
    undelivered: int

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

    def decided_fraction(self) -> float:
        """Fraction of good processors that produced an output."""
        good = self.good_outputs()
        if not good:
            return 0.0
        return sum(1 for v in good.values() if v is not None) / len(good)


class AsyncNetwork:
    """Delivery-step-driven execution engine with eventual delivery.

    Args:
        processes: one :class:`AsyncProcess` per processor ID 0..n-1.
        adversary: the adversary (:class:`NullAsyncAdversary` for none).
        scheduler: delivery-order policy; defaults to FIFO.
        fairness_bound: a pending message older (by ``seq``) than every
            other pending message by this many delivery steps is force-
            delivered, overriding the scheduler.  This is what makes
            "eventual delivery" a mechanical guarantee.
        ledger: optional shared ledger for bit accounting.
    """

    def __init__(
        self,
        processes: Sequence[AsyncProcess],
        adversary: AsyncAdversary,
        scheduler: Optional[Scheduler] = None,
        fairness_bound: int = 10_000,
        ledger: Optional[BitLedger] = None,
        trace: Optional[TraceRecorder] = None,
    ) -> None:
        self.processes = list(processes)
        self.n = len(self.processes)
        for pid, process in enumerate(self.processes):
            if process.pid != pid:
                raise SchedulerError(
                    f"process at slot {pid} claims pid {process.pid}"
                )
        if fairness_bound < 1:
            raise SchedulerError("fairness_bound must be >= 1")
        self.adversary = adversary
        self.scheduler = scheduler if scheduler is not None else FIFOScheduler()
        self.fairness_bound = fairness_bound
        self.ledger = ledger if ledger is not None else BitLedger(self.n)
        self.trace = trace
        self._pending: List[PendingMessage] = []
        self._seq = 0
        self._deliveries = 0
        self._started = False
        self._steps = 0
        self._quiescent = False

    # -- execution ---------------------------------------------------------------

    def run(self, max_steps: int) -> AsyncRunResult:
        """Deliver messages until quiescence, decision, or the step cap.

        The run stops early once every good processor has decided (their
        protocols may keep pending messages in flight — asynchronous
        protocols rarely quiesce on their own) or when no messages remain
        pending.

        Implemented entirely through :attr:`steps` / :meth:`advance` /
        :meth:`result` — the same primitives external drivers use (the
        engine's batch backend steps many networks breadth-first), so
        both executions are bit-identical by construction.
        """
        while self.steps < max_steps and self.advance():
            pass
        return self.result()

    def _begin(self) -> None:
        """Start every process and collect initial messages (idempotent)."""
        if self._started:
            return
        self._started = True
        self._start_processes()

    @property
    def steps(self) -> int:
        """Delivery steps executed so far."""
        return self._steps

    def advance(self) -> bool:
        """Deliver one message; False (and no delivery) once the run is over.

        The run is over when every good processor has decided or no
        messages remain pending (quiescence).  Callers enforce their own
        step cap by checking :attr:`steps` before advancing.
        """
        self._begin()
        if self._all_good_decided():
            return False
        if not self._pending:
            self._quiescent = True
            return False
        self._steps += 1
        self._deliver_one(self._steps)
        return True

    def result(self) -> AsyncRunResult:
        """The run so far as an :class:`AsyncRunResult`.

        Starts the processes first if nothing has, so a zero-step run
        still reports their initial messages and outputs.
        """
        self._begin()
        outputs = {
            pid: self.processes[pid].output() for pid in range(self.n)
        }
        return AsyncRunResult(
            steps=self._steps,
            outputs=outputs,
            corrupted=set(self.adversary.corrupted),
            ledger=self.ledger,
            quiescent=self._quiescent,
            undelivered=len(self._pending),
        )

    # -- internals ---------------------------------------------------------------

    def _start_processes(self) -> None:
        self._apply_corruptions(step=0)
        for pid in range(self.n):
            if pid in self.adversary.corrupted:
                continue
            self._enqueue_good(self.processes[pid].on_start(), pid)
        self._enqueue_adversarial(self.adversary.on_deliver(0, None))

    def _deliver_one(self, step: int) -> None:
        self._apply_corruptions(step)
        index = self._pick_index(step)
        pending = self._pending.pop(index)
        message = pending.message
        self._deliveries += 1
        if self.trace is not None:
            self.trace.set_round(step)
            self.trace.emit(
                "deliver", message.recipient,
                (message.sender, message.tag),
            )

        delivered_to_adversary: Optional[Message] = None
        if message.recipient in self.adversary.corrupted:
            delivered_to_adversary = message
        else:
            replies = self.processes[message.recipient].on_message(message)
            self._enqueue_good(replies, message.recipient)
        self._enqueue_adversarial(
            self.adversary.on_deliver(step, delivered_to_adversary)
        )
        self.ledger.tick_round()

    def _pick_index(self, step: int) -> int:
        oldest = min(range(len(self._pending)), key=lambda i: self._pending[i].seq)
        age = self._deliveries - self._pending[oldest].sent_step
        if age > self.fairness_bound:
            return oldest
        choice = self.scheduler.choose(self._pending, step)
        if not 0 <= choice < len(self._pending):
            raise SchedulerError(f"scheduler chose invalid index {choice}")
        return choice

    def _enqueue_good(self, messages: Iterable[Message], sender: int) -> None:
        for message in messages:
            if message.sender != sender:
                raise SchedulerError(
                    f"process {sender} forged sender {message.sender}"
                )
            if not 0 <= message.recipient < self.n:
                raise SchedulerError(
                    f"message to unknown recipient {message.recipient}"
                )
            self.ledger.record(message)
            self._push(message)

    def _enqueue_adversarial(self, messages: Iterable[Message]) -> None:
        for message in messages:
            if message.sender not in self.adversary.corrupted:
                raise SchedulerError(
                    "adversary may only send from corrupted processors"
                )
            if not 0 <= message.recipient < self.n:
                raise SchedulerError(
                    f"message to unknown recipient {message.recipient}"
                )
            self._push(message)

    def _push(self, message: Message) -> None:
        self._pending.append(
            PendingMessage(
                message=message, sent_step=self._deliveries, seq=self._seq
            )
        )
        self._seq += 1

    def _apply_corruptions(self, step: int) -> None:
        requested = self.adversary.select_corruptions(step)
        for pid in sorted(requested):
            if pid in self.adversary.corrupted:
                continue
            if self.adversary.remaining_budget() <= 0:
                break
            if not 0 <= pid < self.n:
                raise SchedulerError(f"cannot corrupt unknown pid {pid}")
            self.adversary.corrupted.add(pid)
            self.adversary.record_capture(
                pid, self.processes[pid].snapshot_state()
            )
            if self.trace is not None:
                self.trace.emit("corrupt", pid)

    def _all_good_decided(self) -> bool:
        return all(
            self.processes[pid].output() is not None
            for pid in range(self.n)
            if pid not in self.adversary.corrupted
        )
