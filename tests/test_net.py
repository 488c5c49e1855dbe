"""Unit tests for the network simulator, messages, and accounting."""

import collections
import copy
import dataclasses
import enum
import pickle
import random
from typing import Any, List

import pytest

from repro.crypto.bivariate import BivariateRow
from repro.net.accounting import BitLedger
from repro.net.messages import HEADER_BITS, Message, MessageError, payload_bits
from repro.net.rng import child_rng, derive_seed
from repro.net.simulator import (
    Adversary,
    AdversaryView,
    NullAdversary,
    ProcessorProtocol,
    SimulationError,
    SyncNetwork,
)
from repro.adversary.behaviors import FixedBitBehavior, SilentBehavior
from repro.adversary.flooding import FloodingAdversary
from repro.adversary.static import StaticByzantineAdversary


class TestPayloadBits:
    def test_none(self):
        assert payload_bits(None) == 1

    def test_bool(self):
        assert payload_bits(True) == 1
        assert payload_bits(False) == 1

    def test_int(self):
        assert payload_bits(0) == 1
        assert payload_bits(1) == 1
        assert payload_bits(255) == 8
        assert payload_bits(256) == 9
        assert payload_bits(-1) == 2

    def test_str(self):
        assert payload_bits("ab") == 16

    def test_tuple(self):
        assert payload_bits((255, 255)) == 16

    def test_dict(self):
        assert payload_bits({"a": 255}) == 8 + 8

    def test_unmeasurable_raises(self):
        with pytest.raises(MessageError):
            payload_bits(object())

    def test_message_bits(self):
        m = Message(0, 1, "v", 255)
        assert m.bits() == HEADER_BITS + 8 + 8


def reference_payload_bits(payload: Any) -> int:
    """The recursive sizing rules, one call per node: the oracle the
    level-wise :func:`payload_bits` must reproduce exactly."""
    if payload is None:
        return 1
    if isinstance(payload, bool):
        return 1
    if isinstance(payload, int):
        return max(1, payload.bit_length() + (1 if payload < 0 else 0))
    if isinstance(payload, str):
        return 8 * len(payload)
    if isinstance(payload, (tuple, list)):
        return sum(reference_payload_bits(item) for item in payload)
    if isinstance(payload, dict):
        return sum(
            reference_payload_bits(k) + reference_payload_bits(v)
            for k, v in payload.items()
        )
    if hasattr(payload, "wire_bits"):
        return int(payload.wire_bits())
    raise MessageError(f"payload of type {type(payload)!r} is not measurable")


class _Sign(enum.IntEnum):
    DOWN = -3
    FLAT = 0
    UP = 5


class _Tag(str):
    """A str subclass."""


class _Words(list):
    """A list subclass."""


_Pair = collections.namedtuple("_Pair", "left right")

_ROW = BivariateRow(x=2, values=(7, 0, 1 << 40, 1))

#: Leaves that are not payloads, reached at any depth.
_UNMEASURABLE = (1.5, b"xy", object())


def _random_int(rng: random.Random) -> int:
    roll = rng.randrange(5)
    if roll == 0:
        return rng.choice((0, 1, -1))
    if roll == 1:
        return rng.randint(-9, 9)
    if roll == 2:
        return rng.getrandbits(31)
    if roll == 3:
        return -rng.getrandbits(rng.randint(1, 70))
    return rng.choice((1, -1)) * ((1 << 64) + rng.getrandbits(70))


def _random_leaf(rng: random.Random, bad: float) -> Any:
    if rng.random() < bad:
        return rng.choice(_UNMEASURABLE)
    roll = rng.randrange(8)
    if roll < 3:
        return _random_int(rng)
    if roll == 3:
        return rng.choice((None, True, False))
    if roll == 4:
        return rng.choice(tuple(_Sign))
    if roll == 5:
        return "ab"[: rng.randrange(3)]
    if roll == 6:
        return _Tag("xyz"[: rng.randrange(4)])
    return _ROW


def _random_payload(rng: random.Random, depth: int, bad: float) -> Any:
    """A random payload nested at most ``depth`` levels deep."""
    if depth == 0 or rng.random() < 0.2:
        return _random_leaf(rng, bad)
    size = rng.randrange(5)
    # Dicts (tuple keys), echoes and rows take two levels themselves.
    roll = rng.randrange(8 if depth >= 2 else 4)
    if roll < 3:
        items = [_random_payload(rng, depth - 1, bad) for _ in range(size)]
        return (tuple, list, _Words)[roll](items)
    if roll == 3:
        return _Pair(
            _random_payload(rng, depth - 1, bad),
            _random_payload(rng, depth - 1, bad),
        )
    if roll == 4:
        keys = ((1, -2), (), None, True, False, 7, "k")
        return {
            rng.choice(keys): _random_payload(rng, depth - 1, bad)
            for _ in range(size)
        }
    if roll == 5:
        # The echo shape: (dealer, value) pairs.
        return tuple((d, _random_int(rng)) for d in range(size))
    if roll == 6:
        # The row shape: (pid, values).
        return (rng.randrange(24), tuple(_random_int(rng) for _ in range(size)))
    # A level of tuples only, the first one empty.
    items = [_random_payload(rng, depth - 2, bad) for _ in range(size)]
    return tuple(tuple(items[:i]) for i in range(size))


def _outcome(size, payload: Any):
    """``size(payload)``, or the text of the MessageError it raises."""
    try:
        return size(payload)
    except MessageError as exc:
        return f"MessageError: {exc}"


class TestPayloadBitsOracle:
    LISTED = (
        None, True, False, 0, 1, -1, (1 << 64) + 1, -(1 << 70), _Sign.DOWN,
        "", "abc", _Tag("ab"),
        (), [], ((),), ([], ()), ((), ((),), [[], ()]), (None, True, False),
        (0, 0, -1, 1, True, False, _Sign.DOWN, 1 << 65),
        _Pair(1, -2), _Pair((), [_Sign.UP]), _Words([1, (2, 3)]),
        tuple((d, d * 977) for d in range(24)),
        (3, tuple(range(-2, 23))),
        {(1, 2): None, None: True, True: "x", False: (0, -1)},
        _ROW, (_ROW, (_ROW,)),
        ((1.5,),), [[(b"xy",)]], (1, (2, (3, object()))),
        ((0, 1), (2, b"xy")), (((1,), 1.5), (b"xy",)),
    )

    @pytest.mark.parametrize("payload", LISTED)
    def test_listed_payloads_match_the_reference(self, payload):
        expected = _outcome(reference_payload_bits, payload)
        assert _outcome(payload_bits, payload) == expected

    def test_seeded_payloads_match_the_reference(self):
        rng = random.Random(18)
        outcomes = collections.Counter()
        for i in range(20_000):
            payload = _random_payload(
                rng, depth=rng.randint(0, 5), bad=0.15 if i % 4 == 0 else 0.0
            )
            expected = _outcome(reference_payload_bits, payload)
            assert _outcome(payload_bits, payload) == expected, payload
            outcomes[isinstance(expected, str)] += 1
            tag = rng.choice(("vote", "", _Tag("echo")))
            message = Message(0, 1, tag, payload)
            if not isinstance(expected, str):
                assert message.bits() == (
                    HEADER_BITS + reference_payload_bits(tag) + expected
                )
        # Both outcomes are exercised, not only the measurable one.
        assert outcomes[True] > 500 and outcomes[False] > 15_000

    def test_self_containing_lists_still_raise(self):
        loop: List[Any] = []
        loop.append(loop)
        with pytest.raises(RecursionError):
            payload_bits(loop)
        through_tuple: List[Any] = [1]
        through_tuple.append((through_tuple, through_tuple))
        with pytest.raises(RecursionError):
            payload_bits((through_tuple,))


class TestRngDerivation:
    def test_deterministic(self):
        assert derive_seed(1, "a", 2) == derive_seed(1, "a", 2)

    def test_label_sensitivity(self):
        assert derive_seed(1, "a") != derive_seed(1, "b")
        assert derive_seed(1, "a", "b") != derive_seed(1, "ab")

    def test_child_rng_streams_independent(self):
        a = child_rng(9, "x").random()
        b = child_rng(9, "y").random()
        assert a != b


class TestBitLedger:
    def test_record_and_totals(self):
        ledger = BitLedger(3)
        m = Message(0, 1, "v", 255)
        ledger.record(m)
        assert ledger.bits_sent_by(0) == m.bits()
        assert ledger.total_bits() == m.bits()
        assert ledger.total_messages() == 1

    def test_max_and_mean(self):
        ledger = BitLedger(2)
        ledger.record(Message(0, 1, "v", 255))
        ledger.record(Message(0, 1, "v", 255))
        ledger.record(Message(1, 0, "v", 255))
        assert ledger.max_bits_per_processor() == 2 * Message(0, 1, "v", 255).bits()
        assert ledger.mean_bits_per_processor() == pytest.approx(
            1.5 * Message(0, 1, "v", 255).bits()
        )

    def test_phase_breakdown(self):
        ledger = BitLedger(2)
        ledger.set_phase("alpha")
        ledger.record(Message(0, 1, "v", 1))
        ledger.set_phase("beta")
        ledger.record(Message(1, 0, "v", 1))
        breakdown = ledger.phase_breakdown()
        assert set(breakdown) == {"alpha", "beta"}

    def test_record_abstract(self):
        ledger = BitLedger(2)
        ledger.record_abstract(0, (1,), 100)
        assert ledger.bits_sent_by(0) == 100
        assert ledger.received_bits[1] == 100

    def test_record_abstract_message_count_equals_repeated_calls(self):
        """One call with k messages of w bits counts as k calls of w."""
        batched, repeated = BitLedger(3), BitLedger(3)
        for ledger in (batched, repeated):
            ledger.set_phase("send_up_level_1")
        batched.record_abstract(0, (2,), 5 * 63, messages=5)
        for _ in range(5):
            repeated.record_abstract(0, (2,), 63)
        for attribute in (
            "sent_bits", "received_bits", "sent_messages", "phase_bits",
        ):
            assert getattr(batched, attribute) == getattr(repeated, attribute)
        assert batched.snapshot() == repeated.snapshot()

    def test_fan_out_equals_one_call_per_recipient(self):
        """One call over k recipients leaves every counter, values and
        key order alike, as k one-recipient calls: seeded fan-outs of 0
        to 12 recipients, repeats among them, across phases."""
        rng = random.Random(29)
        fanned, single = BitLedger(16), BitLedger(16)
        for step in range(200):
            if step % 40 == 0:
                phase = f"phase_{rng.randrange(3)}"
                fanned.set_phase(phase)
                single.set_phase(phase)
            sender = rng.randrange(16)
            recipients = [
                rng.randrange(16) for _ in range(rng.randrange(13))
            ]
            bits = rng.randrange(1, 500)
            messages = rng.randrange(1, 4)
            fanned.record_abstract(sender, recipients, bits, messages)
            for recipient in recipients:
                single.record_abstract(sender, (recipient,), bits, messages)
        for attribute in (
            "sent_bits", "received_bits", "sent_messages", "phase_bits",
        ):
            assert list(getattr(fanned, attribute).items()) == list(
                getattr(single, attribute).items()
            )
        assert fanned.snapshot() == single.snapshot()

    def test_empty_fan_out_charges_nothing(self):
        ledger = BitLedger(2)
        ledger.record_abstract(0, (), 64)
        ledger.record_abstract(1, [], 64, messages=3)
        assert not ledger.sent_bits
        assert not ledger.received_bits
        assert not ledger.sent_messages
        assert not ledger.phase_bits

    @pytest.mark.parametrize("messages", [0, -1])
    def test_record_abstract_rejects_fewer_than_one_message(self, messages):
        ledger = BitLedger(2)
        for recipients in [(1,), (0, 1), ()]:
            with pytest.raises(ValueError, match="messages"):
                ledger.record_abstract(0, recipients, 64, messages=messages)
        assert not ledger.sent_bits and not ledger.sent_messages
        assert not ledger.received_bits and not ledger.phase_bits

    def test_snapshot(self):
        ledger = BitLedger(2)
        ledger.record(Message(0, 1, "v", 1))
        ledger.tick_round()
        snap = ledger.snapshot()
        assert snap.rounds == 1
        assert snap.total_messages == 1
        assert "total_bits_sent" in snap.as_row()

    def test_include_filter(self):
        ledger = BitLedger(3)
        ledger.record(Message(0, 1, "v", 1))
        ledger.record(Message(2, 1, "v", (1, 1, 1)))
        assert ledger.max_bits_per_processor(include=[0, 1]) == Message(
            0, 1, "v", 1
        ).bits()


_LEDGER_FIELDS = ("sent_bits", "received_bits", "sent_messages", "phase_bits")

#: Payload objects an outbox may share between messages.
_SHARED = (
    (1, (2, -3)), [4, None, [5]], -7, True, False, None, 0, (), "ab",
    ((0, 1), (2, (3, -4))), _ROW,
)


def _random_outbox(rng: random.Random, sender: int, n: int) -> List[Message]:
    """Runs of messages that share one tag and payload object (as a
    broadcast does), interleaved with equal-but-distinct copies and
    fresh nested payloads."""
    messages: List[Message] = []
    for _ in range(rng.randrange(12)):
        roll = rng.randrange(4)
        if roll == 0:
            payload = rng.choice(_SHARED)
        elif roll == 1:
            # Equal, but a distinct object wherever Python allows one.
            payload = pickle.loads(pickle.dumps(rng.choice(_SHARED)))
        elif roll == 2:
            payload = _random_payload(rng, depth=3, bad=0.0)
        else:
            payload = rng.choice((0, 1, -1, -(1 << 70), True, None))
        tag = rng.choice(("v", "vote", "", "a-much-longer-tag", _Tag("ab")))
        for _ in range(rng.randint(1, 4)):
            messages.append(Message(sender, rng.randrange(n), tag, payload))
    return messages


def _record_one(ledger: BitLedger, message: Message, phase: str) -> None:
    """The per-message charge, written out: the oracle for ``record``."""
    bits = message.bits()
    ledger.sent_bits[message.sender] += bits
    ledger.received_bits[message.recipient] += bits
    ledger.sent_messages[message.sender] += 1
    ledger.phase_bits[phase] += bits


class TestRecordOutbox:
    """One ``record`` of a whole outbox leaves every counter as charging
    its messages one by one."""

    def test_seeded_outboxes_match_per_message_record(self):
        rng = random.Random(21)
        n = 9
        outbox, reference = BitLedger(n), BitLedger(n)
        charged = distinct_equal = 0
        for _ in range(400):
            phase = rng.choice(("default", "alpha", "a-longer-phase"))
            outbox.set_phase(phase)
            sender = rng.randrange(n)
            messages = _random_outbox(rng, sender, n)
            outbox.record(*messages)
            for message in messages:
                _record_one(reference, message, phase)
            charged += len(messages)
            distinct_equal += sum(
                a.payload is not b.payload and a.payload == b.payload
                for a, b in zip(messages, messages[1:])
            )
            for name in _LEDGER_FIELDS:
                # Same entries, inserted in the same order.
                assert list(getattr(outbox, name).items()) == list(
                    getattr(reference, name).items()
                ), name
        assert charged > 2000 and distinct_equal > 20
        assert outbox.snapshot() == reference.snapshot()

    def test_empty_outbox_charges_nothing(self):
        ledger = BitLedger(4)
        ledger.record(Message(2, 1, "v", 1))
        before = {
            name: list(getattr(ledger, name).items())
            for name in _LEDGER_FIELDS
        }
        ledger.set_phase("quiet")
        ledger.record()
        ledger.record(*[])
        for name in _LEDGER_FIELDS:
            assert list(getattr(ledger, name).items()) == before[name]
        assert "quiet" not in ledger.phase_bits

    @pytest.mark.parametrize(
        "bad, error",
        [
            (Message(0, 2, "v", 1), "forged sender 0"),
            (Message(1, 3, "v", 1), "unknown recipient 3"),
            (Message(1, -1, "v", 1), "unknown recipient -1"),
        ],
    )
    def test_bad_message_rejected_before_its_outbox_is_charged(
        self, bad, error
    ):
        class Sends(ProcessorProtocol):
            def __init__(self, pid, outbox):
                super().__init__(pid)
                self.outbox = outbox

            def on_round(self, round_no, inbox):
                return self.outbox

        good = [Message(0, 1, "v", 1), Message(0, 2, "v", 1)]
        protocols = [
            Sends(0, good),
            Sends(1, [Message(1, 0, "v", 1), bad, Message(1, 2, "v", 1)]),
            Sends(2, []),
        ]
        net = SyncNetwork(protocols, NullAdversary(3))
        with pytest.raises(SimulationError, match=error):
            net.step(1)
        # Processor 0's outbox was charged; nothing of processor 1's.
        assert dict(net.ledger.sent_bits) == {0: 2 * good[0].bits()}
        assert dict(net.ledger.sent_messages) == {0: 2}
        assert dict(net.ledger.received_bits) == {
            1: good[0].bits(), 2: good[1].bits(),
        }


class EchoProtocol(ProcessorProtocol):
    """Sends its pid to everyone in round 1; decides on sum of inputs."""

    def __init__(self, pid: int, n: int):
        super().__init__(pid)
        self.n = n
        self._output = None

    def on_round(self, round_no: int, inbox: List[Message]) -> List[Message]:
        if round_no == 1:
            return [
                Message(self.pid, other, "hello", self.pid)
                for other in range(self.n)
                if other != self.pid
            ]
        if round_no == 2:
            self._output = sum(m.payload for m in inbox if m.tag == "hello")
        return []

    def output(self):
        return self._output


class TestSyncNetwork:
    def test_fault_free_run(self):
        n = 5
        protocols = [EchoProtocol(pid, n) for pid in range(n)]
        net = SyncNetwork(protocols, NullAdversary(n))
        result = net.run(max_rounds=3)
        assert result.halted
        total = sum(range(n))
        for pid, value in result.outputs.items():
            assert value == total - pid

    def test_ledger_counts_good_traffic(self):
        n = 3
        protocols = [EchoProtocol(pid, n) for pid in range(n)]
        net = SyncNetwork(protocols, NullAdversary(n))
        net.run(max_rounds=3)
        assert net.ledger.total_messages() == n * (n - 1)

    def test_pid_mismatch_rejected(self):
        protocols = [EchoProtocol(1, 2), EchoProtocol(0, 2)]
        with pytest.raises(SimulationError):
            SyncNetwork(protocols, NullAdversary(2))

    def test_static_adversary_excluded_from_good_outputs(self):
        n = 4
        protocols = [EchoProtocol(pid, n) for pid in range(n)]
        adversary = StaticByzantineAdversary(
            n, targets={0}, behavior=SilentBehavior()
        )
        net = SyncNetwork(protocols, adversary)
        result = net.run(max_rounds=3)
        assert 0 in result.corrupted
        assert 0 not in result.good_outputs()

    def test_adversary_messages_not_in_good_ledger(self):
        n = 4
        protocols = [EchoProtocol(pid, n) for pid in range(n)]
        adversary = StaticByzantineAdversary(
            n, targets={0}, behavior=FixedBitBehavior(1), vote_tag="hello"
        )
        net = SyncNetwork(protocols, adversary)
        net.run(max_rounds=3)
        assert net.ledger.bits_sent_by(0) == 0
        assert net.flood_bits > 0

    def test_flooding_adversary_floods(self):
        n = 4
        protocols = [EchoProtocol(pid, n) for pid in range(n)]
        inner = StaticByzantineAdversary(
            n, targets={0}, behavior=SilentBehavior()
        )
        adversary = FloodingAdversary(inner, flood_factor=10)
        net = SyncNetwork(protocols, adversary)
        net.run(max_rounds=3)
        assert net.flood_bits >= 10 * 64

    def test_agreement_value(self):
        n = 3
        protocols = [EchoProtocol(pid, n) for pid in range(n)]
        net = SyncNetwork(protocols, NullAdversary(n))
        result = net.run(max_rounds=3)
        # Outputs differ per pid here, so no agreement value.
        assert result.agreement_value() is None

    def test_budget_enforced(self):
        n = 4
        adversary = StaticByzantineAdversary(
            n, targets={0}, behavior=SilentBehavior()
        )
        adversary.budget = 0
        protocols = [EchoProtocol(pid, n) for pid in range(n)]
        net = SyncNetwork(protocols, adversary)
        result = net.run(max_rounds=2)
        assert result.corrupted == set()


class _IdleAdversary(Adversary):
    """Does nothing, but is *not* a NullAdversary."""

    def __init__(self, n: int) -> None:
        super().__init__(n, budget=0)

    def act(self, view: AdversaryView) -> List[Message]:
        return []


class TestSimulatorFastPaths:
    """One round loop for every adversary, reused inbox buffers and
    the per-outbox ledger charge are pure optimisations: a
    NullAdversary run must be indistinguishable from a tracked idle
    adversary's, message for message and bit for bit."""

    def _run(self, adversary_factory, n=5, rounds=4):
        protocols = [EchoProtocol(pid, n) for pid in range(n)]
        net = SyncNetwork(protocols, adversary_factory(n))
        result = net.run(max_rounds=rounds)
        return result, net

    def test_null_adversary_bit_identical_to_tracked_idle(self):
        fast, fast_net = self._run(NullAdversary)
        slow, slow_net = self._run(_IdleAdversary)
        assert fast.outputs == slow.outputs
        assert fast.rounds == slow.rounds
        assert fast.halted == slow.halted
        assert fast.corrupted == slow.corrupted == set()
        assert (
            fast_net.ledger.total_bits() == slow_net.ledger.total_bits()
        )
        assert (
            fast_net.ledger.total_messages()
            == slow_net.ledger.total_messages()
        )

    def test_inbox_buffers_are_reused_not_reallocated(self):
        n = 3
        protocols = [EchoProtocol(pid, n) for pid in range(n)]
        net = SyncNetwork(protocols, NullAdversary(n))
        buffers = {id(box) for box in net._inboxes}
        buffers |= {id(box) for box in net._spare_inboxes}
        for rnd in range(1, 6):
            net.step(rnd)
            assert {id(box) for box in net._inboxes} <= buffers
            assert {id(box) for box in net._spare_inboxes} <= buffers

    def test_adversary_message_to_unknown_recipient_rejected(self):
        n = 3

        class Bad(StaticByzantineAdversary):
            def act(self, view):
                return [Message(next(iter(self.corrupted)), 99, "x", 1)]

        protocols = [EchoProtocol(pid, n) for pid in range(n)]
        adversary = Bad(n, targets={0}, behavior=SilentBehavior())
        net = SyncNetwork(protocols, adversary)
        with pytest.raises(SimulationError):
            net.run(max_rounds=2)


class _OneOutbox(ProcessorProtocol):
    """Returns one list object in each of ``rounds`` rounds, logs the
    senders it hears and whether the list is still as built, and
    decides on the log."""

    def __init__(self, pid: int, n: int, rounds: int) -> None:
        super().__init__(pid)
        self.rounds = rounds
        self.outbox = [
            Message(pid, q, "same", pid) for q in range(n) if q != pid
        ]
        self.built = list(self.outbox)
        self.heard: List[List[int]] = []
        self.intact: List[bool] = []

    def on_round(self, round_no: int, inbox: List[Message]) -> List[Message]:
        self.intact.append(
            len(self.outbox) == len(self.built)
            and all(a is b for a, b in zip(self.outbox, self.built))
        )
        if round_no > 1:
            self.heard.append(
                sorted(m.sender for m in inbox if m.tag == "same")
            )
        if round_no > self.rounds:
            return []
        return self.outbox

    def output(self):
        return self.heard if len(self.heard) == self.rounds else None


class _Watching(Adversary):
    """Corrupts processor 0 in round 1, stays silent, and keeps the
    senders of each round's rushing view."""

    def __init__(self, n: int) -> None:
        super().__init__(n, budget=1)
        self.inbound: List[List[int]] = []

    def select_corruptions(self, round_no):
        return {0} if round_no == 1 else set()

    def act(self, view):
        self.inbound.append(sorted(m.sender for m in view.inbound))
        return []


class TestReadOnlyOutboxes:
    """``ProcessorProtocol.on_round``'s contract: networks only read the
    returned list, so a protocol may return the same list every round
    and every round still delivers it whole."""

    N, ROUNDS = 5, 4

    def _protocols(self):
        return [_OneOutbox(pid, self.N, self.ROUNDS) for pid in range(self.N)]

    def _assert_unchanged_and_delivered(self, protocols, good):
        for protocol in protocols:
            if protocol.pid not in good:
                continue
            assert protocol.intact == [True] * (self.ROUNDS + 1)
            assert protocol.outbox == protocol.built
            others = [q for q in good if q != protocol.pid]
            assert protocol.heard == [others] * self.ROUNDS

    def test_sync_network_with_a_rushing_adversary(self):
        protocols = self._protocols()
        adversary = _Watching(self.N)
        network = SyncNetwork(protocols, adversary)
        result = network.run(max_rounds=self.ROUNDS + 2)
        good = list(range(1, self.N))
        assert result.halted and result.rounds == self.ROUNDS + 1
        assert result.corrupted == {0}
        self._assert_unchanged_and_delivered(protocols, good)
        # The outgoing path ran: each sending round showed the adversary
        # every good processor's message to its processor.
        assert adversary.inbound == [good] * self.ROUNDS + [[]]
        assert network.ledger.total_messages() == (
            self.ROUNDS * len(good) * (self.N - 1)
        )

    def test_synchronized_process_on_the_async_network(self):
        from repro.asynchrony.synchronizer import run_synchronized

        protocols = self._protocols()
        result, processes = run_synchronized(
            protocols, max_rounds=self.ROUNDS + 1, fault_bound=0
        )
        self._assert_unchanged_and_delivered(protocols, range(self.N))
        assert all(
            process.rounds_simulated == self.ROUNDS + 1
            for process in processes
        )
        assert None not in result.good_outputs().values()


class _Recording(Adversary):
    """Passes another adversary through and keeps every message it sends."""

    def __init__(self, inner: Adversary) -> None:
        super().__init__(inner.n, inner.budget)
        self.inner = inner
        self.corrupted = inner.corrupted
        self.sent: List[Message] = []

    def select_corruptions(self, round_no):
        return self.inner.select_corruptions(round_no)

    def record_capture(self, pid, state):
        self.inner.record_capture(pid, state)

    def act(self, view):
        messages = list(self.inner.act(view))
        self.sent.extend(messages)
        return messages


def _recorded_run(protocols, adversary, counted, rounds):
    """The network after ``rounds`` rounds, and every adversary message."""
    recording = _Recording(adversary)
    network = SyncNetwork(
        protocols, recording, count_adversary_traffic=counted
    )
    network.run(max_rounds=rounds)
    return network, recording.sent


def _anti_majority_run(counted: bool):
    """Algorithm 5 against a rushing anti-majority adversary, shaped
    like the end-to-end ``aeba-n256-sparse`` workload at n=48 on an
    explicit circulant graph (no networkx)."""
    from repro.adversary.behaviors import AntiMajorityBehavior
    from repro.core.coins import unreliable_coin_source
    from repro.core.unreliable_coin_ba import (
        SparseAEBAProcessor,
        vote_threshold,
    )

    n, rounds = 48, 3
    graph = {
        p: sorted({(p + d) % n for d in (1, 2, 3, 5, -1, -2, -3, -5)})
        for p in range(n)
    }
    rng = random.Random(8)
    source = unreliable_coin_source(
        n, rounds, good_round_indices=[1], confused_fraction=0.3,
        rng=random.Random(9),
    )
    protocols = [
        SparseAEBAProcessor(
            p, rng.randrange(2), graph[p],
            coin_view=lambda idx, p=p: source.view(idx, p),
            num_rounds=rounds, threshold=vote_threshold(1 / 12, 0.05),
        )
        for p in range(n)
    ]
    adversary = StaticByzantineAdversary(
        n, set(range(0, n, 6)), AntiMajorityBehavior(),
        recipients_of=graph, seed=10,
    )
    return _recorded_run(protocols, adversary, counted, rounds + 2)


def _flooding_run(counted: bool):
    n = 6
    adversary = FloodingAdversary(
        StaticByzantineAdversary(
            n, targets={0, 4}, behavior=FixedBitBehavior(1),
            vote_tag="hello",
        ),
        flood_factor=7,
        junk_bits=1,  # the junk payload is the same object as the votes
        seed=3,
    )
    protocols = [EchoProtocol(pid, n) for pid in range(n)]
    return _recorded_run(protocols, adversary, counted, 3)


class _MixedOutboxes(Adversary):
    """Corrupted senders emit :func:`_random_outbox` outboxes: runs of
    one shared tag and payload, equal-but-distinct copies and fresh
    nested payloads."""

    def __init__(self, n: int) -> None:
        super().__init__(n, budget=2)
        self.rng = random.Random(17)

    def select_corruptions(self, round_no):
        return {1, 3} if round_no == 1 else set()

    def act(self, view):
        return [
            message
            for sender in sorted(view.corrupted)
            for message in _random_outbox(self.rng, sender, view.n)
        ]


def _mixed_run(counted: bool):
    n = 5
    protocols = [EchoProtocol(pid, n) for pid in range(n)]
    return _recorded_run(protocols, _MixedOutboxes(n), counted, 4)


class TestFloodSizing:
    """``flood_bits`` sizes an adversary message only when its tag or
    payload object changes, and must still equal the per-message sum;
    counted adversary traffic lands in the ledger message by message."""

    @pytest.mark.parametrize(
        "run", [_anti_majority_run, _flooding_run, _mixed_run]
    )
    def test_flood_bits_and_ledger_match_per_message_sums(self, run):
        quiet, quiet_sent = run(counted=False)
        loud, loud_sent = run(counted=True)
        assert quiet_sent == loud_sent and loud_sent
        # The shortcut is exercised: runs of one shared payload object.
        assert any(
            a.tag is b.tag and a.payload is b.payload
            for a, b in zip(loud_sent, loud_sent[1:])
        )
        flood = sum(message.bits() for message in loud_sent)
        assert quiet.flood_bits == loud.flood_bits == flood
        expected = {
            name: collections.Counter(getattr(quiet.ledger, name))
            for name in ("sent_bits", "received_bits", "sent_messages")
        }
        for message in loud_sent:
            bits = message.bits()
            expected["sent_bits"][message.sender] += bits
            expected["received_bits"][message.recipient] += bits
            expected["sent_messages"][message.sender] += 1
        for name, counts in expected.items():
            assert dict(getattr(loud.ledger, name)) == dict(counts), name
        assert loud.ledger.total_bits() == quiet.ledger.total_bits() + flood
        assert sum(loud.ledger.phase_bits.values()) == (
            sum(quiet.ledger.phase_bits.values()) + flood
        )


class TestMessageSlots:
    def test_message_has_no_instance_dict(self):
        message = Message(0, 1, "tag", 7)
        assert not hasattr(message, "__dict__")
        assert "payload" in Message.__slots__
        with pytest.raises(Exception):
            # Frozen + slotted: field assignment raises
            # FrozenInstanceError; unknown attributes are equally
            # rejected (TypeError on 3.11, AttributeError on 3.12+).
            message.payload = 9

    def test_slotted_message_still_frozen_hashable_measurable(self):
        a = Message(0, 1, "tag", 7)
        b = Message(0, 1, "tag", 7)
        assert a == b and hash(a) == hash(b)
        assert a.bits() == HEADER_BITS + payload_bits("tag") + payload_bits(7)

    def test_message_semantics_are_pinned(self):
        """Construction, equality, hash, repr, pickling, ``replace`` and
        frozenness: the dataclass contract, whatever builds the fields."""
        a = Message(3, 4, "vote", (1, -2))
        b = Message(sender=3, recipient=4, tag="vote", payload=(1, -2))
        fields = (a.sender, a.recipient, a.tag, a.payload)
        assert fields == (3, 4, "vote", (1, -2))
        assert a == b and hash(a) == hash(b)
        assert a != Message(3, 4, "vote", (1, 2))
        assert a != (3, 4, "vote", (1, -2))
        assert hash(a) == hash((3, 4, "vote", (1, -2)))
        assert repr(a) == (
            "Message(sender=3, recipient=4, tag='vote', payload=(1, -2))"
        )
        assert Message(0, 1, "t").payload is None
        assert Message(0, 1, "t") == Message(0, 1, "t", None)
        assert dataclasses.astuple(a) == (3, 4, "vote", (1, -2))
        assert [f.name for f in dataclasses.fields(Message)] == [
            "sender", "recipient", "tag", "payload",
        ]
        assert Message.__match_args__ == (
            "sender", "recipient", "tag", "payload",
        )
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            clone = pickle.loads(pickle.dumps(a, protocol))
            assert clone == a and type(clone) is Message
        assert copy.copy(a) == a and copy.deepcopy(a) == a
        moved = dataclasses.replace(a, recipient=9)
        assert moved == Message(3, 9, "vote", (1, -2))
        assert a.recipient == 4
        with pytest.raises(dataclasses.FrozenInstanceError):
            a.sender = 5
        with pytest.raises(dataclasses.FrozenInstanceError):
            del a.tag
        with pytest.raises(TypeError):
            Message(0, 1)
        with pytest.raises(TypeError):
            Message(0, 1, "t", None, "extra")
        with pytest.raises(TypeError):
            Message(0, 1, "t", colour=1)
