"""Message model and bit-size measurement.

The paper's headline results are *bit* complexities, so every payload in
the simulator has a well-defined encoded size.  Payloads are restricted to
a small recursive vocabulary (ints, bools, strings, None, and
tuples/lists of payloads) and measured by :func:`payload_bits`.

Protocol words (bin choices, coin words, shares) are ints; a share is the
size of the secret shared (Definition 1), which holds here because Shamir
shares are field elements of the same width as the secret word.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Any, Iterable, Sequence

#: Flat per-message protocol header allowance (sender identity is conveyed
#: by the channel itself in the paper's model, so headers are small).
HEADER_BITS = 16


class MessageError(ValueError):
    """Raised for malformed messages or unmeasurable payloads."""


def payload_bits(payload: Any) -> int:
    """Encoded size, in bits, of a payload.

    * ``None`` costs 1 bit (presence flag).
    * ``bool`` costs 1 bit.
    * ``int`` costs its two's-complement width (minimum 1).
    * ``str`` tags cost 8 bits per character.
    * tuples/lists cost the sum of their elements.

    Exact tuples, lists, ints and strs are dispatched first, and a
    tuple or list is sized a level at a time instead of one call per
    node.  That is exact because a sequence costs the sum of its
    elements: a level made only of tuples costs what the concatenation
    of their items costs, so ``chain.from_iterable`` replaces it by the
    next level down; and a level made only of ints and bools costs
    ``sum(bit_length) + #zeros + #negatives``, the int and bool rules
    above summed over the level.  Both steps run in C.  Any other level is
    summed item by item through this function, so subclasses (an
    IntEnum, a namedtuple, a list subclass), dicts, ``wire_bits``
    objects and unmeasurable leaves meet the same rules at any depth.
    """
    kind = type(payload)
    if kind is tuple or kind is list:
        return _level_bits(payload)
    if kind is int:
        # bit_length, plus the sign bit of a negative, plus 1 for zero.
        return payload.bit_length() + (payload <= 0)
    if kind is str:
        return 8 * len(payload)
    if payload is None:
        return 1
    if isinstance(payload, bool):
        return 1
    if isinstance(payload, int):
        return max(1, payload.bit_length() + (1 if payload < 0 else 0))
    if isinstance(payload, str):
        return 8 * len(payload)
    if isinstance(payload, (tuple, list)):
        return sum(payload_bits(item) for item in payload)
    if isinstance(payload, dict):
        return sum(
            payload_bits(k) + payload_bits(v) for k, v in payload.items()
        )
    if hasattr(payload, "wire_bits"):
        return int(payload.wire_bits())
    raise MessageError(f"payload of type {type(payload)!r} is not measurable")


#: Item types of the two levels :func:`_level_bits` sizes in C.
_TUPLE = frozenset((tuple,))
_INTS = frozenset((int, bool))


def _level_bits(level: Sequence[Any]) -> int:
    """Summed :func:`payload_bits` of a sequence's items, level by level.

    Lists are not flattened into their parent level: a list can contain
    itself, and sizing it item by item keeps that a ``RecursionError``
    instead of an endless loop.  A tuple can reach itself only through
    a list.
    """
    while level:
        kinds = set(map(type, level))
        if kinds == _TUPLE:
            level = list(chain.from_iterable(level))
        elif kinds <= _INTS:
            bits = sum(map(int.bit_length, level)) + level.count(0)
            if min(level) < 0:
                bits += sum(map((0).__gt__, level))
            return bits
        else:
            return sum(map(payload_bits, level))
    return 0


@dataclass(frozen=True, slots=True)
class Message:
    """One point-to-point message on a private channel.

    Slotted: a round of an n-processor protocol allocates O(n^2) of
    these, and ``__slots__`` drops the per-instance ``__dict__`` — less
    memory traffic in the simulator's inner loop for an object that is
    immutable data anyway.

    Attributes:
        sender: origin processor ID (authenticated by the channel — the
            paper: "the identity of the sender is known to the recipient").
        recipient: destination processor ID.
        tag: short protocol-phase tag used for dispatch.
        payload: measurable payload (see :func:`payload_bits`).
    """

    sender: int
    recipient: int
    tag: str
    payload: Any = None

    def bits(self) -> int:
        """Total on-wire size of this message."""
        return HEADER_BITS + payload_bits(self.tag) + payload_bits(self.payload)


def total_bits(messages: Iterable[Message]) -> int:
    """Combined bit size of a batch of messages."""
    return sum(message.bits() for message in messages)
