"""Tests for the wire frame and the buffered frame reader.

Two properties carry the data plane:

* **framing is chunk-agnostic** — the reader reassembles frames from
  any recv segmentation: byte-at-a-time drips, a frame boundary
  landing mid-chunk, and several frames coalescing into one segment;
* **bounded and loud** — a non-frame first byte, oversized frames,
  bad headers, corrupt compression and mid-frame EOF each raise one
  specific error instead of hanging, guessing, or growing the buffer
  without bound.

The segmentation, bound and EOF cases run through both of the
reader's entry points (:data:`ENTRY_POINTS`): the blocking
``read_frame`` and the non-blocking ``read_frames``.
"""

import struct
import zlib
from collections import deque

import pytest

from repro.engine import WireFormatError
from repro.engine.spec import WIRE_VERSION, wire_dumps
from repro.engine.wire import (
    COMPRESS_MIN_BYTES,
    DEFAULT_MAX_FRAME_BYTES,
    FLAG_ZLIB,
    FRAME_MAGIC,
    FRAME_VERSION,
    HEADER_BYTES,
    FrameReader,
    decode_document,
    encode_frame,
)


class FakeSocket:
    """recv() yields the scripted chunks, then EOF forever."""

    def __init__(self, *chunks: bytes) -> None:
        self.chunks = list(chunks)

    def recv(self, _size: int) -> bytes:
        return self.chunks.pop(0) if self.chunks else b""


class Polled:
    """``read_frames`` behind a ``read_frame`` face: the non-blocking
    entry point, called once per recv until it yields a frame."""

    def __init__(self, reader: FrameReader) -> None:
        self.reader = reader
        self.frames: deque = deque()

    def read_frame(self):
        while not self.frames:
            frames = self.reader.read_frames()
            if frames is None:
                return None
            self.frames.extend(frames)
        return self.frames.popleft()


def _blocking(reader: FrameReader) -> FrameReader:
    return reader


#: The reader's two entry points, each as a one-frame reader.
ENTRY_POINTS = (_blocking, Polled)


def _reader(
    *chunks: bytes, cap: int = DEFAULT_MAX_FRAME_BYTES, entry=_blocking
):
    return entry(FrameReader(FakeSocket(*chunks), max_frame_bytes=cap))


_SMALL = {"version": WIRE_VERSION, "kind": "error", "error": "short"}
#: Long and repetitive: takes the compressed path.
_LARGE = {
    "version": WIRE_VERSION,
    "kind": "error",
    "error": "x" * (4 * COMPRESS_MIN_BYTES),
}


# -- frame round trips -----------------------------------------------------------------


def test_binary_round_trip_small_payload_uncompressed():
    doc = _SMALL
    frame = encode_frame(doc)
    magic, version, flags, reserved, length = struct.unpack(
        ">BBBBI", frame[:HEADER_BYTES]
    )
    assert (magic, version, flags, reserved) == (
        FRAME_MAGIC, FRAME_VERSION, 0, 0,
    )
    assert length == len(frame) - HEADER_BYTES
    raw = _reader(frame).read_frame()
    assert raw.size == len(frame)
    assert decode_document(raw.payload) == doc


def test_binary_round_trip_large_payload_compressed():
    doc = _LARGE
    frame = encode_frame(doc)
    assert frame[2] & FLAG_ZLIB
    assert len(frame) < HEADER_BYTES + len(wire_dumps(doc).encode())
    raw = _reader(frame).read_frame()
    assert decode_document(raw.payload) == doc


def test_incompressible_payload_ships_uncompressed():
    """When deflate does not shrink the payload the flag stays clear —
    the reader must never pay decompression for nothing."""
    import random

    noise = "".join(
        random.Random(7).choice("0123456789abcdef") for _ in range(2048)
    )
    doc = {"version": WIRE_VERSION, "kind": "error", "error": noise}
    frame = encode_frame(doc)
    if not frame[2] & FLAG_ZLIB:  # hex noise may still deflate slightly
        assert len(frame) <= HEADER_BYTES + len(wire_dumps(doc).encode())
    assert decode_document(_reader(frame).read_frame().payload) == doc


# -- the buffered reader: chunk-agnostic framing ---------------------------------------


def test_reader_handles_byte_at_a_time_delivery():
    for entry in ENTRY_POINTS:
        for doc in (_SMALL, _LARGE):
            frame = encode_frame(doc)
            reader = _reader(
                *[frame[i:i + 1] for i in range(len(frame))], entry=entry
            )
            assert decode_document(reader.read_frame().payload) == doc
            assert reader.read_frame() is None


def test_reader_handles_coalesced_frames_in_one_chunk():
    """Two frames arriving in one recv must decode as two frames, with
    the trailing bytes preserved across read_frame calls."""
    for entry in ENTRY_POINTS:
        reader = _reader(
            encode_frame(_SMALL) + encode_frame(_LARGE), entry=entry
        )
        assert decode_document(reader.read_frame().payload) == _SMALL
        assert decode_document(reader.read_frame().payload) == _LARGE
        assert reader.read_frame() is None


def test_reader_handles_frame_boundary_mid_chunk():
    """A frame boundary mid-chunk plus a partial next frame (split
    inside its header, then inside its payload): the buffered reader
    yields both frames."""
    first = encode_frame(_SMALL)
    second = encode_frame(_LARGE)
    for entry in ENTRY_POINTS:
        for split in (HEADER_BYTES // 2, len(second) // 2):
            reader = _reader(
                first + second[:split], second[split:], entry=entry
            )
            assert decode_document(reader.read_frame().payload) == _SMALL
            assert decode_document(reader.read_frame().payload) == _LARGE
            assert reader.read_frame() is None


def test_reader_counts_wire_bytes_per_frame():
    for doc in (_SMALL, _LARGE):
        frame = encode_frame(doc)
        assert _reader(frame).read_frame().size == len(frame)


# -- bounded and loud ------------------------------------------------------------------


def test_clean_eof_at_boundary_returns_none():
    for entry in ENTRY_POINTS:
        assert _reader(entry=entry).read_frame() is None


def test_eof_mid_frame_raises_connection_error():
    frame = encode_frame(_SMALL)
    for entry in ENTRY_POINTS:
        # Inside the payload, then inside the header.
        with pytest.raises(ConnectionError, match="mid-frame"):
            _reader(frame[: HEADER_BYTES + 2], entry=entry).read_frame()
        with pytest.raises(ConnectionError, match="mid-frame"):
            _reader(frame[: HEADER_BYTES - 1], entry=entry).read_frame()


def test_reader_refuses_a_non_frame_first_byte_at_once():
    """A JSON line (or any non-frame stream) is refused on its first
    byte, naming it: the reader never waits for the whole header a
    foreign peer may never send."""

    class OneByteThenSilence:
        def __init__(self) -> None:
            self.chunks = [b"{"]

        def recv(self, _size: int) -> bytes:
            if not self.chunks:
                raise AssertionError("reader waited past the first byte")
            return self.chunks.pop(0)

    for entry in ENTRY_POINTS:
        with pytest.raises(WireFormatError, match="0x7b"):
            entry(FrameReader(OneByteThenSilence())).read_frame()
        # Checked per frame: a stray line after a good frame is refused
        # too.
        reader = _reader(
            encode_frame(_SMALL) + b'{"kind":"unit"}\n', entry=entry
        )
        assert decode_document(reader.read_frame().payload) == _SMALL
        with pytest.raises(WireFormatError, match="0x7b"):
            reader.read_frame()


def test_oversized_binary_frame_rejected_naming_the_cap():
    header = struct.pack(
        ">BBBBI", FRAME_MAGIC, FRAME_VERSION, 0, 0, 1 << 20
    )
    for entry in ENTRY_POINTS:
        with pytest.raises(WireFormatError, match="4096-byte frame cap"):
            _reader(header, cap=4096, entry=entry).read_frame()


def test_zlib_bomb_rejected_after_decompression():
    """A small compressed frame hiding an oversized payload is caught
    on the decompressed size, not just the length prefix."""
    payload = zlib.compress(b" " * (1 << 20))
    frame = (
        struct.pack(
            ">BBBBI", FRAME_MAGIC, FRAME_VERSION, FLAG_ZLIB, 0, len(payload)
        )
        + payload
    )
    with pytest.raises(WireFormatError, match="decompressed"):
        _reader(frame, cap=65536).read_frame()


def test_corrupt_compressed_payload_rejected():
    junk = b"\x00not-zlib\xff"
    frame = (
        struct.pack(
            ">BBBBI", FRAME_MAGIC, FRAME_VERSION, FLAG_ZLIB, 0, len(junk)
        )
        + junk
    )
    with pytest.raises(WireFormatError, match="corrupt compressed"):
        _reader(frame).read_frame()


def test_unsupported_frame_version_rejected():
    frame = struct.pack(">BBBBI", FRAME_MAGIC, FRAME_VERSION + 1, 0, 0, 2)
    for entry in ENTRY_POINTS:
        with pytest.raises(WireFormatError, match="frame version"):
            _reader(frame + b"{}", entry=entry).read_frame()


def test_non_utf8_payload_rejected():
    with pytest.raises(WireFormatError, match="not UTF-8"):
        decode_document(b"\xff\xfe{}")


def test_reader_rejects_unusable_cap():
    with pytest.raises(WireFormatError, match="max_frame_bytes"):
        FrameReader(FakeSocket(), max_frame_bytes=HEADER_BYTES)
