"""The distributed path's one framing: length-prefixed binary frames.

The documents (:func:`~repro.engine.dispatch.unit_to_wire` requests,
``results``/``error`` replies) are versioned JSON; this module only
frames them on the byte stream.  Every frame is a struct-packed 8-byte
header followed by the UTF-8 JSON payload, zlib-compressed when that
actually shrinks it::

    offset  size  field
    0       1     magic (FRAME_MAGIC, 0xC5)
    1       1     frame-header version (FRAME_VERSION)
    2       1     flags (bit 0: payload is zlib-compressed)
    3       1     reserved (0)
    4       4     payload length, big-endian unsigned
    8       N     payload (UTF-8 JSON, possibly compressed)

One :class:`FrameReader` per connection buffers raw ``recv`` chunks
and cuts frames by their length prefix, so a frame split across any
number of chunks, or several frames coalesced into one TCP segment,
decode cleanly; bytes past a frame boundary stay buffered for the next
frame — the property pipelined lanes depend on.

The reader refuses a stream whose first byte is not
:data:`FRAME_MAGIC` the moment that byte arrives, so a stray peer
speaking some other protocol (a JSON line, an HTTP probe) is answered
at once instead of left waiting for a header that never comes.  Every
read enforces :data:`DEFAULT_MAX_FRAME_BYTES` (or the configured cap,
validated by :func:`check_frame_cap`): an oversized frame raises a
:class:`~repro.engine.spec.WireFormatError` naming the cap instead of
growing the buffer without bound.
"""

from __future__ import annotations

import struct
import zlib
from typing import Any, NamedTuple, Optional

from .spec import WireFormatError, wire_dumps, wire_loads

__all__ = [
    "COMPRESS_MIN_BYTES",
    "DEFAULT_MAX_FRAME_BYTES",
    "FRAME_MAGIC",
    "FRAME_VERSION",
    "FrameReader",
    "RawFrame",
    "check_frame_cap",
    "decode_document",
    "encode_frame",
]

#: First byte of every frame.  Outside ASCII, so a peer speaking a
#: text protocol is refused on its very first byte.
FRAME_MAGIC = 0xC5

#: Version byte of the frame *header* layout.  Independent of
#: WIRE_VERSION, which versions the documents the frames carry.
FRAME_VERSION = 1

#: Header flag: the payload is zlib-compressed.
FLAG_ZLIB = 0x01

#: magic, frame version, flags, reserved, payload length (big-endian).
_HEADER = struct.Struct(">BBBBI")
HEADER_BYTES = _HEADER.size

#: Reply/request frames larger than this are refused (a clean error
#: naming the lane and the cap, not unbounded memory growth).
DEFAULT_MAX_FRAME_BYTES = 64 * 1024 * 1024

#: Payloads below this size skip the compression attempt — zlib on a
#: tiny error reply costs CPU and usually *grows* the frame.
COMPRESS_MIN_BYTES = 512

_RECV_CHUNK = 65536


class RawFrame(NamedTuple):
    """One frame off the stream: undecoded payload plus accounting."""

    #: The document's UTF-8 JSON bytes (already decompressed).
    payload: bytes
    #: Bytes consumed off the socket, header included — what lane
    #: telemetry counts as ``bytes_in``.
    size: int


def check_frame_cap(max_frame_bytes: int) -> int:
    """Validate a frame cap, returning it unchanged.

    A cap that cannot hold one header plus one payload byte would
    refuse every frame; every holder of a cap (reader, worker,
    transport, backend) checks it here when it is built, so a bad
    value fails at construction rather than on the first connection.
    """
    if max_frame_bytes < HEADER_BYTES + 1:
        raise WireFormatError(
            f"max_frame_bytes {max_frame_bytes} is smaller than one "
            f"frame header ({HEADER_BYTES + 1} bytes minimum)"
        )
    return max_frame_bytes


def encode_frame(doc: Any) -> bytes:
    """One wire document as one frame.

    The payload is compressed only when it reaches
    :data:`COMPRESS_MIN_BYTES` and the deflate actually comes out
    smaller.
    """
    payload = wire_dumps(doc).encode("utf-8")
    flags = 0
    if len(payload) >= COMPRESS_MIN_BYTES:
        packed = zlib.compress(payload, 6)
        if len(packed) < len(payload):
            payload = packed
            flags |= FLAG_ZLIB
    return (
        _HEADER.pack(FRAME_MAGIC, FRAME_VERSION, flags, 0, len(payload))
        + payload
    )


def decode_document(payload: bytes) -> Any:
    """Parse a frame's payload bytes into a wire document."""
    try:
        text = payload.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise WireFormatError(f"frame payload is not UTF-8: {exc}") from None
    return wire_loads(text)


class FrameReader:
    """Buffered, length-prefix reader for one connection.

    Wraps one socket-like object (anything with ``recv``) and yields
    one frame at a time.  Bytes past a frame boundary stay in the
    buffer for the next call, so coalesced frames — the normal case on
    a pipelined lane — decode cleanly.

    Raises:
        ConnectionError: EOF mid-frame (peer died mid-reply).
        WireFormatError: a first byte other than :data:`FRAME_MAGIC`,
            a frame over ``max_frame_bytes``, an unsupported header,
            or a corrupt compressed payload.

    A clean EOF *at* a frame boundary returns ``None`` — the peer hung
    up between requests, which is a lifecycle event, not an error.
    """

    def __init__(
        self,
        sock: Any,
        max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES,
    ) -> None:
        self._sock = sock
        self.max_frame_bytes = check_frame_cap(max_frame_bytes)
        self._buffer = bytearray()

    def _fill(self) -> bool:
        """Pull one chunk into the buffer; False on EOF."""
        chunk = self._sock.recv(_RECV_CHUNK)
        if not chunk:
            return False
        self._buffer.extend(chunk)
        return True

    def _need(self, count: int) -> None:
        """Block until ``count`` bytes are buffered; EOF mid-frame raises."""
        while len(self._buffer) < count:
            if not self._fill():
                raise ConnectionError(
                    "peer closed the connection mid-frame"
                )

    def read_frame(self) -> Optional[RawFrame]:
        """The next frame, or ``None`` on clean EOF at a boundary."""
        while not self._buffer:
            if not self._fill():
                return None
        if self._buffer[0] != FRAME_MAGIC:
            # Refuse on the first byte: a non-frame peer may never send
            # the eight bytes a header needs.
            raise WireFormatError(
                f"stream byte 0x{self._buffer[0]:02x} does not begin a "
                f"frame (frame magic is 0x{FRAME_MAGIC:02x})"
            )
        self._need(HEADER_BYTES)
        _magic, version, flags, _, length = _HEADER.unpack(
            bytes(self._buffer[:HEADER_BYTES])
        )
        if version != FRAME_VERSION:
            raise WireFormatError(
                f"unsupported frame version {version} "
                f"(this engine speaks frame version {FRAME_VERSION})"
            )
        total = HEADER_BYTES + length
        if total > self.max_frame_bytes:
            raise WireFormatError(
                f"frame of {total} bytes exceeds the "
                f"{self.max_frame_bytes}-byte frame cap"
            )
        self._need(total)
        payload = bytes(self._buffer[HEADER_BYTES:total])
        del self._buffer[:total]
        if flags & FLAG_ZLIB:
            try:
                payload = zlib.decompress(payload)
            except zlib.error as exc:
                raise WireFormatError(
                    f"corrupt compressed frame payload: {exc}"
                ) from None
            if len(payload) > self.max_frame_bytes:
                raise WireFormatError(
                    f"frame payload of {len(payload)} bytes (decompressed) "
                    f"exceeds the {self.max_frame_bytes}-byte frame cap"
                )
        return RawFrame(payload=payload, size=total)
