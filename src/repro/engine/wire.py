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
frame — the property pipelined lanes depend on.  It reads a blocking
socket one frame at a time (the worker) or a non-blocking one chunk
at a time (the client's lanes), through one parser.

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
from typing import Any, List, NamedTuple, Optional

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

    Wraps one socket-like object (anything with ``recv``) and cuts its
    byte stream into frames, through two entry points that share one
    parser and one ``recv`` step:

    * :meth:`read_frame` blocks until one whole frame is buffered (the
      worker's request loop);
    * :meth:`read_frames` makes one ``recv`` and returns every whole
      frame now buffered — the entry point for a non-blocking socket
      that ``select`` reported readable (the client's lanes).

    Bytes past a frame boundary stay in the buffer for the next call,
    so coalesced frames — the normal case on a pipelined lane — decode
    cleanly.

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
        #: Damage :meth:`read_frames` found behind the whole frames it
        #: returned; its next call raises it.
        self.error: Optional[WireFormatError] = None

    def _fill(self) -> bool:
        """One ``recv`` into the buffer; False on clean EOF at a boundary."""
        chunk = self._sock.recv(_RECV_CHUNK)
        if chunk:
            self._buffer += chunk
            return True
        if self._buffer:
            # Every whole frame was cut before this recv: what is left
            # is the start of a frame the peer never finished.
            raise ConnectionError("peer closed the connection mid-frame")
        return False

    def _cut(self) -> Optional[RawFrame]:
        """Cut one whole frame off the buffer; ``None`` while incomplete.

        Checks each field as soon as its bytes are buffered: the magic
        on the first byte (a non-frame peer may never send the eight
        bytes a header needs), version and cap on the header, before
        the payload arrives.
        """
        buffer = self._buffer
        if not buffer:
            return None
        if buffer[0] != FRAME_MAGIC:
            raise WireFormatError(
                f"stream byte 0x{buffer[0]:02x} does not begin a "
                f"frame (frame magic is 0x{FRAME_MAGIC:02x})"
            )
        if len(buffer) < HEADER_BYTES:
            return None
        _magic, version, flags, _, length = _HEADER.unpack_from(buffer)
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
        if len(buffer) < total:
            return None
        payload = bytes(buffer[HEADER_BYTES:total])
        del buffer[:total]
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

    def read_frame(self) -> Optional[RawFrame]:
        """The next frame, or ``None`` on clean EOF at a boundary."""
        frame = self._cut()
        while frame is None:
            if not self._fill():
                return None
            frame = self._cut()
        return frame

    def read_frames(self) -> Optional[List[RawFrame]]:
        """One ``recv``, then every whole frame now buffered, in order.

        The non-blocking entry point: an empty list while a frame is
        still incomplete (or the socket has nothing to read yet),
        ``None`` on clean EOF at a frame boundary.  Damage raises at
        once when no whole frame precedes it in the chunk; behind whole
        frames it is kept in :attr:`error` and raised by the next call,
        so the frames go out first, as :meth:`read_frame` delivers them.
        """
        if self.error is not None:
            raise self.error
        try:
            if not self._fill():
                return None
        except BlockingIOError:
            return []
        frames = []
        try:
            frame = self._cut()
            while frame is not None:
                frames.append(frame)
                frame = self._cut()
        except WireFormatError as exc:
            if not frames:
                raise
            self.error = exc
        return frames
