"""QUIC frames (RFC 9000, Section 19) — the subset the scanner exercises.

The measurement traffic of the paper is simple web traffic: handshake
CRYPTO exchanges, STREAM data for the HTTP/3 request/response, ACKs
(whose ``ack_delay`` feeds the stack's RTT estimator that Figures 3/4
use as the baseline), plus connection-management frames.  Every frame
here round-trips through its wire encoding; the endpoints exchange real
frame bytes inside packet payloads.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.quic.varint import decode_varint, encode_varint

__all__ = [
    "AckFrame",
    "AckRange",
    "ConnectionCloseFrame",
    "CryptoFrame",
    "Frame",
    "FrameParseError",
    "HandshakeDoneFrame",
    "NewConnectionIdFrame",
    "PaddingFrame",
    "PingFrame",
    "StreamFrame",
    "decode_frame_fields",
    "decode_frames",
    "encode_frames",
]


class FrameParseError(ValueError):
    """Raised when payload bytes cannot be parsed as QUIC frames."""


@dataclass
class Frame:
    """Base class for all frames."""

    def encode(self) -> bytes:  # pragma: no cover - abstract
        raise NotImplementedError

    @property
    def is_ack_eliciting(self) -> bool:
        """Whether receipt of this frame forces the peer to send an ACK."""
        return True


@dataclass
class PaddingFrame(Frame):
    """PADDING (type 0x00); ``length`` consecutive zero bytes."""

    length: int = 1

    def encode(self) -> bytes:
        return b"\x00" * self.length

    @property
    def is_ack_eliciting(self) -> bool:
        return False


@dataclass
class PingFrame(Frame):
    """PING (type 0x01)."""

    def encode(self) -> bytes:
        return b"\x01"


@dataclass(frozen=True)
class AckRange:
    """A contiguous range of acknowledged packet numbers, inclusive."""

    smallest: int
    largest: int

    def __post_init__(self) -> None:
        if self.smallest < 0 or self.largest < self.smallest:
            raise ValueError(f"invalid ack range [{self.smallest}, {self.largest}]")


@dataclass
class AckFrame(Frame):
    """ACK (type 0x02).

    ``ack_delay_us`` is the *decoded* delay in microseconds; the encoder
    applies ``ack_delay_exponent`` (default 3 per RFC 9000).  The RTT
    estimator subtracts this delay from the latest RTT sample, which is
    exactly the "processing delays as reported by the other host" the
    paper's Section 3.3 refers to.
    """

    largest_acknowledged: int
    ack_delay_us: int = 0
    ranges: Sequence[AckRange] = field(default_factory=tuple)
    ack_delay_exponent: int = 3

    def __post_init__(self) -> None:
        if not self.ranges:
            self.ranges = (AckRange(self.largest_acknowledged, self.largest_acknowledged),)
        ordered = sorted(self.ranges, key=lambda r: r.largest, reverse=True)
        if ordered[0].largest != self.largest_acknowledged:
            raise ValueError("largest_acknowledged must equal the top range's largest")
        self.ranges = tuple(ordered)

    @property
    def is_ack_eliciting(self) -> bool:
        return False

    def acked_packet_numbers(self) -> list[int]:
        """All packet numbers covered by this frame, descending."""
        numbers: list[int] = []
        for rng in self.ranges:
            numbers.extend(range(rng.largest, rng.smallest - 1, -1))
        return numbers

    def encode(self) -> bytes:
        parts = [b"\x02", encode_varint(self.largest_acknowledged)]
        parts.append(encode_varint(self.ack_delay_us >> self.ack_delay_exponent))
        parts.append(encode_varint(len(self.ranges) - 1))
        first = self.ranges[0]
        parts.append(encode_varint(first.largest - first.smallest))
        previous_smallest = first.smallest
        for rng in self.ranges[1:]:
            gap = previous_smallest - rng.largest - 2
            if gap < 0:
                raise ValueError("ack ranges overlap or touch")
            parts.append(encode_varint(gap))
            parts.append(encode_varint(rng.largest - rng.smallest))
            previous_smallest = rng.smallest
        return b"".join(parts)


@dataclass
class CryptoFrame(Frame):
    """CRYPTO (type 0x06) — carries handshake bytes."""

    offset: int
    data: bytes

    def encode(self) -> bytes:
        return b"\x06" + encode_varint(self.offset) + encode_varint(len(self.data)) + self.data


@dataclass
class StreamFrame(Frame):
    """STREAM (types 0x08-0x0f) with explicit offset, length, and FIN."""

    stream_id: int
    offset: int
    data: bytes
    fin: bool = False

    def encode(self) -> bytes:
        # OFF and LEN bits always set for unambiguous round-tripping.
        frame_type = 0x08 | 0x04 | 0x02 | (0x01 if self.fin else 0x00)
        return (
            bytes([frame_type])
            + encode_varint(self.stream_id)
            + encode_varint(self.offset)
            + encode_varint(len(self.data))
            + self.data
        )


@dataclass
class NewConnectionIdFrame(Frame):
    """NEW_CONNECTION_ID (type 0x18), simplified (no stateless reset token use)."""

    sequence_number: int
    retire_prior_to: int
    connection_id: bytes
    stateless_reset_token: bytes = b"\x00" * 16

    def __post_init__(self) -> None:
        if not 1 <= len(self.connection_id) <= 20:
            raise ValueError("NEW_CONNECTION_ID requires a 1..20 byte CID")
        if len(self.stateless_reset_token) != 16:
            raise ValueError("stateless reset token must be 16 bytes")

    def encode(self) -> bytes:
        return (
            b"\x18"
            + encode_varint(self.sequence_number)
            + encode_varint(self.retire_prior_to)
            + bytes([len(self.connection_id)])
            + self.connection_id
            + self.stateless_reset_token
        )


@dataclass
class HandshakeDoneFrame(Frame):
    """HANDSHAKE_DONE (type 0x1e), sent by the server only."""

    def encode(self) -> bytes:
        return b"\x1e"


@dataclass
class ConnectionCloseFrame(Frame):
    """CONNECTION_CLOSE (type 0x1c transport / 0x1d application)."""

    error_code: int = 0
    frame_type: int = 0
    reason: bytes = b""
    is_application: bool = False

    def encode(self) -> bytes:
        if self.is_application:
            return (
                b"\x1d"
                + encode_varint(self.error_code)
                + encode_varint(len(self.reason))
                + self.reason
            )
        return (
            b"\x1c"
            + encode_varint(self.error_code)
            + encode_varint(self.frame_type)
            + encode_varint(len(self.reason))
            + self.reason
        )

    @property
    def is_ack_eliciting(self) -> bool:
        return False


def encode_frames(frames: Sequence[Frame]) -> bytes:
    """Serialize a sequence of frames into a packet payload."""
    return b"".join(frame.encode() for frame in frames)


def decode_frames(payload: bytes, ack_delay_exponent: int = 3) -> list[Frame]:
    """Parse a packet payload into frames.

    Unknown frame types raise :class:`FrameParseError` — the endpoints in
    this package only ever emit the types above, so an unknown type
    indicates corruption.
    """
    frames: list[Frame] = []
    offset = 0
    length = len(payload)
    while offset < length:
        frame_type = payload[offset]
        if frame_type == 0x00:
            run_start = offset
            while offset < length and payload[offset] == 0x00:
                offset += 1
            frames.append(PaddingFrame(length=offset - run_start))
        elif frame_type == 0x01:
            frames.append(PingFrame())
            offset += 1
        elif frame_type == 0x02:
            frame, offset = _decode_ack(payload, offset + 1, ack_delay_exponent)
            frames.append(frame)
        elif frame_type == 0x06:
            frame, offset = _decode_crypto(payload, offset + 1)
            frames.append(frame)
        elif 0x08 <= frame_type <= 0x0F:
            frame, offset = _decode_stream(payload, offset, frame_type)
            frames.append(frame)
        elif frame_type == 0x18:
            frame, offset = _decode_new_connection_id(payload, offset + 1)
            frames.append(frame)
        elif frame_type == 0x1E:
            frames.append(HandshakeDoneFrame())
            offset += 1
        elif frame_type in (0x1C, 0x1D):
            frame, offset = _decode_connection_close(payload, offset + 1, frame_type)
            frames.append(frame)
        else:
            raise FrameParseError(f"unknown frame type 0x{frame_type:02x} at {offset}")
    return frames


def decode_frame_fields(
    data: bytes, at: int = 0, ack_delay_exponent: int = 3, end: int | None = None
) -> tuple[list[tuple], bool]:
    """Decode the payload ``data[at:end]`` into plain fields.

    The endpoint reads a payload where it lies in the datagram — a
    short-header packet runs to the datagram's end (``end=None``), a
    long-header one to the end its ``Length`` field gives — and wants
    values, not frame objects.  Returns ``(items, ack_eliciting)`` with
    one tuple per frame the endpoint acts on, in payload order, its first
    element the frame type:

    * ACK: ``(0x02, largest, ack_delay_us, [(smallest, largest), ...])``,
      ranges descending;
    * STREAM: ``(0x08, stream_id, offset, data, fin)``;
    * CRYPTO: ``(0x06, offset, data)``;
    * NEW_CONNECTION_ID: ``(0x18, sequence_number, retire_prior_to,
      connection_id, stateless_reset_token)``;
    * HANDSHAKE_DONE: ``(0x1E,)``;
    * CONNECTION_CLOSE: ``(0x1C, error_code, frame_type, reason,
      is_application)``.

    PADDING and PING carry nothing to act on and yield no item; PING
    still makes the packet ack-eliciting.  No frame object is built.
    Accepts and rejects exactly the payloads ``decode_frames`` does
    (``tests/test_datapath.py`` holds the two against each other),
    including the rejections that live in the frame dataclasses: a first
    ACK range reaching below packet number 0, a NEW_CONNECTION_ID CID
    outside 1..20 bytes.
    """
    items: list[tuple] = []
    ack_eliciting = False
    if end is None:
        end = len(data)
    while at < end:
        frame_type = data[at]
        if 0x08 <= frame_type <= 0x0F:  # STREAM
            stream_id, at = decode_varint(data, at + 1)
            stream_offset = 0
            if frame_type & 0x04:
                stream_offset, at = decode_varint(data, at)
            if frame_type & 0x02:
                length, at = decode_varint(data, at)
                if at + length > end:
                    raise FrameParseError("STREAM frame data truncated")
            else:
                length = end - at
                if length < 0:
                    raise FrameParseError("STREAM frame header truncated")
            items.append(
                (0x08, stream_id, stream_offset, data[at : at + length], frame_type & 0x01 != 0)
            )
            at += length
            ack_eliciting = True
        elif frame_type == 0x02:  # ACK
            largest, at = decode_varint(data, at + 1)
            raw_delay, at = decode_varint(data, at)
            range_count, at = decode_varint(data, at)
            first_range, at = decode_varint(data, at)
            smallest = largest - first_range
            if smallest < 0:
                raise FrameParseError("first ACK range underflows packet number 0")
            ranges = [(smallest, largest)]
            for _ in range(range_count):
                gap, at = decode_varint(data, at)
                range_length, at = decode_varint(data, at)
                range_largest = smallest - gap - 2
                smallest = range_largest - range_length
                if smallest < 0:
                    raise FrameParseError("ACK range underflows packet number 0")
                ranges.append((smallest, range_largest))
            items.append((0x02, largest, raw_delay << ack_delay_exponent, ranges))
        elif frame_type == 0x00:  # PADDING run
            at += 1
            while at < end and data[at] == 0x00:
                at += 1
        elif frame_type == 0x01:  # PING
            at += 1
            ack_eliciting = True
        elif frame_type == 0x06:  # CRYPTO
            crypto_offset, at = decode_varint(data, at + 1)
            length, at = decode_varint(data, at)
            if at + length > end:
                raise FrameParseError("CRYPTO frame data truncated")
            items.append((0x06, crypto_offset, data[at : at + length]))
            at += length
            ack_eliciting = True
        elif frame_type == 0x18:  # NEW_CONNECTION_ID
            sequence_number, at = decode_varint(data, at + 1)
            retire_prior_to, at = decode_varint(data, at)
            if at >= end:
                raise FrameParseError("NEW_CONNECTION_ID truncated at CID length")
            cid_length = data[at]
            token_at = at + 1 + cid_length
            if token_at + 16 > end or not 1 <= cid_length <= 20:
                raise FrameParseError("NEW_CONNECTION_ID truncated or CID length invalid")
            items.append(
                (
                    0x18,
                    sequence_number,
                    retire_prior_to,
                    data[at + 1 : token_at],
                    data[token_at : token_at + 16],
                )
            )
            at = token_at + 16
            ack_eliciting = True
        elif frame_type == 0x1E:  # HANDSHAKE_DONE
            items.append((0x1E,))
            at += 1
            ack_eliciting = True
        elif frame_type in (0x1C, 0x1D):  # CONNECTION_CLOSE
            error_code, at = decode_varint(data, at + 1)
            inner_type = 0
            if frame_type == 0x1C:
                inner_type, at = decode_varint(data, at)
            length, at = decode_varint(data, at)
            if at + length > end:
                raise FrameParseError("CONNECTION_CLOSE reason truncated")
            items.append(
                (0x1C, error_code, inner_type, data[at : at + length], frame_type == 0x1D)
            )
            at += length
        else:
            raise FrameParseError(f"unknown frame type 0x{frame_type:02x} at {at}")
    if at > end:
        # A field read past ``end`` (into the next coalesced packet).
        raise FrameParseError("frame overruns the payload")
    return items, ack_eliciting


def _decode_ack(payload: bytes, offset: int, ack_delay_exponent: int) -> tuple[AckFrame, int]:
    largest, offset = decode_varint(payload, offset)
    raw_delay, offset = decode_varint(payload, offset)
    range_count, offset = decode_varint(payload, offset)
    first_range, offset = decode_varint(payload, offset)
    ranges = [AckRange(largest - first_range, largest)]
    previous_smallest = largest - first_range
    for _ in range(range_count):
        gap, offset = decode_varint(payload, offset)
        range_length, offset = decode_varint(payload, offset)
        range_largest = previous_smallest - gap - 2
        range_smallest = range_largest - range_length
        if range_smallest < 0:
            raise FrameParseError("ACK range underflows packet number 0")
        ranges.append(AckRange(range_smallest, range_largest))
        previous_smallest = range_smallest
    frame = AckFrame(
        largest_acknowledged=largest,
        ack_delay_us=raw_delay << ack_delay_exponent,
        ranges=tuple(ranges),
        ack_delay_exponent=ack_delay_exponent,
    )
    return frame, offset


def _decode_crypto(payload: bytes, offset: int) -> tuple[CryptoFrame, int]:
    data_offset, offset = decode_varint(payload, offset)
    data_length, offset = decode_varint(payload, offset)
    if offset + data_length > len(payload):
        raise FrameParseError("CRYPTO frame data truncated")
    data = payload[offset : offset + data_length]
    return CryptoFrame(offset=data_offset, data=data), offset + data_length


def _decode_stream(payload: bytes, offset: int, frame_type: int) -> tuple[StreamFrame, int]:
    has_offset = bool(frame_type & 0x04)
    has_length = bool(frame_type & 0x02)
    fin = bool(frame_type & 0x01)
    offset += 1
    stream_id, offset = decode_varint(payload, offset)
    data_offset = 0
    if has_offset:
        data_offset, offset = decode_varint(payload, offset)
    if has_length:
        data_length, offset = decode_varint(payload, offset)
    else:
        data_length = len(payload) - offset
    if offset + data_length > len(payload):
        raise FrameParseError("STREAM frame data truncated")
    data = payload[offset : offset + data_length]
    return (
        StreamFrame(stream_id=stream_id, offset=data_offset, data=data, fin=fin),
        offset + data_length,
    )


def _decode_new_connection_id(payload: bytes, offset: int) -> tuple[NewConnectionIdFrame, int]:
    sequence_number, offset = decode_varint(payload, offset)
    retire_prior_to, offset = decode_varint(payload, offset)
    if offset >= len(payload):
        raise FrameParseError("NEW_CONNECTION_ID truncated at CID length")
    cid_length = payload[offset]
    offset += 1
    if offset + cid_length + 16 > len(payload):
        raise FrameParseError("NEW_CONNECTION_ID truncated")
    cid = payload[offset : offset + cid_length]
    offset += cid_length
    token = payload[offset : offset + 16]
    offset += 16
    return (
        NewConnectionIdFrame(
            sequence_number=sequence_number,
            retire_prior_to=retire_prior_to,
            connection_id=cid,
            stateless_reset_token=token,
        ),
        offset,
    )


def _decode_connection_close(
    payload: bytes, offset: int, frame_type: int
) -> tuple[ConnectionCloseFrame, int]:
    error_code, offset = decode_varint(payload, offset)
    inner_type = 0
    if frame_type == 0x1C:
        inner_type, offset = decode_varint(payload, offset)
    reason_length, offset = decode_varint(payload, offset)
    if offset + reason_length > len(payload):
        raise FrameParseError("CONNECTION_CLOSE reason truncated")
    reason = payload[offset : offset + reason_length]
    offset += reason_length
    return (
        ConnectionCloseFrame(
            error_code=error_code,
            frame_type=inner_type,
            reason=reason,
            is_application=(frame_type == 0x1D),
        ),
        offset,
    )
