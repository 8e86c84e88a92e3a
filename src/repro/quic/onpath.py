"""Reading a datagram where it lies: the one parse graph every packet enters.

The paper's observer reads three things from a datagram — the spin bit
in the first byte, the destination connection ID, the truncated packet
number — and "Tracking the QUIC Spin Bit on Tofino" (PAPERS.md) shows
that this is a fixed, tiny amount of work per packet.  The reference
codec (:func:`~repro.quic.datagram.decode_datagram`) instead builds a
header object and a frame object list per packet; nothing in production
runs it, observers and endpoints both read with this module.

:func:`walk_datagram` validates: it steps over the coalesced packets of
a datagram using only the first byte, the connection-ID lengths and the
long-header ``Length`` field, and checks every payload with
:func:`check_frames` without materialising a frame.  It accepts and
rejects exactly the datagrams ``decode_datagram`` does
(``tests/test_onpath.py`` holds the two against each other), so "parse
error" means the same thing on the path, at the endpoints and in the
reference.  :func:`short_header_fields` and :func:`long_header_fields`
then read the header fields of a packet the walk has accepted, and
:class:`DirectionState` is what an observer keeps per direction to turn
a truncated packet number into a full one.
"""

from __future__ import annotations

from repro.quic.connection_id import ConnectionId
from repro.quic.frames import FrameParseError
from repro.quic.packet import HeaderParseError, PacketType
from repro.quic.packet_number import decode_packet_number
from repro.quic.varint import VarintError, decode_varint

__all__ = [
    "DirectionState",
    "check_frames",
    "long_header_fields",
    "short_header_fields",
    "walk_datagram",
]

_MAX_CID_LENGTH = ConnectionId.MAX_LENGTH
#: The long packet type bits (``first & 0x30``), in wire order.
_LONG_PACKET_TYPES = (
    PacketType.INITIAL,
    PacketType.ZERO_RTT,
    PacketType.HANDSHAKE,
    PacketType.RETRY,
)


def walk_datagram(data: bytes, short_dcid_length: int) -> tuple[int, int]:
    """Validate ``data`` and locate its short-header packet.

    Returns ``(packets, short_at)``: the number of coalesced packets and
    the offset of the short-header packet's first byte, or ``-1`` when
    the datagram has none.  There is at most one — a short-header packet
    has no length field, so it extends to the end of the datagram
    (RFC 9000 Section 12.2).  Raises :class:`HeaderParseError` or
    :class:`FrameParseError` (both ``ValueError``) on malformed input,
    in a later coalesced packet as much as in the first.
    """
    size = len(data)
    at = 0
    packets = 0
    while at < size:
        first = data[at]
        if not first & 0x40:
            raise HeaderParseError("fixed bit is zero (not a QUIC v1/draft packet)")
        packets += 1
        if not first & 0x80:
            payload_at = at + 2 + short_dcid_length + (first & 0x03)
            if payload_at > size:
                raise HeaderParseError("short header truncated")
            check_frames(data, payload_at, size)
            return packets, at
        if size - at < 7:
            raise HeaderParseError("long header truncated before version")
        cursor = at + 5
        dcid_length = data[cursor]
        cursor += 1 + dcid_length
        if dcid_length > _MAX_CID_LENGTH or cursor >= size:
            raise HeaderParseError("long header DCID truncated")
        scid_length = data[cursor]
        cursor += 1 + scid_length
        if scid_length > _MAX_CID_LENGTH or cursor > size:
            raise HeaderParseError("long header SCID truncated")
        if not (data[at + 1] | data[at + 2] | data[at + 3] | data[at + 4]):
            # Version 0: Version Negotiation, never coalesced.
            if cursor == size or (size - cursor) % 4:
                raise HeaderParseError("VN version list malformed")
            return packets, -1
        long_type = first & 0x30
        if long_type == 0x30:
            return packets, -1  # Retry: its token runs to the end
        if long_type == 0x00:
            token_length, cursor = _varint(data, cursor, size)
            cursor += token_length
            if cursor > size:
                raise HeaderParseError("initial token truncated")
        length, cursor = _varint(data, cursor, size)
        payload_at = cursor + (first & 0x03) + 1
        if payload_at > size:
            raise HeaderParseError("long header packet number truncated")
        end = cursor + length
        if end < payload_at or end > size:
            raise HeaderParseError("long header length field exceeds datagram")
        check_frames(data, payload_at, end)
        at = end
    return packets, -1


def short_header_fields(
    data: bytes, short_at: int, short_dcid_length: int
) -> tuple[bool, int, bytes, int, int]:
    """The fields of the short header :func:`walk_datagram` located.

    Returns ``(spin_bit, vec, dcid, truncated_pn, pn_length)``; the
    packet number is the on-wire value, to be reconstructed against the
    caller's own per-direction state.
    """
    first = data[short_at]
    pn_at = short_at + 1 + short_dcid_length
    pn_length = (first & 0x03) + 1
    return (
        first & 0x20 != 0,
        (first & 0x18) >> 3,
        data[short_at + 1 : pn_at],
        int.from_bytes(data[pn_at : pn_at + pn_length], "big"),
        pn_length,
    )


class DirectionState:
    """One direction of a flow as an on-path observer holds it: the
    largest packet number seen so far, against which the truncated
    on-wire values are reconstructed (RFC 9000 Appendix A.3)."""

    __slots__ = ("largest_pn",)

    def __init__(self) -> None:
        self.largest_pn: int | None = None

    def read_short(
        self, data: bytes, short_at: int, short_dcid_length: int
    ) -> tuple[bool, int, bytes, int, bool]:
        """Read the short header :func:`walk_datagram` located, against
        this direction.

        Returns ``(spin_bit, vec, dcid, packet_number, is_new_largest)``
        with the full packet number, and advances the direction when it
        is the largest yet.
        """
        spin_bit, vec, dcid, truncated_pn, pn_length = short_header_fields(
            data, short_at, short_dcid_length
        )
        packet_number = decode_packet_number(truncated_pn, pn_length, self.largest_pn)
        is_new_largest = self.largest_pn is None or packet_number > self.largest_pn
        if is_new_largest:
            self.largest_pn = packet_number
        return spin_bit, vec, dcid, packet_number, is_new_largest


def long_header_fields(
    data: bytes, at: int = 0
) -> tuple[PacketType, int, bytes, bytes, bytes, tuple[int, ...], int, int, int, int]:
    """The fields of the long-header packet at ``data[at:]``.

    Straight-line: :func:`walk_datagram` has bounds-checked the datagram,
    nothing is re-checked here.  Returns ``(packet_type, version, dcid,
    scid, token, supported_versions, truncated_pn, pn_length, payload_at,
    end)``; the payload is ``data[payload_at:end]`` and the next coalesced
    packet starts at ``end``.  ``token`` is an Initial's or a Retry's;
    ``supported_versions`` is non-empty for Version Negotiation only.
    Those two run to the end of the datagram and have neither packet
    number nor payload (``payload_at == end == len(data)``).
    """
    first = data[at]
    version = int.from_bytes(data[at + 1 : at + 5], "big")
    scid_length_at = at + 6 + data[at + 5]
    dcid = data[at + 6 : scid_length_at]
    cursor = scid_length_at + 1 + data[scid_length_at]
    scid = data[scid_length_at + 1 : cursor]
    size = len(data)
    if not version:
        versions = tuple(
            int.from_bytes(data[index : index + 4], "big")
            for index in range(cursor, size, 4)
        )
        return PacketType.VERSION_NEGOTIATION, 0, dcid, scid, b"", versions, 0, 0, size, size
    packet_type = _LONG_PACKET_TYPES[(first & 0x30) >> 4]
    if packet_type is PacketType.RETRY:
        return packet_type, version, dcid, scid, data[cursor:], (), 0, 0, size, size
    token = b""
    if packet_type is PacketType.INITIAL:
        token_length, cursor = decode_varint(data, cursor)
        token = data[cursor : cursor + token_length]
        cursor += token_length
    length, cursor = decode_varint(data, cursor)
    pn_length = (first & 0x03) + 1
    payload_at = cursor + pn_length
    return (
        packet_type,
        version,
        dcid,
        scid,
        token,
        (),
        int.from_bytes(data[cursor:payload_at], "big"),
        pn_length,
        payload_at,
        cursor + length,
    )


def check_frames(data: bytes, at: int = 0, end: int | None = None) -> None:
    """Raise ``ValueError`` iff ``decode_frames`` would reject ``data[at:end]``.

    Checks a packet payload in place: no frame object is built and the
    payload is not sliced out.  The rejections include the two that live
    in the frame dataclasses rather than in ``decode_frames`` itself: an
    ACK whose first range reaches below packet number 0, and a
    NEW_CONNECTION_ID whose CID is not 1..20 bytes long.  Raises
    :class:`FrameParseError`, or :class:`VarintError` for a truncated
    integer, as ``decode_frames`` does.
    """
    if end is None:
        end = len(data)
    # Integers whose value does not matter are stepped over by their
    # length prefix without a bounds test of their own: ``at`` only
    # grows, so one that overruns ``end`` is caught by the next
    # ``_varint`` or ``at > end`` test, and one that overruns the
    # datagram itself raises the IndexError converted below.
    try:
        while at < end:
            frame_type = data[at]
            if 0x08 <= frame_type <= 0x0F:  # STREAM
                at += 1
                at += 1 << (data[at] >> 6)
                if frame_type & 0x04:
                    at += 1 << (data[at] >> 6)
                if frame_type & 0x02:
                    # The length of nearly every STREAM frame is a one-
                    # or two-byte varint: read in line, both bytes in bounds.
                    if at + 1 < end and (prefix := data[at]) < 0x80:
                        if prefix < 0x40:
                            at += 1 + prefix
                        else:
                            at += 2 + ((prefix & 0x3F) << 8 | data[at + 1])
                    else:
                        length, at = _varint(data, at, end)
                        at += length
                    if at > end:
                        raise FrameParseError("STREAM frame data truncated")
                elif at > end:
                    raise FrameParseError("STREAM frame header truncated")
                else:
                    at = end
            elif frame_type == 0x00:  # PADDING run
                at += 1
                while at < end and data[at] == 0x00:
                    at += 1
            elif frame_type == 0x01 or frame_type == 0x1E:  # PING, HANDSHAKE_DONE
                at += 1
            elif frame_type == 0x02:  # ACK
                largest, at = _varint(data, at + 1, end)
                at += 1 << (data[at] >> 6)  # delay
                range_count, at = _varint(data, at, end)
                first_range, at = _varint(data, at, end)
                smallest = largest - first_range
                if smallest < 0:
                    raise FrameParseError("first ACK range underflows packet number 0")
                for _ in range(range_count):
                    gap, at = _varint(data, at, end)
                    range_length, at = _varint(data, at, end)
                    smallest -= gap + 2 + range_length
                    if smallest < 0:
                        raise FrameParseError("ACK range underflows packet number 0")
            elif frame_type == 0x06:  # CRYPTO
                at += 1
                at += 1 << (data[at] >> 6)
                length, at = _varint(data, at, end)
                at += length
                if at > end:
                    raise FrameParseError("CRYPTO frame data truncated")
            elif frame_type == 0x18:  # NEW_CONNECTION_ID
                at += 1
                at += 1 << (data[at] >> 6)
                at += 1 << (data[at] >> 6)
                if at >= end:
                    raise FrameParseError("NEW_CONNECTION_ID truncated at CID length")
                cid_length = data[at]
                at += 1 + cid_length + 16
                if at > end or not 1 <= cid_length <= _MAX_CID_LENGTH:
                    raise FrameParseError("NEW_CONNECTION_ID truncated or CID length invalid")
            elif frame_type == 0x1C or frame_type == 0x1D:  # CONNECTION_CLOSE
                at += 1
                at += 1 << (data[at] >> 6)
                if frame_type == 0x1C:
                    at += 1 << (data[at] >> 6)
                length, at = _varint(data, at, end)
                at += length
                if at > end:
                    raise FrameParseError("CONNECTION_CLOSE reason truncated")
            else:
                raise FrameParseError(f"unknown frame type 0x{frame_type:02x} at {at}")
    except IndexError:
        raise FrameParseError("frame truncated") from None


def _varint(data: bytes, at: int, end: int) -> tuple[int, int]:
    """``decode_varint`` bounded by ``end`` rather than by ``len(data)``."""
    if at >= end:
        raise VarintError("varint truncated: no bytes available")
    first = data[at]
    length = 1 << (first >> 6)
    stop = at + length
    if stop > end:
        raise VarintError(f"varint truncated: need {length} bytes, have {end - at}")
    if length == 1:
        return first, stop
    return int.from_bytes(data[at:stop], "big") & ((1 << (8 * length - 2)) - 1), stop
