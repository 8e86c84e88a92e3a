"""Header-only reading of a datagram: what an on-path observer needs.

The paper's observer reads three things from a datagram — the spin bit
in the first byte, the destination connection ID, the truncated packet
number — and "Tracking the QUIC Spin Bit on Tofino" (PAPERS.md) shows
that this is a fixed, tiny amount of work per packet.  The endpoint
codec (:func:`~repro.quic.datagram.decode_datagram`) instead builds a
header object and a frame object list per packet, none of which an
observer looks at.

:func:`walk_datagram` is the observer's reader: it steps over the
coalesced packets of a datagram using only the first byte, the
connection-ID lengths and the long-header ``Length`` field, and checks
every payload with :func:`check_frames` without materialising a frame.
It accepts and rejects exactly the datagrams ``decode_datagram`` does
(``tests/test_onpath.py`` holds the two against each other), so "parse
error" means the same thing on the path as at the endpoints.
"""

from __future__ import annotations

from repro.quic.connection_id import ConnectionId
from repro.quic.frames import FrameParseError
from repro.quic.packet import HeaderParseError
from repro.quic.varint import VarintError

__all__ = ["check_frames", "short_header_fields", "walk_datagram"]

_MAX_CID_LENGTH = ConnectionId.MAX_LENGTH


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
