"""Datagram assembly: packets into UDP datagrams and back.

QUIC coalesces multiple long-header packets into one datagram during the
handshake (RFC 9000 Section 12.2); the long-header ``Length`` field
delimits them and a short-header packet, if present, always comes last
and extends to the end of the datagram.  This is the reference codec:
no production path runs it.  Observers and endpoints delimit packets
the same way but read fields where they lie (:mod:`repro.quic.onpath`),
accepting and rejecting exactly the datagrams this module does, and the
tests hold them to it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.quic.frames import Frame, decode_frames, encode_frames
from repro.quic.packet import (
    HeaderParseError,
    LongHeader,
    LongPacketType,
    ShortHeader,
    VersionNegotiationHeader,
    parse_header,
)

__all__ = ["ParsedPacket", "QuicPacket", "decode_datagram", "encode_datagram"]


@dataclass
class QuicPacket:
    """A packet ready for encoding: header plus plaintext frames."""

    header: ShortHeader | LongHeader
    frames: Sequence[Frame] = field(default_factory=tuple)

    def encode(self) -> bytes:
        """Serialize header and payload into wire bytes."""
        payload = encode_frames(self.frames)
        if isinstance(self.header, LongHeader):
            self.header.payload_length = len(payload)
        return self.header.encode() + payload

    @property
    def is_ack_eliciting(self) -> bool:
        """A packet elicits an ACK if any of its frames does."""
        return any(frame.is_ack_eliciting for frame in self.frames)


@dataclass
class ParsedPacket:
    """A packet recovered from wire bytes.

    ``header.packet_number`` still holds the *truncated* value; the
    receiving endpoint reconstructs the full number against its
    per-space state.  ``wire_length`` is the packet's size within the
    datagram (headers included), which qlog reports as ``raw.length``.
    """

    header: ShortHeader | LongHeader
    frames: list[Frame]
    wire_length: int


def encode_datagram(packets: Sequence[QuicPacket]) -> bytes:
    """Coalesce ``packets`` into one datagram.

    The caller must order packets per RFC 9000 12.2 (Initial before
    Handshake before 1-RTT); a short-header packet may only be last.
    """
    parts = []
    for index, packet in enumerate(packets):
        if isinstance(packet.header, ShortHeader) and index != len(packets) - 1:
            raise ValueError("a short-header packet must be the last in a datagram")
        parts.append(packet.encode())
    return b"".join(parts)


def decode_datagram(
    data: bytes, short_dcid_length: int, ack_delay_exponent: int = 3
) -> list[ParsedPacket]:
    """Split a datagram into its coalesced packets and parse each.

    Raises :class:`HeaderParseError` on malformed input; a datagram with
    trailing garbage that does not parse as a packet is rejected rather
    than silently truncated.
    """
    packets: list[ParsedPacket] = []
    offset = 0
    while offset < len(data):
        header, header_length = parse_header(data[offset:], short_dcid_length)
        if isinstance(header, VersionNegotiationHeader) or (
            isinstance(header, LongHeader)
            and header.long_type is LongPacketType.RETRY
        ):
            # VN and Retry packets have no frames and consume the rest
            # of the datagram (they are never coalesced).
            packets.append(
                ParsedPacket(
                    header=header, frames=[], wire_length=len(data) - offset
                )
            )
            break
        if isinstance(header, LongHeader):
            payload_length = header.payload_length
            end = offset + header_length + payload_length
            if payload_length < 0 or end > len(data):
                raise HeaderParseError("long header length field exceeds datagram")
        else:
            end = len(data)
        payload = data[offset + header_length : end]
        frames = decode_frames(payload, ack_delay_exponent)
        packets.append(
            ParsedPacket(header=header, frames=frames, wire_length=end - offset)
        )
        offset = end
    return packets
