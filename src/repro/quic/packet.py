"""QUIC packet headers: byte-exact encoding and decoding.

The passive observer in this study sees *wire bytes*, not parsed
structures, so the header codec — the reference codec: observers and
endpoints read and write the same layouts as plain fields and are tested
against this module — implements the exact RFC 9000 layouts:

Short header (1-RTT; the only packets that carry the spin bit)::

    +-+-+-+-+-+-+-+-+
    |0|1|S|R|R|K|P P|   S = spin bit, K = key phase, PP = pn length - 1
    +-+-+-+-+-+-+-+-+
    | DCID (0..160) ...
    | Packet Number (8/16/24/32) ...
    | Protected Payload ...

Long header (Initial / 0-RTT / Handshake / Retry; never spins)::

    +-+-+-+-+-+-+-+-+
    |1|1|T T|X X X X|
    +-+-+-+-+-+-+-+-+
    | Version (32) | DCID Len (8) | DCID .. | SCID Len (8) | SCID ..
    | [type-specific fields] | Length | Packet Number | Payload ...

Encryption is *not* applied (see DESIGN.md Section 6): the spin bit and
every field the observer reads are unprotected in real QUIC as well, and
the analysis never looks at payload plaintext.  Reserved bits are
emitted as zero as the RFC requires post-header-protection.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from repro.quic.connection_id import ConnectionId
from repro.quic.packet_number import encode_packet_number
from repro.quic.varint import decode_varint, encode_varint

__all__ = [
    "HeaderParseError",
    "LongHeader",
    "LongPacketType",
    "PacketType",
    "ShortHeader",
    "VersionNegotiationHeader",
    "parse_header",
]

_FORM_BIT = 0x80
_FIXED_BIT = 0x40
_SPIN_BIT = 0x20
_RESERVED_MASK = 0x18
_RESERVED_SHIFT = 3
_KEY_PHASE_BIT = 0x04
_PN_LENGTH_MASK = 0x03
_LONG_TYPE_MASK = 0x30


class HeaderParseError(ValueError):
    """Raised when bytes cannot be parsed as a QUIC packet header."""


class LongPacketType(Enum):
    """The four long-header packet types of QUIC v1."""

    INITIAL = 0x0
    ZERO_RTT = 0x1
    HANDSHAKE = 0x2
    RETRY = 0x3


class PacketType(Enum):
    """Coarse packet classification used by endpoints and qlog."""

    INITIAL = "initial"
    ZERO_RTT = "0RTT"
    HANDSHAKE = "handshake"
    RETRY = "retry"
    ONE_RTT = "1RTT"
    VERSION_NEGOTIATION = "version_negotiation"


_LONG_TYPE_TO_PACKET_TYPE = {
    LongPacketType.INITIAL: PacketType.INITIAL,
    LongPacketType.ZERO_RTT: PacketType.ZERO_RTT,
    LongPacketType.HANDSHAKE: PacketType.HANDSHAKE,
    LongPacketType.RETRY: PacketType.RETRY,
}


@dataclass
class ShortHeader:
    """A parsed or to-be-encoded 1-RTT (short) packet header.

    ``vec`` occupies the two reserved bits.  In RFC-compliant QUIC these
    are always zero (post header protection); De Vaere et al.'s original
    three-bit spin proposal used them for the Valid Edge Counter, which
    this package implements as an optional extension
    (:mod:`repro.core.vec`).
    """

    destination_cid: ConnectionId
    packet_number: int
    spin_bit: bool = False
    key_phase: bool = False
    vec: int = 0
    largest_acked: int | None = None
    #: Filled in by :func:`parse_header`: the truncated on-wire packet
    #: number and its length; encoding recomputes them.
    pn_length: int = field(default=0)

    packet_type: PacketType = field(default=PacketType.ONE_RTT, init=False)

    def __post_init__(self) -> None:
        if not 0 <= self.vec <= 3:
            raise ValueError(f"VEC must be a 2-bit value, got {self.vec}")

    def encode(self) -> bytes:
        """Serialize the header (first byte through packet number)."""
        pn_bytes = encode_packet_number(self.packet_number, self.largest_acked)
        first = _FIXED_BIT | (len(pn_bytes) - 1) | (self.vec << _RESERVED_SHIFT)
        if self.spin_bit:
            first |= _SPIN_BIT
        if self.key_phase:
            first |= _KEY_PHASE_BIT
        # Short headers are encoded once per simulated packet, so this
        # is the hottest codec path; a single bytearray avoids the
        # intermediate bytes objects of chained concatenation.
        buf = bytearray((first,))
        buf += self.destination_cid.value
        buf += pn_bytes
        return bytes(buf)


@dataclass
class LongHeader:
    """A parsed or to-be-encoded long packet header."""

    long_type: LongPacketType
    version: int
    destination_cid: ConnectionId
    source_cid: ConnectionId
    packet_number: int = 0
    token: bytes = b""
    payload_length: int = 0
    largest_acked: int | None = None
    pn_length: int = field(default=0)

    @property
    def packet_type(self) -> PacketType:
        return _LONG_TYPE_TO_PACKET_TYPE[self.long_type]

    def encode(self) -> bytes:
        """Serialize the header (first byte through packet number)."""
        pn_bytes = encode_packet_number(self.packet_number, self.largest_acked)
        first = _FORM_BIT | _FIXED_BIT | (self.long_type.value << 4) | (len(pn_bytes) - 1)
        parts = [
            bytes((first,)),
            self.version.to_bytes(4, "big"),
            bytes((len(self.destination_cid),)),
            self.destination_cid.value,
            bytes((len(self.source_cid),)),
            self.source_cid.value,
        ]
        if self.long_type is LongPacketType.INITIAL:
            parts.append(encode_varint(len(self.token)))
            parts.append(self.token)
        if self.long_type is LongPacketType.RETRY:
            # The retry token runs to the end of the packet.
            parts.append(self.token)
        else:
            # Length covers packet number + payload (RFC 9000 17.2).
            parts.append(encode_varint(len(pn_bytes) + self.payload_length))
            parts.append(pn_bytes)
        return b"".join(parts)


@dataclass
class VersionNegotiationHeader:
    """A Version Negotiation packet (RFC 9000 Section 17.2.1).

    Sent by a server that does not support the version of a received
    Initial; carries the server's supported version list.  It has no
    packet number, no frames, and always occupies a whole datagram.
    """

    destination_cid: ConnectionId
    source_cid: ConnectionId
    supported_versions: tuple[int, ...]

    packet_type: PacketType = field(default=PacketType.VERSION_NEGOTIATION, init=False)

    def __post_init__(self) -> None:
        if not self.supported_versions:
            raise ValueError("a VN packet must list at least one version")

    def encode(self) -> bytes:
        parts = [
            bytes((_FORM_BIT | _FIXED_BIT,)),  # unused bits; fixed set
            (0).to_bytes(4, "big"),  # version 0 marks negotiation
            bytes((len(self.destination_cid),)),
            self.destination_cid.value,
            bytes((len(self.source_cid),)),
            self.source_cid.value,
        ]
        for version in self.supported_versions:
            parts.append(int(version).to_bytes(4, "big"))
        return b"".join(parts)


def parse_header(
    data: bytes, short_dcid_length: int
) -> tuple[ShortHeader | LongHeader | VersionNegotiationHeader, int]:
    """Parse a packet header from wire bytes.

    Returns ``(header, payload_offset)``.  ``short_dcid_length`` is the
    connection-ID length a deployment uses for short headers — passive
    observers must know it out of band, exactly as on-path spin-bit
    observers do in practice.

    The returned packet numbers are the *truncated* on-wire values;
    callers reconstruct full numbers via
    :func:`repro.quic.packet_number.decode_packet_number` with their own
    per-direction state.
    """
    if not data:
        raise HeaderParseError("empty packet")
    first = data[0]
    if not first & _FIXED_BIT:
        raise HeaderParseError("fixed bit is zero (not a QUIC v1/draft packet)")
    if first & _FORM_BIT:
        return _parse_long_header(data)
    return _parse_short_header(data, short_dcid_length)


def _parse_short_header(data: bytes, dcid_length: int) -> tuple[ShortHeader, int]:
    first = data[0]
    pn_length = (first & _PN_LENGTH_MASK) + 1
    offset = 1
    if len(data) < offset + dcid_length + pn_length:
        raise HeaderParseError("short header truncated")
    dcid = ConnectionId(data[offset : offset + dcid_length])
    offset += dcid_length
    truncated_pn = int.from_bytes(data[offset : offset + pn_length], "big")
    offset += pn_length
    header = ShortHeader(
        destination_cid=dcid,
        packet_number=truncated_pn,
        spin_bit=bool(first & _SPIN_BIT),
        key_phase=bool(first & _KEY_PHASE_BIT),
        vec=(first & _RESERVED_MASK) >> _RESERVED_SHIFT,
    )
    header.pn_length = pn_length
    return header, offset


def _parse_long_header(data: bytes) -> tuple[LongHeader | VersionNegotiationHeader, int]:
    first = data[0]
    if len(data) < 7:
        raise HeaderParseError("long header truncated before version")
    version = int.from_bytes(data[1:5], "big")
    if version == 0:
        return _parse_version_negotiation(data)
    long_type = LongPacketType((first & _LONG_TYPE_MASK) >> 4)
    offset = 5
    dcid_len = data[offset]
    offset += 1
    if dcid_len > ConnectionId.MAX_LENGTH or len(data) < offset + dcid_len + 1:
        raise HeaderParseError("long header DCID truncated")
    dcid = ConnectionId(data[offset : offset + dcid_len])
    offset += dcid_len
    scid_len = data[offset]
    offset += 1
    if scid_len > ConnectionId.MAX_LENGTH or len(data) < offset + scid_len:
        raise HeaderParseError("long header SCID truncated")
    scid = ConnectionId(data[offset : offset + scid_len])
    offset += scid_len

    token = b""
    if long_type is LongPacketType.INITIAL:
        token_length, offset = decode_varint(data, offset)
        if len(data) < offset + token_length:
            raise HeaderParseError("initial token truncated")
        token = data[offset : offset + token_length]
        offset += token_length

    if long_type is LongPacketType.RETRY:
        # A Retry carries its token (the integrity tag is not modelled)
        # in the remainder of the datagram; it is never coalesced.
        token = data[offset:]
        offset = len(data)
    header = LongHeader(
        long_type=long_type,
        version=version,
        destination_cid=dcid,
        source_cid=scid,
        token=token,
    )
    if long_type is LongPacketType.RETRY:
        return header, offset

    length, offset = decode_varint(data, offset)
    pn_length = (first & _PN_LENGTH_MASK) + 1
    if len(data) < offset + pn_length:
        raise HeaderParseError("long header packet number truncated")
    header.packet_number = int.from_bytes(data[offset : offset + pn_length], "big")
    header.pn_length = pn_length
    header.payload_length = length - pn_length
    offset += pn_length
    return header, offset


def _parse_version_negotiation(data: bytes) -> tuple[VersionNegotiationHeader, int]:
    offset = 5
    if offset >= len(data):
        raise HeaderParseError("VN packet truncated at DCID length")
    dcid_len = data[offset]
    offset += 1
    if dcid_len > ConnectionId.MAX_LENGTH or len(data) < offset + dcid_len + 1:
        raise HeaderParseError("VN packet DCID truncated")
    dcid = ConnectionId(data[offset : offset + dcid_len])
    offset += dcid_len
    scid_len = data[offset]
    offset += 1
    if scid_len > ConnectionId.MAX_LENGTH or len(data) < offset + scid_len:
        raise HeaderParseError("VN packet SCID truncated")
    scid = ConnectionId(data[offset : offset + scid_len])
    offset += scid_len
    remainder = data[offset:]
    if not remainder or len(remainder) % 4 != 0:
        raise HeaderParseError("VN version list malformed")
    versions = tuple(
        int.from_bytes(remainder[i : i + 4], "big") for i in range(0, len(remainder), 4)
    )
    return (
        VersionNegotiationHeader(
            destination_cid=dcid, source_cid=scid, supported_versions=versions
        ),
        len(data),
    )
