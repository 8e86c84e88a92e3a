"""Byte-level QUIC substrate: wire format, endpoints, RTT estimation.

This subpackage replaces the quic-go stack the paper's scanner used.  It
implements the RFC 9000 wire encodings (varints, long/short headers,
frames, packet-number truncation), an RFC 9002 RTT estimator, and a
simulated endpoint that performs a three-space handshake and carries
application streams — with the latency spin bit on every 1-RTT packet.
"""

from repro.quic.connection import ConnectionConfig, PacketSpace, QuicEndpoint
from repro.quic.connection_id import ConnectionId
from repro.quic.datagram import ParsedPacket, QuicPacket, decode_datagram, encode_datagram
from repro.quic.frames import (
    AckFrame,
    AckRange,
    ConnectionCloseFrame,
    CryptoFrame,
    Frame,
    HandshakeDoneFrame,
    PaddingFrame,
    PingFrame,
    StreamFrame,
    decode_frames,
    encode_frames,
)
from repro.quic.onpath import check_frames, short_header_fields, walk_datagram
from repro.quic.packet import (
    HeaderParseError,
    LongHeader,
    LongPacketType,
    PacketType,
    ShortHeader,
    VersionNegotiationHeader,
    parse_header,
)
from repro.quic.packet_number import (
    decode_packet_number,
    encode_packet_number,
    packet_number_length,
)
from repro.quic.rtt import RttEstimator, RttSample
from repro.quic.transport_params import TransportParameters, decode_transport_parameters
from repro.quic.varint import decode_varint, encode_varint
from repro.quic.version import SUPPORTED_VERSIONS, QuicVersion, is_spin_capable_version

__all__ = [
    "AckFrame",
    "AckRange",
    "ConnectionCloseFrame",
    "ConnectionConfig",
    "ConnectionId",
    "CryptoFrame",
    "Frame",
    "HandshakeDoneFrame",
    "HeaderParseError",
    "LongHeader",
    "LongPacketType",
    "PacketSpace",
    "PacketType",
    "PaddingFrame",
    "ParsedPacket",
    "PingFrame",
    "QuicEndpoint",
    "QuicPacket",
    "QuicVersion",
    "RttEstimator",
    "RttSample",
    "SUPPORTED_VERSIONS",
    "ShortHeader",
    "StreamFrame",
    "TransportParameters",
    "VersionNegotiationHeader",
    "check_frames",
    "decode_datagram",
    "decode_frames",
    "decode_packet_number",
    "decode_transport_parameters",
    "decode_varint",
    "encode_datagram",
    "encode_frames",
    "encode_packet_number",
    "encode_varint",
    "is_spin_capable_version",
    "packet_number_length",
    "parse_header",
    "short_header_fields",
    "walk_datagram",
]
