"""A minimal TCP-with-spin-signal flow class for mixed-transport taps.

Kunze et al.'s measurement-bit work (PAPERS.md) frames the spin bit as
one deployment of a transport-agnostic idea; the original three-bits
patches carried the same latency square wave in TCP's reserved header
bits.  This module gives the traffic multiplexer a second transport so
the tap stream is genuinely mixed: segments that are *not* QUIC (their
first byte — the source-port high byte — has the QUIC form and fixed
bits clear, so the flow table's first-byte dispatch never walks them as
QUIC) yet still carry a spin signal an aware observer could read.
:func:`is_tcp_shaped` is what "TCP-shaped" means, once: the table files
a datagram as TCP by it, and :func:`decode_tcp_segment` accepts exactly
what it accepts.

The flow model is deliberately simple — a downlink segment train whose
spin value flips once per RTT, the observable ground truth of a
client/server echo loop — because its monitor-side job is
classification robustness, not TCP fidelity: the flow table must file
these datagrams under ``transport_mix["tcp"]`` instead of crashing or
polluting QUIC flow state.

Wire layout (RFC 793 shape, 20-byte header)::

    0-1  source port     2-3  destination port
    4-7  sequence number 8-11 acknowledgment number
    12   data offset / reserved   <-- spin signal lives here
    13   flags           14-15 window
    16-17 checksum       18-19 urgent pointer

Byte 12 is ``(5 << 4) | spin``: data offset 5 words, spin in the
lowest reserved bit — exactly where the TCP spin patches put it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, NamedTuple

from repro.netsim.events import Simulator

__all__ = [
    "TCP_HEADER_BYTES",
    "TcpFlowSpec",
    "TcpSegment",
    "decode_tcp_segment",
    "draw_tcp_flow_spec",
    "encode_tcp_segment",
    "is_tcp_shaped",
    "schedule_tcp_flow",
]

TCP_HEADER_BYTES = 20

_FLAG_ACK = 0x10
#: QUIC long/short form and fixed bits; a first byte with both clear
#: cannot be mistaken for a QUIC v1 packet (the flow table's test, too).
_QUIC_FORM_OR_FIXED = 0xC0


class TcpSegment(NamedTuple):
    """One decoded TCP-shaped segment (header fields we model)."""

    source_port: int
    destination_port: int
    sequence_number: int
    ack_number: int
    spin: bool
    flags: int
    payload_length: int


def encode_tcp_segment(segment: TcpSegment) -> bytes:
    """Serialize ``segment`` (header plus an opaque ``0x78`` payload)."""
    if not 0 <= segment.source_port <= 0xFFFF:
        raise ValueError(f"invalid source port: {segment.source_port}")
    if segment.source_port >> 8 & _QUIC_FORM_OR_FIXED:
        # The tap discriminates transports by the first wire byte; a
        # source port whose high byte looks like a QUIC header would
        # defeat the whole mixed-transport exercise.
        raise ValueError(
            f"source port {segment.source_port} is QUIC-ambiguous on the wire"
        )
    header = bytearray(TCP_HEADER_BYTES)
    header[0:2] = segment.source_port.to_bytes(2, "big")
    header[2:4] = segment.destination_port.to_bytes(2, "big")
    header[4:8] = (segment.sequence_number & 0xFFFFFFFF).to_bytes(4, "big")
    header[8:12] = (segment.ack_number & 0xFFFFFFFF).to_bytes(4, "big")
    header[12] = (5 << 4) | (1 if segment.spin else 0)
    header[13] = segment.flags
    header[14:16] = (65_535).to_bytes(2, "big")
    return bytes(header) + b"\x78" * segment.payload_length


def is_tcp_shaped(data: bytes) -> bool:
    """Whether ``data`` has a TCP header's shape — at least 20 bytes, a
    data offset (byte 12's high nibble) of at least 5 words — read in
    place, no object built (the TCP counterpart of ``check_frames``)."""
    return len(data) >= TCP_HEADER_BYTES and data[12] >> 4 >= 5


def decode_tcp_segment(data: bytes) -> TcpSegment:
    """Parse a segment produced by :func:`encode_tcp_segment`.

    Raises :class:`ValueError` on anything :func:`is_tcp_shaped` refuses
    (too short, impossible data offset) so callers can treat failure as
    "unparseable", the third transport class.
    """
    if not is_tcp_shaped(data):
        raise ValueError(f"not a TCP header: {data[:TCP_HEADER_BYTES].hex()}")
    return TcpSegment(
        source_port=int.from_bytes(data[0:2], "big"),
        destination_port=int.from_bytes(data[2:4], "big"),
        sequence_number=int.from_bytes(data[4:8], "big"),
        ack_number=int.from_bytes(data[8:12], "big"),
        spin=bool(data[12] & 0x01),
        flags=data[13],
        payload_length=len(data) - TCP_HEADER_BYTES,
    )


@dataclass(frozen=True)
class TcpFlowSpec:
    """Everything needed to (re-)generate one TCP flow's downlink train."""

    index: int
    start_ms: float
    rtt_ms: float
    duration_ms: float
    segment_interval_ms: float
    payload_bytes: int
    server_port: int = 443

    def __post_init__(self) -> None:
        if self.rtt_ms <= 0 or self.segment_interval_ms <= 0:
            raise ValueError("rtt_ms and segment_interval_ms must be positive")
        if self.duration_ms < 0:
            raise ValueError("duration_ms must be non-negative")


def draw_tcp_flow_spec(
    rng: random.Random, index: int, arrival_window_ms: float
) -> TcpFlowSpec:
    """Draw flow ``index``'s shape from its own dedicated RNG stream."""
    return TcpFlowSpec(
        index=index,
        start_ms=rng.random() * arrival_window_ms,
        rtt_ms=rng.uniform(10.0, 120.0),
        duration_ms=rng.uniform(800.0, 2_500.0),
        segment_interval_ms=rng.uniform(4.0, 15.0),
        payload_bytes=rng.randrange(0, 1_200),
    )


def schedule_tcp_flow(
    simulator: Simulator,
    spec: TcpFlowSpec,
    client_port: int,
    emit: Callable[[float, bytes], None],
) -> int:
    """Schedule ``spec``'s downlink segments; returns the segment count.

    Each segment's spin value is the ground-truth square wave of a
    spinning echo loop — it flips every ``rtt_ms`` after flow start —
    and its sequence number advances by the payload size, so an aware
    observer could recover both ordering and RTT.
    """
    count = max(1, int(spec.duration_ms / spec.segment_interval_ms))
    sequence = 1
    for step in range(count):
        offset_ms = step * spec.segment_interval_ms
        spin = bool(int(offset_ms / spec.rtt_ms) % 2)
        segment = TcpSegment(
            source_port=spec.server_port,
            destination_port=client_port,
            sequence_number=sequence,
            ack_number=step + 1,
            spin=spin,
            flags=_FLAG_ACK,
            payload_length=spec.payload_bytes,
        )
        wire = encode_tcp_segment(segment)
        sequence += max(1, spec.payload_bytes)
        simulator.schedule_at(
            spec.start_ms + offset_ms,
            lambda time=spec.start_ms + offset_ms, data=wire: emit(time, data),
        )
    return count
