"""Reading datagrams where they lie, against the reference codec.

``repro.quic.onpath`` must accept and reject exactly what
``decode_datagram`` / ``decode_frames`` do and read the same header
fields — short and long, Version Negotiation and Retry included — or
"parse error" and "this packet's fields" would mean one thing on the
path and at the endpoints and another in the reference.  The dataclass
codec, which no production path runs, is the oracle throughout.
"""

from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro._util.rng import derive_rng
from repro.core.flow_resolver import FlowKeyResolver
from repro.core.flow_table import SpinFlowTable
from repro.core.spin import SpinPolicy
from repro.monitor import TrafficConfig, TrafficMux
from repro.netsim.events import Simulator
from repro.netsim.migration import parse_migration_plan
from repro.netsim.path import PathProfile
from repro.netsim.tcp import TcpSegment, decode_tcp_segment, encode_tcp_segment
from repro.quic.connection import ConnectionConfig
from repro.quic.connection_id import ConnectionId
from repro.quic.datagram import QuicPacket, decode_datagram, encode_datagram
from repro.quic.frames import (
    AckFrame,
    AckRange,
    ConnectionCloseFrame,
    CryptoFrame,
    HandshakeDoneFrame,
    NewConnectionIdFrame,
    PaddingFrame,
    PingFrame,
    StreamFrame,
    decode_frame_fields,
    decode_frames,
    encode_frames,
)
from repro.quic.onpath import (
    check_frames,
    long_header_fields,
    short_header_fields,
    walk_datagram,
)
from repro.quic.packet import (
    LongHeader,
    LongPacketType,
    ShortHeader,
    VersionNegotiationHeader,
)
from repro.quic.packet_number import decode_packet_number
from repro.quic.version import QuicVersion
from repro.web.http3 import ResponsePlan, build_exchange

DCID_LENGTH = 8
SHORT_PREFIX = bytes([0x40]) + bytes(range(DCID_LENGTH)) + b"\x07"

#: The two rejections that live in frame dataclasses' ``__post_init__``
#: rather than in ``decode_frames``: an ACK whose *first* range reaches
#: below packet number 0, and NEW_CONNECTION_ID CID lengths outside 1..20.
ACK_FIRST_RANGE_UNDERFLOW = bytes([0x02, 0x01, 0x00, 0x00, 0x05])
NCID_EMPTY_CID = bytes([0x18, 0x01, 0x00, 0x00]) + bytes(16)
NCID_LONG_CID = bytes([0x18, 0x01, 0x00, 21]) + bytes(21 + 16)


def reference_frames(payload: bytes) -> bool:
    try:
        decode_frames(payload)
    except (ValueError, IndexError):
        return False
    return True


def walk_frames(data: bytes, at: int = 0, end: int | None = None) -> bool:
    try:
        check_frames(data, at, end)
    except ValueError:  # anything else is a crash, and fails the test
        return False
    return True


def reference_datagram(data: bytes):
    """The reference codec's packets, or ``None`` where it rejects."""
    try:
        return decode_datagram(data, DCID_LENGTH)
    except (ValueError, IndexError):
        return None


def frame_fields(frames):
    """What ``decode_frame_fields`` must return for the frame objects
    ``decode_frames`` built: ``(items, ack_eliciting)``."""
    items = []
    for frame in frames:
        if isinstance(frame, AckFrame):
            ranges = [(r.smallest, r.largest) for r in frame.ranges]
            items.append((0x02, frame.largest_acknowledged, frame.ack_delay_us, ranges))
        elif isinstance(frame, StreamFrame):
            items.append((0x08, frame.stream_id, frame.offset, frame.data, frame.fin))
        elif isinstance(frame, CryptoFrame):
            items.append((0x06, frame.offset, frame.data))
        elif isinstance(frame, NewConnectionIdFrame):
            items.append(
                (
                    0x18, frame.sequence_number, frame.retire_prior_to,
                    frame.connection_id, frame.stateless_reset_token,
                )
            )
        elif isinstance(frame, HandshakeDoneFrame):
            items.append((0x1E,))
        elif isinstance(frame, ConnectionCloseFrame):
            items.append(
                (0x1C, frame.error_code, frame.frame_type, frame.reason, frame.is_application)
            )
        else:
            assert isinstance(frame, (PaddingFrame, PingFrame))
    return items, any(frame.is_ack_eliciting for frame in frames)


def reference_long_fields(packet, at: int, size: int):
    """What ``long_header_fields`` must read for a packet of the
    reference codec that starts at ``at`` in a datagram of ``size`` bytes."""
    header = packet.header
    cids = (header.destination_cid.value, header.source_cid.value)
    if isinstance(header, VersionNegotiationHeader):
        return (header.packet_type, 0, *cids, b"", header.supported_versions, 0, 0, size, size)
    if header.long_type is LongPacketType.RETRY:
        return (header.packet_type, header.version, *cids, header.token, (), 0, 0, size, size)
    end = at + packet.wire_length
    return (
        header.packet_type, header.version, *cids, header.token, (),
        header.packet_number, header.pn_length, end - header.payload_length, end,
    )


def assert_walk_agrees(data: bytes) -> None:
    """Same verdict as ``decode_datagram``; where both accept, the field
    readers see in every packet — any header form, any coalescing — what
    the reference's header and frame objects hold."""
    expected = reference_datagram(data)
    try:
        packets, short_at = walk_datagram(data, DCID_LENGTH)
    except ValueError:
        assert expected is None, "walk rejected what decode_datagram accepts"
        return
    assert expected is not None, "walk accepted what decode_datagram rejects"
    assert packets == len(expected)
    at = 0
    for packet in expected:
        header = packet.header
        if isinstance(header, ShortHeader):
            assert short_at == at
            assert short_header_fields(data, at, DCID_LENGTH) == (
                header.spin_bit,
                header.vec,
                header.destination_cid.value,
                header.packet_number,
                header.pn_length,
            )
            payload_at, end = at + 1 + DCID_LENGTH + header.pn_length, len(data)
        else:
            fields = long_header_fields(data, at)
            assert fields == reference_long_fields(packet, at, len(data))
            payload_at, end = fields[-2:]
        assert decode_frame_fields(data, payload_at, 3, end) == frame_fields(packet.frames)
        at = end
    assert at == len(data)
    if not (expected and isinstance(expected[-1].header, ShortHeader)):
        assert short_at == -1


# ----------------------------------------------------------------------
# Payloads: check_frames against decode_frames.
# ----------------------------------------------------------------------

varints = st.sampled_from([0, 1, 63, 64, 300, 16_383, 16_384, 1 << 29, (1 << 62) - 1])
small = st.integers(0, 40)


@st.composite
def ack_frames(draw):
    largest = draw(st.integers(0, 5_000))
    ranges = []
    top = largest
    for _ in range(draw(st.integers(1, 4))):
        if top < 0:
            break
        bottom = draw(st.integers(max(0, top - 20), top))
        ranges.append(AckRange(bottom, top))
        top = bottom - 2 - draw(st.integers(0, 5))
    return AckFrame(largest, draw(st.integers(0, 1 << 20)), tuple(ranges))


frames = st.one_of(
    st.builds(PaddingFrame, st.integers(1, 30)),
    st.just(PingFrame()),
    st.just(HandshakeDoneFrame()),
    ack_frames(),
    st.builds(CryptoFrame, varints, st.binary(max_size=40)),
    st.builds(StreamFrame, varints, varints, st.binary(max_size=60), st.booleans()),
    st.builds(
        NewConnectionIdFrame, small, small, st.binary(min_size=1, max_size=20),
        st.binary(min_size=16, max_size=16),
    ),
    st.builds(
        ConnectionCloseFrame, varints, small, st.binary(max_size=20), st.booleans()
    ),
)


@st.composite
def mutated_payloads(draw):
    payload = bytearray(encode_frames(draw(st.lists(frames, max_size=5))))
    for _ in range(draw(st.integers(0, 3))):
        if payload:
            position = draw(st.integers(0, len(payload) - 1))
            payload[position] ^= 1 << draw(st.integers(0, 7))
    if draw(st.booleans()) and payload:
        del payload[draw(st.integers(0, len(payload) - 1)) :]
    payload += draw(st.binary(max_size=6))
    return bytes(payload)


class TestCheckFrames:
    @settings(max_examples=600, deadline=None)
    @given(mutated_payloads())
    @example(ACK_FIRST_RANGE_UNDERFLOW)
    @example(NCID_EMPTY_CID)
    @example(NCID_LONG_CID)
    @example(bytes([0x08, 0x01]) + b"stream to the end, no OFF, no LEN")
    @example(bytes([0x0C, 0x01]))  # OFF promised, nothing left
    @example(bytes([0x02, 0x05, 0x00, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x00]))
    def test_rejects_exactly_what_decode_frames_rejects(self, payload):
        assert walk_frames(payload) == reference_frames(payload)

    @settings(max_examples=300, deadline=None)
    @given(mutated_payloads(), st.binary(max_size=12), st.binary(max_size=12))
    def test_bytes_outside_the_window_are_never_read_into_the_verdict(
        self, payload, before, after
    ):
        """A payload checked in place inside a datagram: what follows
        ``end`` (the next coalesced packet) must not leak in."""
        verdict = walk_frames(before + payload + after, len(before), len(before) + len(payload))
        assert verdict == reference_frames(payload)

    @pytest.mark.parametrize("frame_type", [0x0A, 0x0B, 0x0E])
    @pytest.mark.parametrize("width", [1, 2, 4])
    def test_stream_length_read_in_line_at_every_boundary(self, frame_type, width):
        """One- and two-byte STREAM lengths are read without ``_varint``:
        every length that fits the width, against data that is complete,
        one byte short, cut inside the length itself, or followed by
        another frame — alone and in place inside a datagram."""
        head = bytes([frame_type, 0x01]) + (b"\x05" if frame_type & 0x04 else b"")
        for length in (0, 1, 62, 63, 64, 65, 300, 16_383):
            if width == 1 and length > 63:
                continue
            prefix = (length | {1: 0, 2: 0x4000, 4: 0x80000000}[width]).to_bytes(width, "big")
            whole = head + prefix + bytes(length)
            for payload in (
                whole, whole[:-1], whole + b"\x01", whole + b"\x21",
                head + prefix[:-1], head + prefix, head,
            ):
                assert walk_frames(payload) == reference_frames(payload), payload.hex()
                framed = b"\x01\x01" + payload + b"\x00\x00"
                assert walk_frames(framed, 2, 2 + len(payload)) == reference_frames(payload)

    @pytest.mark.parametrize(
        "payload", [ACK_FIRST_RANGE_UNDERFLOW, NCID_EMPTY_CID, NCID_LONG_CID]
    )
    def test_post_init_rejections_are_rejected(self, payload):
        assert not reference_frames(payload)
        assert not walk_frames(payload)


# ----------------------------------------------------------------------
# Datagrams: the walk against decode_datagram, and the table on top.
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def corpus():
    """A tap with every shape the monitor meets: handshakes (coalesced
    long headers), 1-RTT data, NEW_CONNECTION_ID (rotation), interleaved
    TCP segments — and the shapes only an endpoint meets, from a Retry
    and a Version Negotiation handshake."""
    config = TrafficConfig(
        flows=14,
        seed=12,
        arrival_window_ms=600.0,
        tcp_flows=3,
        migration=parse_migration_plan("nat-rebind:0.4,cid-rotation:0.5"),
    )
    stream = list(TrafficMux(config).stream()) + handshake_taps()
    assert {tap.transport for tap in stream} == {"quic", "tcp"}
    return stream


def handshake_taps() -> list:
    """Every datagram, both directions, of a connection to a server that
    demands a Retry and of one to a draft-only server: the Retry and the
    Version Negotiation packet themselves, and padded Initials with and
    without a token."""
    taps = []
    for server_config in (
        ConnectionConfig(retry_required=True),
        ConnectionConfig(supported_versions=(QuicVersion.DRAFT_29, QuicVersion.DRAFT_27)),
    ):
        simulator = Simulator()
        profile = PathProfile(propagation_delay_ms=10.0)
        handle = build_exchange(
            simulator, "www.onpath.test", [ResponsePlan(server_header="x", write_sizes=(100,))],
            SpinPolicy.SPIN, SpinPolicy.SPIN, profile, profile, derive_rng(4, "onpath"),
            server_config=server_config, start_ms=0.0,
        )
        for endpoint in (handle.client, handle.server):

            def tapped(data, send=endpoint.transport):
                taps.append(
                    SimpleNamespace(
                        time_ms=simulator.now_ms, data=data, tuple4=None, transport="quic"
                    )
                )
                send(data)

            endpoint.attach_transport(tapped)
        simulator.run()
        assert handle.client_app.done
    return taps


def long_packet(long_type, frames=(PingFrame(),)) -> QuicPacket:
    return QuicPacket(
        header=LongHeader(
            long_type=long_type,
            version=1,
            destination_cid=ConnectionId(bytes(range(8))),
            source_cid=ConnectionId(bytes(range(8, 12))),
            token=b"tok" if long_type is LongPacketType.INITIAL else b"",
        ),
        frames=frames,
    )


def short_packet(frames=(PingFrame(),), **header) -> QuicPacket:
    return QuicPacket(
        header=ShortHeader(
            destination_cid=ConnectionId(bytes(range(8))), packet_number=9, **header
        ),
        frames=frames,
    )


@st.composite
def mutations(draw):
    """``(index, flips, cut, tail)``: which corpus datagram, and how to
    damage it — bit flips in the first 48 bytes, a truncation point, a
    garbage tail spliced on."""
    return (
        draw(st.integers(0, 1 << 30)),
        draw(st.lists(st.tuples(st.integers(0, 47), st.integers(0, 7)), max_size=3)),
        draw(st.none() | st.integers(0, 1500)),
        draw(st.binary(max_size=24)),
    )


def mutate(stream, mutation):
    index, flips, cut, tail = mutation
    tap = stream[index % len(stream)]
    data = bytearray(tap.data)
    for position, bit in flips:
        if position < len(data):
            data[position] ^= 1 << bit
    if cut is not None:
        del data[cut:]
    return tap, bytes(data + tail)


class TestWalkDatagram:
    def test_untouched_corpus_agrees(self, corpus):
        for tap in corpus:
            assert_walk_agrees(tap.data)

    def test_corpus_has_every_long_header_shape(self, corpus):
        seen = set()
        for tap in corpus:
            for packet in reference_datagram(tap.data) or ():
                header = packet.header
                padded = any(isinstance(frame, PaddingFrame) for frame in packet.frames)
                seen.add((header.packet_type.value, bool(getattr(header, "token", b"")), padded))
        assert seen >= {
            ("initial", False, True),
            ("initial", True, True),  # the ClientHello again, with the Retry token
            ("initial", False, False),
            ("handshake", False, False),
            ("retry", True, False),
            ("version_negotiation", False, False),
            ("1RTT", False, False),
        }

    @settings(max_examples=1200, deadline=None)
    @given(mutations())
    def test_mutated_datagrams_agree_with_decode_datagram(self, corpus, mutation):
        assert_walk_agrees(mutate(corpus, mutation)[1])

    @pytest.mark.parametrize(
        "data",
        [
            b"",
            b"junk-datagram",  # valid short header, payload of unknown frames
            SHORT_PREFIX + ACK_FIRST_RANGE_UNDERFLOW,
            SHORT_PREFIX + NCID_EMPTY_CID,
            SHORT_PREFIX + NCID_LONG_CID,
            SHORT_PREFIX,  # header only: an empty payload is well-formed
            encode_datagram([short_packet(spin_bit=True, vec=3, key_phase=True)]),
            encode_datagram(
                [
                    long_packet(LongPacketType.INITIAL, (CryptoFrame(0, b"hi"),)),
                    long_packet(LongPacketType.HANDSHAKE),
                    short_packet(),
                ]
            ),
            # A later coalesced packet's payload is bad; the first is fine.
            encode_datagram([long_packet(LongPacketType.HANDSHAKE)])
            + SHORT_PREFIX
            + NCID_EMPTY_CID,
            encode_datagram([long_packet(LongPacketType.ZERO_RTT)]) + b"\x40",
            encode_datagram([long_packet(LongPacketType.RETRY, ())]) + b"retry token",
            bytes([0xC0, 0, 0, 0, 0, 2, 1, 2, 1, 3, 0, 0, 0, 1, 0xFA, 0xCE, 0xB0, 0x0C]),  # VN
            bytes([0xC0, 0, 0, 0, 0, 2, 1, 2, 1, 3, 0, 0, 0]),  # VN, torn version list
            bytes([0xC0, 0, 0, 0, 0, 0, 0]),  # VN, no versions at all
            bytes([0xC0, 0, 0, 0, 1, 21]) + bytes(40),  # DCID longer than 20
            bytes([0xC0, 0, 0, 0, 1, 1, 9]),  # DCID runs into the SCID length
            bytes([0xF0, 0, 0, 0, 1, 0, 0]),  # Retry: SCID ends the datagram
            # Length 0 cannot hold the packet number, even when the byte
            # after it would start a well-formed short-header packet.
            bytes([0xE0, 0, 0, 0, 1, 0, 0, 0x00]) + SHORT_PREFIX,
        ],
    )
    def test_hand_built_cases_agree(self, data):
        assert_walk_agrees(data)


def fresh_table() -> SpinFlowTable:
    return SpinFlowTable(short_dcid_length=DCID_LENGTH, resolver=FlowKeyResolver())


def expected_counters(data: bytes) -> dict:
    """What one datagram does to a fresh table, per the endpoint codec."""
    expected = reference_datagram(data)
    transport = "quic"
    if expected is None:
        transport = "unparseable"
        if data and not data[0] & 0xC0:
            try:
                decode_tcp_segment(data)
                transport = "tcp"
            except ValueError:
                pass
    packets = len(expected or ())
    header = next(
        (p.header for p in expected or () if isinstance(p.header, ShortHeader)), None
    )
    return {
        "packets": packets,
        "short_header_packets": int(header is not None),
        "parse_errors": int(transport == "unparseable"),
        "transport_mix": {
            name: int(name == transport) for name in ("quic", "tcp", "unparseable")
        },
        "flows": int(header is not None),
    }


TUPLE = ("10.0.0.1", 40000, "198.18.0.1", 443)
#: A 21-byte segment: source port 443 (first byte 0x01), byte 12 = 0x51.
TCP_WIRE = encode_tcp_segment(TcpSegment(443, 50000, 1, 1, True, 0x10, 1))


def with_byte(data: bytes, position: int, value: int) -> bytes:
    return data[:position] + bytes([value]) + data[position + 1 :]


@st.composite
def tcp_prefixes(draw):
    """Datagrams near the TCP shape: a first byte on either side of the
    QUIC form/fixed bits, byte 12 on either side of data offset 5, and a
    length on either side of 20 bytes."""
    first = draw(st.sampled_from([0x00, 0x01, 0x3F, 0x40, 0x7F, 0x80, 0xBF]) | st.integers(0, 255))
    offset = draw(st.sampled_from([0x00, 0x4F, 0x50, 0x51, 0x5F, 0xF0]) | st.integers(0, 255))
    data = bytes([first]) + draw(st.binary(min_size=11, max_size=11)) + bytes([offset])
    data += draw(st.binary(min_size=7, max_size=7)) + draw(st.binary(max_size=4))
    return data[: draw(st.sampled_from([0, 13, 19, 20, 21]) | st.integers(0, len(data)))]


def table_counters(table: SpinFlowTable) -> dict:
    return {
        "packets": table.stats.packets,
        "short_header_packets": table.stats.short_header_packets,
        "parse_errors": table.stats.parse_errors,
        "transport_mix": table.resolver.counters()["transport_mix"],
        "flows": len(table.flows),
    }


class TestFlowTableOnTheWalk:
    @settings(max_examples=600, deadline=None)
    @given(mutations())
    def test_classification_and_counters_match_the_endpoint_codec(
        self, corpus, mutation
    ):
        """QUIC / tcp / parse error, ``packets`` and ``short_header_packets``
        are what ``decode_datagram`` says; a rejected datagram — wherever
        in it the fault lies — leaves the flow table untouched."""
        tap, data = mutate(corpus, mutation)
        table = fresh_table()
        table.on_server_datagram(tap.time_ms, data, tap.tuple4)
        assert table_counters(table) == expected_counters(data)

    @pytest.mark.parametrize(
        "data, tcp",
        [
            (b"", False),
            (TCP_WIRE[:19], False),
            (TCP_WIRE[:20], True),
            (TCP_WIRE[:21], True),
            (with_byte(TCP_WIRE, 12, 0x4F), False),  # data offset 4 words
            (with_byte(TCP_WIRE, 12, 0x50), True),
            (with_byte(TCP_WIRE, 12, 0xF0), True),
            (with_byte(TCP_WIRE, 0, 0x00), True),
            (with_byte(TCP_WIRE, 0, 0x3F), True),
            (with_byte(TCP_WIRE, 0, 0x40), False),  # the QUIC fixed bit
            (with_byte(TCP_WIRE, 0, 0x80), False),  # the long-header form bit
        ],
        ids=[
            "len0", "len19", "len20", "len21", "byte12=4F", "byte12=50", "byte12=F0",
            "first=00", "first=3F", "first=40", "first=80",
        ],
    )
    def test_tcp_shape_at_every_boundary(self, data, tcp):
        """The header test's edges, stated by hand as well as by the
        oracle: ``decode_tcp_segment`` shares the shape test, so only the
        stated verdict catches both drifting together."""
        table = fresh_table()
        table.on_server_datagram(0.0, data, TUPLE)
        assert table_counters(table) == expected_counters(data)
        assert table.resolver.counters()["transport_mix"]["tcp"] == tcp
        assert table.resolver.tcp_flows == tcp

    @settings(max_examples=600, deadline=None)
    @given(tcp_prefixes())
    def test_tcp_prefixes_are_classified_as_the_codec_says(self, data):
        """The mutation corpus rarely reaches byte 12 of a TCP segment
        intact; these prefixes sit on the shape's edges."""
        table = fresh_table()
        table.on_server_datagram(0.0, data, TUPLE)
        assert table_counters(table) == expected_counters(data)

    def test_bad_payload_in_a_later_coalesced_packet_leaves_no_trace(self):
        good = encode_datagram([long_packet(LongPacketType.HANDSHAKE), short_packet()])
        bad = encode_datagram([long_packet(LongPacketType.HANDSHAKE)]) + SHORT_PREFIX + b"\x3f"
        table = fresh_table()
        table.on_server_datagram(0.0, bad)
        assert table.stats.parse_errors == 1
        assert (table.stats.packets, table.stats.short_header_packets) == (0, 0)
        assert not table.flows
        table.on_server_datagram(1.0, good)
        assert (table.stats.packets, table.stats.short_header_packets) == (2, 1)
        assert len(table.flows) == 1

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.integers(1, 4),
                st.sampled_from([-1.0, -0.5, 0.0, 0.5, 1.0]),
                st.integers(-2, 2),
            ),
            min_size=1,
            max_size=12,
        )
    )
    def test_inline_packet_number_reconstruction_is_appendix_a3(self, steps):
        """The table reconstructs packet numbers inline; the result must
        be ``decode_packet_number``'s, in particular a whole and a half
        window either side of the expected number, where A.3 turns."""
        seen = []

        class Recorder:
            def on_packet(self, time_ms, packet_number, spin_bit):
                seen.append(packet_number)

        table = SpinFlowTable(
            short_dcid_length=DCID_LENGTH, observer_factory=lambda key: Recorder()
        )
        largest = None
        expected = []
        for pn_length, windows, nudge in steps:
            window = 1 << (8 * pn_length)
            sent = max(0, (largest or 0) + 1 + int(windows * window) + nudge)
            truncated = sent & (window - 1)
            data = (
                bytes([0x40 | (pn_length - 1)])
                + bytes(range(DCID_LENGTH))
                + truncated.to_bytes(pn_length, "big")
                + b"\x01"
            )
            table.on_server_datagram(0.0, data)
            full = decode_packet_number(truncated, pn_length, largest)
            if largest is None or full > largest:
                largest = full
            expected.append(full)
        assert seen == expected
