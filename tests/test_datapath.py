"""The endpoint's datapath against the dataclass codec.

``QuicEndpoint`` reads and writes every packet — Initial, Handshake,
Version Negotiation, Retry and 1-RTT — as plain fields in one buffer
and keeps ack/loss state incrementally.  The reference codec
(``decode_datagram`` / ``decode_frames`` / ``QuicPacket`` /
``LongHeader`` / ``ShortHeader``), which the endpoint never runs, and
the bookkeeping the endpoint used before — every received packet number
in a set, every sent packet kept forever, each ACK walking from its
largest packet number down — are the oracles throughout: same bytes,
same accept/reject, same RTT samples, same congestion window.
"""

import copy
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import repro.quic.connection as connection_module
import repro.quic.datagram as datagram_module
import repro.quic.frames as frames_module
import repro.quic.packet as packet_module
from repro._util.rng import derive_rng
from repro.core.spin import EndpointRole, SpinPolicy
from repro.netsim.events import Simulator
from repro.netsim.path import PathProfile
from repro.qlog.recorder import TraceRecorder
from repro.quic.connection import (
    ConnectionConfig,
    PacketSpace,
    QuicEndpoint,
    _note_received,
)
from repro.quic.connection_id import ConnectionId
from repro.quic.datagram import QuicPacket, decode_datagram, encode_datagram
from repro.quic.frames import (
    AckFrame,
    AckRange,
    ConnectionCloseFrame,
    CryptoFrame,
    HandshakeDoneFrame,
    PaddingFrame,
    PingFrame,
    StreamFrame,
    decode_frame_fields,
    decode_frames,
    encode_frames,
)
from repro.quic.packet import (
    LongHeader,
    LongPacketType,
    ShortHeader,
    VersionNegotiationHeader,
)
from repro.quic.packet_number import decode_packet_number
from repro.quic.rtt import RttEstimator
from repro.quic.version import QuicVersion
from repro.web.http3 import ResponsePlan, build_exchange, run_exchange

from conftest import collect_rtt_samples

# The payload corpus (frames, then bit flips, truncation, garbage tails)
# and the hand-built rejections are the on-path walk's: one definition of
# "what decode_frames must be matched on" for both readers.
from test_onpath import (
    ACK_FIRST_RANGE_UNDERFLOW,
    NCID_EMPTY_CID,
    NCID_LONG_CID,
    frame_fields,
    mutated_payloads,
    varints,
)


def pns_to_ranges(pns):
    """The endpoint's former ACK-range builder, kept as the naive oracle:
    sort every packet number ever received, newest first."""
    ordered = sorted(pns, reverse=True)
    ranges = []
    range_largest = previous = ordered[0]
    for pn in ordered[1:]:
        if pn != previous - 1:
            ranges.append(AckRange(previous, range_largest))
            range_largest = pn
        previous = pn
    ranges.append(AckRange(previous, range_largest))
    return tuple(ranges)


# ----------------------------------------------------------------------
# Receive: decode_frame_fields against decode_frames.
# ----------------------------------------------------------------------

def reference_fields(payload, exponent):
    """What ``decode_frames`` says the endpoint acts on, or ``None``."""
    try:
        return frame_fields(decode_frames(payload, exponent))
    except (ValueError, IndexError):
        return None


def field_decoder(data, at, exponent, end=None):
    try:
        return decode_frame_fields(data, at, exponent, end)
    except ValueError:  # anything else is a crash, and fails the test
        return None


class TestDecodeFrameFields:
    @settings(max_examples=800, deadline=None)
    @given(mutated_payloads(), st.binary(max_size=12), st.integers(0, 6))
    @example(ACK_FIRST_RANGE_UNDERFLOW, b"", 3)
    @example(NCID_EMPTY_CID, b"", 3)
    @example(NCID_LONG_CID, b"", 3)
    @example(bytes([0x08, 0x01]) + b"stream to the end, no OFF, no LEN", b"\x40", 3)
    @example(bytes([0x0C, 0x01]), b"", 3)  # OFF promised, nothing left
    @example(bytes([0x0E, 0x40]), b"", 3)  # two-byte stream id cut short
    @example(bytes([0x02, 0x05, 0x00, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x00]), b"", 3)
    def test_same_verdict_same_fields_as_decode_frames(self, payload, header, exponent):
        """Read in place behind ``header`` bytes, as in a datagram: to
        its end (a short-header packet), and to an ``end`` that the next
        coalesced packet follows, whose bytes must not leak in — here the
        payload over again, so every varint that straddles ``end`` finds
        plausible bytes beyond it."""
        expected = reference_fields(payload, exponent)
        assert field_decoder(header + payload, len(header), exponent) == expected
        end = len(header) + len(payload)
        assert field_decoder(header + payload + payload, len(header), exponent, end) == expected

    @pytest.mark.parametrize(
        "payload", [ACK_FIRST_RANGE_UNDERFLOW, NCID_EMPTY_CID, NCID_LONG_CID]
    )
    def test_post_init_rejections_are_rejected(self, payload):
        assert reference_fields(payload, 3) is None
        assert field_decoder(payload, 0, 3) is None

    def test_ack_eliciting_is_decided_in_the_same_pass(self):
        quiet = encode_frames([AckFrame(3), PaddingFrame(4), ConnectionCloseFrame()])
        assert decode_frame_fields(quiet)[1] is False
        for frame in (PingFrame(), StreamFrame(0, 0, b""), HandshakeDoneFrame()):
            assert decode_frame_fields(frame.encode() + quiet)[1] is True


# ----------------------------------------------------------------------
# A bare endpoint with 1-RTT keys, driven packet by packet.
# ----------------------------------------------------------------------


def bare_endpoint(config=ConnectionConfig(), policy=SpinPolicy.ALWAYS_ZERO, dcid=bytes(8)):
    """An endpoint past its handshake, its transmissions captured."""
    simulator = Simulator()
    endpoint = QuicEndpoint(
        simulator, EndpointRole.SERVER, config, policy, derive_rng(1, "bare")
    )
    endpoint.remote_cid = ConnectionId(dcid)
    endpoint.handshake_complete = endpoint.handshake_confirmed = True
    wire = []
    endpoint.attach_transport(wire.append)
    return simulator, endpoint, wire


def peer_packet(endpoint, pn, frames, largest_acked=None):
    """A 1-RTT packet addressed to ``endpoint``, from the public codec."""
    header = ShortHeader(
        destination_cid=endpoint.local_cid, packet_number=pn, largest_acked=largest_acked
    )
    return QuicPacket(header=header, frames=frames).encode()


class _FixedVec:
    """Stands in for VecSenderState to put a chosen VEC on the wire."""

    def __init__(self, vec):
        self.vec = vec

    def vec_for_outgoing(self, spin_bit):
        return self.vec


@st.composite
def received_runs(draw):
    """Ascending, non-adjacent ``[smallest, largest]`` runs."""
    runs = []
    low = draw(st.integers(0, 100))
    for _ in range(draw(st.integers(1, 5))):
        high = low + draw(st.sampled_from([0, 1, 5, 62, 63, 64, 300, 20_000]))
        runs.append([low, high])
        low = high + 2 + draw(st.sampled_from([0, 1, 61, 62, 63, 17_000]))
    return runs


DRAFT_ONLY = (QuicVersion.DRAFT_29, QuicVersion.DRAFT_27)


def captured_exchange(server_config, loss=0.0, seed=3):
    """Run one connection; returns ``(sender, datagram, expected)`` for
    everything either endpoint handed to its path, ``expected`` being
    the reference encoding of long-header-first datagrams (``None`` for
    others), built from the sender's state as the datagram left."""
    simulator = Simulator()
    profile = PathProfile(propagation_delay_ms=10.0, loss_probability=loss)
    plan = ResponsePlan(server_header="x", write_sizes=(100,))
    handle = build_exchange(
        simulator, "www.flights.test", [plan], SpinPolicy.SPIN, SpinPolicy.SPIN,
        profile, profile, derive_rng(seed, "flights"),
        server_config=server_config, start_ms=0.0,
    )
    sent = []
    initial = None  # the client's latest Initial: what a VN or Retry answers
    for endpoint in (handle.client, handle.server):

        def capture(data, endpoint=endpoint, send=endpoint.transport):
            nonlocal initial
            expected = None
            if data[0] & 0x80:
                expected = encode_datagram(rebuilt_packets(endpoint, data, initial))
                if endpoint is handle.client:
                    initial = decode_datagram(data, 8)[0].header
            sent.append((endpoint, data, expected))
            send(data)

        endpoint.attach_transport(capture)
    simulator.run()
    assert loss or (handle.client_app.done and handle.client.failed is None)
    return sent


_SPACE_OF_TYPE = {
    "initial": PacketSpace.INITIAL,
    "handshake": PacketSpace.HANDSHAKE,
    "1RTT": PacketSpace.APPLICATION,
}


def rebuilt_packets(sender, data, answered):
    """The packets of ``data`` for ``encode_datagram``, as ``sender``
    hands it to the path: headers from the sender's state (each space
    has at most one packet in a datagram, its newest) — for the
    stateless Version Negotiation and Retry from the header of the
    Initial they answer — and frames as the reference codec reads them
    off the wire."""
    packets = []
    for parsed in decode_datagram(data, 8):
        wire = parsed.header
        if isinstance(wire, VersionNegotiationHeader):
            header = VersionNegotiationHeader(
                answered.source_cid, answered.destination_cid,
                tuple(int(v) for v in sender.config.supported_versions),
            )
        elif wire.packet_type.value == "retry":
            header = LongHeader(
                LongPacketType.RETRY, answered.version, answered.source_cid, sender.local_cid,
                token=b"retry:" + answered.source_cid.value,
            )
        else:
            state = sender.spaces[_SPACE_OF_TYPE[wire.packet_type.value]]
            pn, largest_acked = state.next_pn - 1, state.largest_acked_by_peer
            if state.space is PacketSpace.APPLICATION:
                header = ShortHeader(
                    sender.remote_cid, pn, wire.spin_bit, wire.key_phase, wire.vec, largest_acked
                )
            else:
                header = LongHeader(
                    wire.long_type, sender.version, sender.remote_cid, sender.local_cid,
                    packet_number=pn,
                    token=(
                        sender._retry_token
                        if state.space is PacketSpace.INITIAL
                        and sender.role is EndpointRole.CLIENT
                        else b""
                    ),
                    largest_acked=largest_acked,
                )
        packets.append(QuicPacket(header, parsed.frames))
    return packets


class TestSendBody:
    @settings(max_examples=500, deadline=None)
    @given(
        pn=st.sampled_from([0, 1, 127, 128, 255, 256, 70_000, 1 << 24, (1 << 31) + 5]),
        acked_gap=st.none() | st.sampled_from([1, 2, 100, 127, 128, 40_000, 1 << 23, 1 << 30]),
        spin=st.booleans(),
        vec=st.integers(0, 3),
        dcid=st.binary(max_size=20),
        runs=st.none() | received_runs(),
        delay_ms=st.sampled_from([0.0, 0.004, 1.0, 24.9, 700.0]),
        exponent=st.integers(0, 6),
        stream=st.none() | st.tuples(varints, varints, st.binary(max_size=50), st.booleans()),
    )
    def test_wire_bytes_equal_the_dataclass_encoding(
        self, pn, acked_gap, spin, vec, dcid, runs, delay_ms, exponent, stream
    ):
        largest_acked = None if acked_gap is None or acked_gap > pn else pn - acked_gap
        simulator, endpoint, wire = bare_endpoint(
            ConnectionConfig(ack_delay_exponent=exponent),
            SpinPolicy.ALWAYS_ONE if spin else SpinPolicy.ALWAYS_ZERO,
            dcid,
        )
        endpoint.vec_state = _FixedVec(vec)
        state = endpoint.spaces[PacketSpace.APPLICATION]
        state.next_pn = pn
        state.largest_acked_by_peer = largest_acked
        simulator.clock.advance_to(1000.0)
        expected_frames = []
        if runs is not None:
            state.received_runs = [list(run) for run in runs]
            state.largest_received = runs[-1][1]
            state.largest_received_time_ms = 1000.0 - delay_ms
            state.pending_ack_eliciting = 1
            expected_frames.append(
                AckFrame(
                    runs[-1][1],
                    int((1000.0 - state.largest_received_time_ms) * 1000.0),
                    tuple(AckRange(low, high) for low, high in runs),
                    exponent,
                )
            )
        payload = b""
        if stream is not None:
            expected_frames.append(StreamFrame(*stream))
            payload = expected_frames[-1].encode()
        elif runs is None:
            expected_frames.append(PingFrame())
            payload = expected_frames[-1].encode()

        header = ShortHeader(
            destination_cid=ConnectionId(dcid),
            packet_number=pn,
            spin_bit=spin,
            vec=vec,
            largest_acked=largest_acked,
        )
        try:
            expected = QuicPacket(header=header, frames=expected_frames).encode()
        except ValueError:  # unacknowledged range too wide for 4 bytes
            with pytest.raises(ValueError):
                endpoint._send("1RTT", payload, payload or None, ack=runs is not None)
            return
        endpoint._send("1RTT", payload, payload or None, ack=runs is not None)
        assert wire == [expected]
        assert state.next_pn == pn + 1
        assert state.pending_ack_eliciting == 0
        assert (pn in state.sent) == bool(payload)  # only what elicits an ACK is kept

    @settings(max_examples=500, deadline=None)
    @given(
        long_type=st.sampled_from([LongPacketType.INITIAL, LongPacketType.HANDSHAKE]),
        role=st.sampled_from([EndpointRole.CLIENT, EndpointRole.SERVER]),
        pn=st.sampled_from([0, 1, 127, 128, 255, 256, 70_000, 1 << 24]),
        acked_gap=st.none() | st.sampled_from([1, 2, 100, 127, 128, 40_000, 1 << 23]),
        version=st.sampled_from([int(QuicVersion.VERSION_1), int(QuicVersion.DRAFT_29)]),
        dcid=st.binary(max_size=20),
        scid=st.binary(max_size=20),
        token=st.binary(max_size=70),
        runs=st.none() | received_runs(),
        delay_ms=st.sampled_from([0.0, 0.004, 1.0, 24.9]),
        exponent=st.integers(0, 6),
        crypto=st.none() | st.tuples(varints, st.binary(max_size=300)),
        # Around the sizes where padding moves Length from one varint
        # width to the next, and the real one.
        pad_to=st.sampled_from([0, 1200]) | st.integers(30, 180),
    )
    def test_long_header_wire_bytes_equal_the_dataclass_encoding(
        self, long_type, role, pn, acked_gap, version, dcid, scid, token,
        runs, delay_ms, exponent, crypto, pad_to,
    ):
        """Initial and Handshake packets of either role: version, both
        connection IDs, the client's Retry token, ``Length``, truncated
        packet number, ACK from the receive state, CRYPTO or
        CONNECTION_CLOSE, and padding placed as ``PaddingFrame`` places it."""
        largest_acked = None if acked_gap is None or acked_gap > pn else pn - acked_gap
        simulator = Simulator()
        endpoint = QuicEndpoint(
            simulator, role, ConnectionConfig(ack_delay_exponent=exponent),
            SpinPolicy.SPIN, derive_rng(1, "bare"),
        )
        wire = []
        endpoint.attach_transport(wire.append)
        endpoint.remote_cid = ConnectionId(dcid)
        endpoint.local_cid = ConnectionId(scid)
        endpoint.version = version
        endpoint._retry_token = token
        space = (
            PacketSpace.INITIAL if long_type is LongPacketType.INITIAL else PacketSpace.HANDSHAKE
        )
        state = endpoint.spaces[space]
        state.next_pn = pn
        state.largest_acked_by_peer = largest_acked
        simulator.clock.advance_to(1000.0)
        expected_frames = []
        if runs is not None:
            state.received_runs = [list(run) for run in runs]
            state.largest_received = runs[-1][1]
            state.largest_received_time_ms = 1000.0 - delay_ms
            expected_frames.append(
                AckFrame(
                    runs[-1][1],
                    int((1000.0 - state.largest_received_time_ms) * 1000.0),
                    tuple(AckRange(low, high) for low, high in runs),
                    exponent,
                )
            )
        expected_frames.append(
            CryptoFrame(*crypto) if crypto is not None else ConnectionCloseFrame(0x0A)
        )
        payload = expected_frames[-1].encode()
        header = LongHeader(
            long_type=long_type,
            version=version,
            destination_cid=ConnectionId(dcid),
            source_cid=ConnectionId(scid),
            packet_number=pn,
            token=token if role is EndpointRole.CLIENT and space is PacketSpace.INITIAL else b"",
            largest_acked=largest_acked,
        )
        trial_length = len(QuicPacket(header=header, frames=expected_frames).encode())
        if trial_length < pad_to:
            expected_frames.append(PaddingFrame(pad_to - trial_length))
        expected = QuicPacket(header=header, frames=expected_frames).encode()

        endpoint._send(
            space.value, payload, payload if crypto is not None else None,
            ack=runs is not None, pad_to=pad_to,
        )
        assert wire == [expected]
        assert state.next_pn == pn + 1
        assert (pn in state.sent) == (crypto is not None)
        if crypto is not None:
            assert state.sent[pn].retransmit == payload

    def test_every_handshake_datagram_equals_the_dataclass_encoding(self):
        """Whole connections — plain, Retry, Version Negotiation, and
        lossy ones that retransmit their handshake: every datagram that
        starts with a long header is what ``encode_datagram`` makes of
        ``QuicPacket(LongHeader(...), frames)`` built from the sender's
        state as the datagram leaves, the three coalesced flights
        included."""
        shapes = set()
        retransmissions = 0
        for label, server_config, loss, seed in (
            ("plain", ConnectionConfig(), 0.0, 3),
            ("retry", ConnectionConfig(retry_required=True), 0.0, 3),
            ("vn", ConnectionConfig(supported_versions=DRAFT_ONLY), 0.0, 3),
            *(("lossy", ConnectionConfig(), 0.2, seed) for seed in range(8)),
        ):
            for sender, data, expected in captured_exchange(server_config, loss, seed):
                if expected is None:
                    continue
                assert data == expected
                types = tuple(p.header.packet_type.value for p in decode_datagram(data, 8))
                shapes.add((sender.role.value, types))
                retransmissions += types in (("initial",), ("handshake",)) and label == "lossy"
        assert shapes >= {
            ("client", ("initial",)),
            ("server", ("retry",)),
            ("server", ("version_negotiation",)),
            ("server", ("initial", "handshake")),
            ("server", ("handshake",)),
            ("client", ("initial", "handshake")),
            ("server", ("handshake", "1RTT")),
        }
        assert retransmissions > 20  # more lone packets than the loss-free flights have

    def test_stream_queue_writes_stream_frames_as_the_dataclass_does(self, monkeypatch):
        monkeypatch.setattr(connection_module, "INITIAL_CONGESTION_WINDOW_PACKETS", 32)
        simulator, endpoint, wire = bare_endpoint()
        body = bytes(range(256)) * 40
        endpoint.send_stream(4, body[:3000], fin=False)
        endpoint.send_stream(68, body, fin=True)  # two-byte stream id
        received = bytearray()
        for data in wire:
            (packet,) = decode_datagram(data, 8)
            (frame,) = packet.frames
            if frame.stream_id == 68:
                assert frame.offset == len(received)
                received += frame.data
                assert frame.fin == (len(received) == len(body))
            assert data[1 + 8 + packet.header.pn_length :] == frame.encode()
        assert bytes(received) == body


# ----------------------------------------------------------------------
# Received packet numbers: runs against the sort-everything oracle.
# ----------------------------------------------------------------------


class TestReceivedRuns:
    @settings(max_examples=500, deadline=None)
    @given(st.lists(st.integers(0, 60), min_size=1, max_size=120))
    def test_runs_equal_the_naive_ranges_under_any_arrival_order(self, arrivals):
        """Shuffled, duplicated, reordered arrivals: after each one the
        runs are what sorting the whole received set would give."""
        runs, seen = [], set()
        for pn in arrivals:
            assert _note_received(runs, pn) == (pn not in seen)
            seen.add(pn)
            assert tuple(
                AckRange(low, high) for low, high in reversed(runs)
            ) == pns_to_ranges(seen)

    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.integers(0, 40), min_size=2, max_size=60))
    def test_endpoint_acks_what_the_naive_ranges_say(self, arrivals):
        """Through the real receive and send bodies: every ACK on the
        wire lists exactly the packet numbers delivered so far."""
        simulator, endpoint, wire = bare_endpoint()
        seen = set()
        for pn in arrivals:
            endpoint.receive_datagram(peer_packet(endpoint, pn, [PingFrame()]))
            seen.add(pn)
            for data in wire:
                (packet,) = decode_datagram(data, 8)
                (ack,) = packet.frames
                assert tuple(ack.ranges) == pns_to_ranges(seen)
            wire.clear()


class TestPacketNumberReconstruction:
    @settings(max_examples=300, deadline=None)
    @given(
        st.sampled_from([0, 200, 65_400, (1 << 24) - 100]),
        st.lists(st.tuples(st.integers(-40, 300), st.integers(1, 4)), min_size=1, max_size=30),
    )
    def test_full_packet_number_is_what_decode_packet_number_gives(self, start, steps):
        """Truncated packet numbers of any length, forwards across window
        turns and backwards (reordering), hand-built on the wire."""
        simulator, endpoint, wire = bare_endpoint()
        endpoint.recorder = recorder = TraceRecorder()
        largest = None
        for delta, pn_length in steps:
            pn = max(0, (start if largest is None else largest) + delta)
            truncated = pn & ((1 << (8 * pn_length)) - 1)
            expected = decode_packet_number(truncated, pn_length, largest)
            endpoint.receive_datagram(
                bytes([0x40 | (pn_length - 1)])
                + endpoint.local_cid.value
                + truncated.to_bytes(pn_length, "big")
                + PingFrame().encode()
            )
            assert recorder.received[-1].packet_number == expected
            largest = expected if largest is None else max(largest, expected)
            assert endpoint.spaces[PacketSpace.APPLICATION].largest_received == largest


# ----------------------------------------------------------------------
# Stream reassembly against the former rescan-the-buffer loop.
# ----------------------------------------------------------------------


class _RescanReassembly:
    """The endpoint's former stream receive side, transcribed: every
    frame is buffered, and every frame rescans the sorted buffer from
    the start after each chunk it consumes."""

    def __init__(self):
        self.chunks, self.delivered, self.fin_at, self.events = {}, 0, None, []

    def on_frame(self, offset, data, fin):
        if offset + len(data) > self.delivered:
            self.chunks[offset] = data
        if fin:
            self.fin_at = offset + len(data)
        parts, position = [], self.delivered
        while True:
            advanced = False
            for start in sorted(self.chunks):
                chunk = self.chunks[start]
                if start <= position < start + len(chunk):
                    parts.append(chunk[position - start :])
                    position = start + len(chunk)
                    del self.chunks[start]
                    advanced = True
                    break
                if start + len(chunk) <= position:
                    del self.chunks[start]
            if not advanced:
                break
        pulled = b"".join(parts)
        if not pulled and fin is False:
            return
        self.delivered += len(pulled)
        fin_reached = self.fin_at is not None and self.delivered >= self.fin_at
        if pulled or fin_reached:
            self.events.append((pulled, fin_reached))


@st.composite
def stream_arrivals(draw):
    """Frames of one stream as a lossy, reordering path delivers them:
    overlapping retransmissions, duplicates, any order, FIN anywhere."""
    body = bytes(draw(st.lists(st.integers(0, 255), min_size=0, max_size=120)))
    cuts = sorted(draw(st.lists(st.integers(0, len(body)), max_size=8)))
    bounds = [0, *cuts, len(body)]
    pieces = [
        (start, body[start:end], end == len(body))
        for start, end in zip(bounds, bounds[1:])
    ]
    for _ in range(draw(st.integers(0, 4))):  # overlapping retransmissions
        start = draw(st.integers(0, len(body)))
        end = draw(st.integers(start, len(body)))
        pieces.append((start, body[start:end], end == len(body) and draw(st.booleans())))
    return draw(st.permutations(pieces + draw(st.lists(st.sampled_from(pieces), max_size=4))))


class TestStreamReassembly:
    @settings(max_examples=600, deadline=None)
    @given(stream_arrivals())
    def test_delivers_what_the_rescan_loop_delivered(self, arrivals):
        simulator, endpoint, wire = bare_endpoint()
        delivered = []
        endpoint.on_stream_data = lambda stream_id, data, fin: delivered.append((data, fin))
        model = _RescanReassembly()
        for offset, data, fin in arrivals:
            endpoint._handle_stream(4, offset, data, fin)
            model.on_frame(offset, data, fin)
            assert delivered == model.events


# ----------------------------------------------------------------------
# Ack/loss bookkeeping against the former full walk.
# ----------------------------------------------------------------------


class _FullWalkModel:
    """The endpoint's former sender bookkeeping, transcribed.

    Every packet ever sent stays in ``sent`` with an ``acked`` flag, and
    an ACK visits every packet number it covers from the largest down —
    quadratic in connection length, and the definition of what the
    incremental version must compute.
    """

    def __init__(self, config):
        self.max_window = connection_module.MAX_CONGESTION_WINDOW_PACKETS
        self.window = connection_module.INITIAL_CONGESTION_WINDOW_PACKETS
        self.in_flight = 0
        self.sent = {}
        self.rtt = RttEstimator(max_ack_delay_ms=config.max_ack_delay_ms)
        self.largest_acked = None
        self.ping_armed = False
        self.pings_acked = 0

    def on_sent(self, pn, now, frames, flushed_from_queue):
        self.sent[pn] = {
            "time": now,
            "eliciting": any(frame.is_ack_eliciting for frame in frames),
            "ping": any(isinstance(frame, PingFrame) for frame in frames),
            "retransmittable": any(
                isinstance(frame, (StreamFrame, PingFrame, HandshakeDoneFrame))
                for frame in frames
            ),
            "acked": False,
            "retransmitted": False,
        }
        if flushed_from_queue:
            self.in_flight += 1

    def on_ack(self, now, frame):
        newly_acked = 0
        for pn in frame.acked_packet_numbers():
            info = self.sent.get(pn)
            if info is None or info["acked"]:
                continue
            info["acked"] = True
            if self.ping_armed and info["ping"]:
                self.ping_armed = False
                self.pings_acked += 1
            if info["eliciting"]:
                newly_acked += 1
                self.in_flight = max(0, self.in_flight - 1)
            if pn == frame.largest_acknowledged and info["eliciting"]:
                self.rtt.on_ack_received(now, info["time"], frame.ack_delay_us / 1000.0)
        if self.largest_acked is None or frame.largest_acknowledged > self.largest_acked:
            self.largest_acked = frame.largest_acknowledged
        if newly_acked:
            self.window = min(self.window + newly_acked, self.max_window)

    def on_probe_timeout(self, pn):
        """Returns whether a retransmission leaves."""
        info = self.sent.get(pn)
        if info is None or info["acked"] or info["retransmitted"]:
            return False
        info["retransmitted"] = True
        self.window = max(2, self.window // 2)
        return info["retransmittable"]

    def timers_armed(self):
        """Packets a probe timer was armed for: the ack-eliciting ones."""
        return [pn for pn, info in self.sent.items() if info["eliciting"]]

    def outstanding(self):
        return {pn for pn in self.timers_armed() if not self.sent[pn]["acked"]}


operations = st.lists(
    st.one_of(
        st.tuples(st.just("stream"), st.integers(1, 9_000)),
        st.tuples(st.just("ping"), st.just(0)),
        st.tuples(st.just("peer-data"), st.integers(1, 3)),
        # ACK up to a fraction of what was sent, with that many holes.
        st.tuples(st.just("ack"), st.tuples(st.floats(0.0, 1.0), st.integers(0, 3), st.integers(0, 1 << 16))),
        st.tuples(st.just("probe-timeout"), st.floats(0.0, 1.0)),
        st.tuples(st.just("wait"), st.sampled_from([0.0, 0.5, 7.0, 40.0])),
    ),
    min_size=4,
    max_size=40,
)


class TestAckBookkeeping:
    @settings(max_examples=400, deadline=None)
    @given(operations, st.randoms(use_true_random=False))
    def test_same_rtt_samples_window_and_flight_as_the_full_walk(self, plan, random):
        """Random sends, losses (holes in ACKs), late and repeated ACKs
        and probe timeouts: after every step the endpoint agrees with the
        full walk on RTT samples, congestion window, packets in flight,
        largest acknowledged and the set still awaiting an ACK."""
        # A window of 4 capped at 12, so the search reaches the cap.
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(connection_module, "INITIAL_CONGESTION_WINDOW_PACKETS", 4)
            patch.setattr(connection_module, "MAX_CONGESTION_WINDOW_PACKETS", 12)
            self._check_against_full_walk(plan, random)

    def _check_against_full_walk(self, plan, random):
        config = ConnectionConfig()
        simulator, endpoint, wire = bare_endpoint(config)
        state = endpoint.spaces[PacketSpace.APPLICATION]
        model = _FullWalkModel(config)
        endpoint_samples = collect_rtt_samples(endpoint.rtt_estimator)
        model_samples = collect_rtt_samples(model.rtt)
        pings_acked = []
        peer_pn = 0

        def absorb(flushed_from_queue):
            """Enter what the endpoint just transmitted into the model."""
            for pn, data in enumerate(wire, state.next_pn - len(wire)):
                (packet,) = decode_datagram(data, 8)
                carries_stream = any(isinstance(f, StreamFrame) for f in packet.frames)
                model.on_sent(
                    pn, simulator.now_ms, packet.frames, flushed_from_queue and carries_stream
                )
            wire.clear()

        for kind, argument in plan:
            if kind == "stream":
                endpoint.send_stream(0, bytes(argument), fin=False)
                absorb(flushed_from_queue=True)
            elif kind == "ping":
                endpoint.on_ping_acked = lambda: pings_acked.append(simulator.now_ms)
                model.ping_armed = True
                endpoint.send_ping()
                absorb(flushed_from_queue=False)
            elif kind == "peer-data":
                for _ in range(argument):  # makes the endpoint emit ACK-only packets
                    endpoint.receive_datagram(peer_packet(endpoint, peer_pn, [PingFrame()]))
                    peer_pn += 1
                absorb(flushed_from_queue=False)
            elif kind == "ack" and state.next_pn:
                fraction, holes, delay_us = argument
                largest = int(fraction * (state.next_pn - 1))
                lost = {random.randint(0, largest) for _ in range(holes)} - {largest}
                frame = AckFrame(
                    largest, delay_us, pns_to_ranges(set(range(largest + 1)) - lost)
                )
                # The model sees the frame as the wire carries it (the
                # delay rounded to the ack-delay exponent).
                model.on_ack(simulator.now_ms, decode_frames(frame.encode())[0])
                endpoint.receive_datagram(peer_packet(endpoint, peer_pn, [frame]))
                peer_pn += 1
                absorb(flushed_from_queue=True)  # freed slots are refilled at once
            elif kind == "probe-timeout" and model.timers_armed():
                armed = model.timers_armed()
                pn = armed[int(argument * (len(armed) - 1))]
                leaves = model.on_probe_timeout(pn)
                endpoint._pto_fired(PacketSpace.APPLICATION, pn, retries=0)
                assert len(wire) == (1 if leaves else 0)
                absorb(flushed_from_queue=False)
            elif kind == "wait":
                simulator.clock.advance_to(simulator.now_ms + argument)
            assert len(pings_acked) == model.pings_acked
            assert endpoint_samples == model_samples
            assert endpoint._congestion_window == model.window
            assert endpoint._app_packets_in_flight == model.in_flight
            assert state.largest_acked_by_peer == model.largest_acked
            assert set(state.sent) == model.outstanding()
            assert list(state.sent) == sorted(state.sent)

    def test_ping_callback_fires_once_when_its_packet_is_acked(self):
        simulator, endpoint, wire = bare_endpoint()
        fired = []
        endpoint.on_ping_acked = lambda: fired.append(True)
        endpoint.send_stream(0, b"x" * 100, fin=False)  # pn 0
        endpoint.send_ping()  # pn 1
        endpoint.receive_datagram(peer_packet(endpoint, 0, [AckFrame(0)]))
        assert not fired
        endpoint.receive_datagram(peer_packet(endpoint, 1, [AckFrame(1)]))
        endpoint.receive_datagram(peer_packet(endpoint, 2, [AckFrame(1)]))
        assert fired == [True]


# ----------------------------------------------------------------------
# Whole connections: one path, bounded state.
# ----------------------------------------------------------------------


#: The reference codec: every entry point and every object it builds.
REFERENCE_CODEC = {
    datagram_module: ("decode_datagram", "encode_datagram", "QuicPacket", "ParsedPacket"),
    packet_module: ("parse_header", "LongHeader", "ShortHeader", "VersionNegotiationHeader"),
    frames_module: ("decode_frames",),
}


def trap_reference_codec(monkeypatch):
    """Booby-trap the reference codec under every name any ``repro``
    module holds it by (definitions, ``from`` imports, re-exports)."""
    for home, names in REFERENCE_CODEC.items():
        for name in names:
            original = getattr(home, name)

            def forbidden(*args, _name=name, **kwargs):
                raise AssertionError(f"{_name} ran inside a connection")

            for module_name, module in list(sys.modules.items()):
                if module_name.startswith("repro") and getattr(module, name, None) is original:
                    monkeypatch.setattr(module, name, forbidden)


class TestOnePath:
    @pytest.mark.parametrize(
        "server_config, loss, body",
        [
            (ConnectionConfig(), 0.0, 60_000),
            (ConnectionConfig(retry_required=True), 0.0, 1_000),
            (ConnectionConfig(supported_versions=DRAFT_ONLY), 0.0, 1_000),
            (ConnectionConfig(), 0.02, 420_000),
        ],
        ids=["plain", "retry", "version-negotiation", "lossy"],
    )
    def test_no_reference_codec_object_from_the_first_initial(
        self, monkeypatch, server_config, loss, body
    ):
        """With the dataclass codec booby-trapped from t = 0 — not once
        the handshake is over — whole connections still complete."""
        trap_reference_codec(monkeypatch)
        profile = PathProfile(propagation_delay_ms=10.0, loss_probability=loss)
        plan = ResponsePlan(server_header="x", think_time_ms=10.0, write_sizes=(body,))
        result = run_exchange(
            "www.onepath.test", plan, SpinPolicy.SPIN, SpinPolicy.SPIN,
            profile, profile, derive_rng(8, "onepath"), server_config=server_config,
        )
        assert result.success and result.body_bytes == body
        assert bool(result.client._retry_token) == server_config.retry_required
        assert result.client._version_negotiated == (
            server_config.supported_versions == DRAFT_ONLY
        )
        if loss:
            assert any(
                len(state.received_runs) > 1 or state.next_pn > 700
                for state in result.server.spaces.values()
            )

    def test_the_trap_does_catch_the_dataclass_path(self, monkeypatch):
        """An endpoint that validated its handshake datagrams with the
        reference codec again would not get past its first one."""
        trap_reference_codec(monkeypatch)
        monkeypatch.setattr(
            connection_module, "walk_datagram",
            lambda data, cid_length: datagram_module.decode_datagram(data, cid_length),
        )
        profile = PathProfile(propagation_delay_ms=10.0)
        plan = ResponsePlan(server_header="x", write_sizes=(1_000,))
        with pytest.raises(AssertionError, match="decode_datagram ran"):
            run_exchange(
                "www.trap.test", plan, SpinPolicy.SPIN, SpinPolicy.SPIN,
                profile, profile, derive_rng(3, "trap"),
            )


# ----------------------------------------------------------------------
# A malformed datagram raises and changes nothing.
# ----------------------------------------------------------------------


def everything_a_datagram_can_touch(endpoint, simulator):
    return (
        {space: copy.deepcopy(vars(state)) for space, state in endpoint.spaces.items()},
        (endpoint.counts.sent, endpoint.counts.received, endpoint.counts.spin_edges),
        (list(endpoint.recorder.sent), list(endpoint.recorder.received)),
        (list(simulator._queue), simulator._sequence),
        (endpoint.remote_cid, endpoint.version, endpoint.peer_params, endpoint.closed),
    )


class TestMalformedDatagram:
    def test_corrupt_second_coalesced_payload_raises_without_side_effects(self):
        """The server's Initial + Handshake flight with its *second*
        payload corrupt: the well-formed Initial in front of it must not
        be acted on — no count, no qlog row, no received packet number,
        no learned connection ID, no scheduled event."""
        simulator = Simulator()
        client = QuicEndpoint(
            simulator, EndpointRole.CLIENT, ConnectionConfig(), SpinPolicy.SPIN,
            derive_rng(6, "malformed"), recorder=TraceRecorder(),
        )
        client.attach_transport(lambda data: None)
        client.connect()
        server_cid = ConnectionId(bytes(range(100, 108)))

        def header(long_type):
            return LongHeader(long_type, 1, client.local_cid, server_cid, packet_number=0)

        initial = QuicPacket(
            header(LongPacketType.INITIAL), [AckFrame(0), CryptoFrame(0, b"\x00\x00\x00\x01S")]
        ).encode()
        handshake = QuicPacket(
            header(LongPacketType.HANDSHAKE), [CryptoFrame(0, b"certificate...")]
        ).encode()
        before = everything_a_datagram_can_touch(client, simulator)
        corrupt = bytearray(initial + handshake)
        corrupt[-len(b"certificate...") - 3] = 0x3F  # CRYPTO's type byte: no such frame
        assert len(decode_datagram(initial, 8)) == 1  # the packet in front is fine
        with pytest.raises(ValueError):
            client.receive_datagram(bytes(corrupt))
        assert everything_a_datagram_can_touch(client, simulator) == before

        client.receive_datagram(initial + handshake)  # intact, it is acted on
        after = everything_a_datagram_can_touch(client, simulator)
        assert client.counts.received == 2 and client.remote_cid == server_cid
        assert all(now != then for now, then in zip(after[:3], before[:3]))


class TestBoundedState:
    def test_2mb_transfer_keeps_state_within_the_congestion_window(self):
        """Sent-packet state is O(window) throughout — on the downloading
        client too, whose ACK-only packets are never entered — and a
        loss-free path leaves one received run per space."""
        simulator = Simulator()
        profile = PathProfile(propagation_delay_ms=15.0)
        plan = ResponsePlan(server_header="x", think_time_ms=10.0, write_sizes=(2_000_000,))
        handle = build_exchange(
            simulator, "www.bounded.test", [plan], SpinPolicy.SPIN, SpinPolicy.SPIN,
            profile, profile, derive_rng(5, "bounded"),
        )
        endpoints = (handle.client, handle.server)
        high_water = [0, 0]

        def sample():
            for index, endpoint in enumerate(endpoints):
                held = sum(len(state.sent) for state in endpoint.spaces.values())
                high_water[index] = max(high_water[index], held)
            if not handle.client.closed:
                simulator.schedule(2.0, sample)

        sample()
        simulator.run()
        assert handle.client_app.done and handle.client.failed is None
        limit = connection_module.MAX_CONGESTION_WINDOW_PACKETS
        assert handle.server.spaces[PacketSpace.APPLICATION].next_pn > 1_600
        # Control packets (HANDSHAKE_DONE, PING) await their ACKs too but
        # are not charged against the window: a small constant on top.
        assert 0 < high_water[0] <= limit + 4 and limit // 2 < high_water[1] <= limit + 4
        for endpoint in endpoints:
            for state in endpoint.spaces.values():
                assert len(state.sent) <= limit
                assert len(state.received_runs) == 1

    def test_run_exchange_2mb_end_state(self):
        profile = PathProfile(propagation_delay_ms=15.0)
        plan = ResponsePlan(server_header="x", think_time_ms=10.0, write_sizes=(2_000_000,))
        result = run_exchange(
            "www.bounded.test", plan, SpinPolicy.SPIN, SpinPolicy.SPIN,
            profile, profile, derive_rng(5, "bounded"),
        )
        assert result.success
        limit = connection_module.MAX_CONGESTION_WINDOW_PACKETS
        for endpoint in (result.client, result.server):
            for state in endpoint.spaces.values():
                assert len(state.sent) <= limit
                assert len(state.received_runs) == 1
