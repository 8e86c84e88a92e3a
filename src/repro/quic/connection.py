"""Simulated QUIC endpoints.

:class:`QuicEndpoint` implements enough of RFC 9000/9001/9002 to carry a
realistic HTTP/3-style web fetch whose *observable* behaviour matches
what the paper's scanner saw: a three-space handshake (Initial /
Handshake / 1-RTT), byte-exact packets on the wire, honest ``ack_delay``
reporting, an RFC 9002 RTT estimator on the client, slow-start-paced
response flights on the server, loss recovery via PTO retransmission,
and — centrally — the RFC 9000 spin-bit state machine on every 1-RTT
packet.

The TLS exchange is structural, not cryptographic (DESIGN.md Section 6):
each handshake flight is an opaque byte blob with a 4-byte length
prefix, sized like real ClientHello / ServerHello / certificate flights,
so packetization, coalescing, acknowledgment, and loss recovery all
behave as they would for the real thing.

There is one datapath.  Every packet — Initial, Handshake, Version
Negotiation, Retry, 1-RTT — enters through ``_receive``, which reads
header fields where they lie (:mod:`repro.quic.onpath`) and payloads as
plain fields (:func:`~repro.quic.frames.decode_frame_fields`), and leaves
through ``_send``, which writes one buffer.  The dataclass codec is not
run here: it is the reference ``tests/test_datapath.py`` and
``tests/test_onpath.py`` hold both bodies to, and the frame classes
serve only as encoders of the frames an endpoint originates.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass
from enum import Enum
from heapq import heappop, heappush
from typing import Callable

from repro.core.spin import EndpointRole, SpinBitState, SpinPolicy
from repro.core.vec import VecSenderState
from repro.netsim.events import Simulator
from repro.qlog.recorder import TraceRecorder
from repro.quic.connection_id import ConnectionId
from repro.quic.frames import (
    ConnectionCloseFrame,
    CryptoFrame,
    HandshakeDoneFrame,
    NewConnectionIdFrame,
    PingFrame,
    decode_frame_fields,
)
from repro.quic.onpath import long_header_fields, walk_datagram
from repro.quic.packet import HeaderParseError, PacketType
from repro.quic.rtt import RttEstimator
from repro.quic.transport_params import (
    TransportParameters,
    decode_transport_parameters,
)
from repro.quic.varint import encode_varint, varint_length
from repro.quic.version import SUPPORTED_VERSIONS, QuicVersion

__all__ = ["CID_LENGTH", "ConnectionConfig", "PacketCounts", "PacketSpace", "QuicEndpoint"]

#: Synthetic handshake-flight sizes (bytes), shaped like typical TLS 1.3
#: exchanges: ClientHello, ServerHello, the server's EncryptedExtensions+
#: Certificate+Verify+Finished flight, and the client Finished.
CLIENT_HELLO_SIZE = 280
SERVER_HELLO_SIZE = 123
SERVER_HANDSHAKE_FLIGHT_SIZE = 2644
CLIENT_FINISHED_SIZE = 52

_INITIAL_PACKET_MIN_SIZE = 1200

# The endpoint constants: quic-go's behaviour, which is what the paper's
# scanner ran, and one value each for every endpoint of the study.
#: Length of every connection ID an endpoint issues or invents; on-path
#: readers parse short headers with it.
CID_LENGTH = 8
#: Largest STREAM chunk of a 1-RTT packet (the server's handshake flight
#: leaves 80 bytes of it for headers).
MTU_BYTES = 1200
#: The congestion window in 1-RTT packets: where it starts, and its cap.
INITIAL_CONGESTION_WINDOW_PACKETS = 10
MAX_CONGESTION_WINDOW_PACKETS = 256
#: The probe timeout before the first RTT sample, and how many probes a
#: packet gets before the connection fails.
PTO_INITIAL_MS = 600.0
PTO_MAX_RETRIES = 5
#: Ack-eliciting 1-RTT packets received that are acknowledged at once
#: rather than after ``max_ack_delay_ms``.
ACK_ELICITING_THRESHOLD = 2
#: The ``flush_dispatch_ms`` of every server the scan and the monitor
#: simulate.
SERVER_FLUSH_DISPATCH_MS = (0.8, 2.5)


class PacketSpace(Enum):
    """The three packet-number spaces of a QUIC connection."""

    INITIAL = "initial"
    HANDSHAKE = "handshake"
    APPLICATION = "application"


#: Packet types by their qlog names (the ``PacketType`` values): what the
#: send and receive bodies branch on and what the recorder is told.
_INITIAL = PacketType.INITIAL.value
_HANDSHAKE = PacketType.HANDSHAKE.value
_ONE_RTT = PacketType.ONE_RTT.value
_RETRY = PacketType.RETRY.value
_VERSION_NEGOTIATION = PacketType.VERSION_NEGOTIATION.value
#: The packet type of each packet-number space; Version Negotiation and
#: Retry packets have neither a packet number nor a space.
_SPACE_PACKET_TYPE = {
    PacketSpace.INITIAL: _INITIAL,
    PacketSpace.HANDSHAKE: _HANDSHAKE,
    PacketSpace.APPLICATION: _ONE_RTT,
}
_PING = PingFrame().encode()


@dataclass(frozen=True)
class ConnectionConfig:
    """Tunables of one endpoint; defaults follow quic-go's behaviour.

    What no caller varies is a module constant instead: ``CID_LENGTH``,
    ``MTU_BYTES``, ``INITIAL_CONGESTION_WINDOW_PACKETS``,
    ``MAX_CONGESTION_WINDOW_PACKETS``, ``PTO_INITIAL_MS``,
    ``PTO_MAX_RETRIES`` and ``ACK_ELICITING_THRESHOLD``.  Keys never
    update (the key-phase bit stays clear), and a connection ID changes
    only through :meth:`QuicEndpoint.migrate_to_alternate_cid`.
    """

    version: QuicVersion = QuicVersion.VERSION_1
    #: Versions this endpoint can speak, in preference order.  The
    #: client offers ``version`` first and falls back via Version
    #: Negotiation; a server answers VN for unsupported versions.
    supported_versions: tuple[QuicVersion, ...] = SUPPORTED_VERSIONS
    #: Server-side address validation: demand a Retry round trip before
    #: accepting the handshake.
    retry_required: bool = False
    ack_delay_exponent: int = 3
    max_ack_delay_ms: float = 25.0
    #: Enable the Valid Edge Counter extension (repro.core.vec) in the
    #: two reserved short-header bits.  Off by default: RFC-compliant
    #: endpoints send zeroed reserved bits.
    enable_vec: bool = False
    #: Scheduling latency between an ACK freeing congestion window and
    #: the next stream flight leaving the host (kernel/event-loop
    #: wake-up).  Real servers never react in zero time; this keeps
    #: passive spin samples from randomly undercutting the stack's
    #: minimum RTT (which would trip the grease filter).
    flush_dispatch_ms: tuple[float, float] = (0.0, 0.0)
    #: Fault injection (repro.faults): a server holds the ClientHello
    #: for this long before answering — an overloaded or tarpitting
    #: origin.  0 disables (the default, and the fault-free fast path).
    handshake_stall_ms: float = 0.0
    #: Fault injection (repro.faults): close the connection with a
    #: nonzero transport error after sending N 1-RTT packets — the
    #: mid-exchange reset failure mode.  ``None`` disables.
    reset_after_packets: int | None = None
    #: Issue N alternate connection IDs to the peer (one
    #: NEW_CONNECTION_ID frame each, in a single 1-RTT packet) once the
    #: handshake is confirmed.  Client-side this is what makes a
    #: *downlink* CID switch observable: the server can only re-address
    #: its short headers to a client-issued alternate.  0 disables (the
    #: default, preserving pre-migration byte streams).
    issue_alternate_cids: int = 0


@dataclass(slots=True)
class _SentPacketInfo:
    """An ack-eliciting packet awaiting its acknowledgment.

    ``retransmit`` is what a probe timeout re-sends: the encoded
    retransmittable frames (CRYPTO, STREAM, HANDSHAKE_DONE, PING) —
    possibly empty: NEW_CONNECTION_ID elicits an ACK but is not re-sent.
    ``probe_at`` is the packet's probe deadline as ``(time_ms, rank)``
    (``None``: no probe armed), and ``probe_retries`` the probe count it
    was armed with.
    """

    time_ms: float
    retransmit: bytes
    has_ping: bool = False
    retransmitted: bool = False
    probe_at: tuple[float, int] | None = None
    probe_retries: int = 0


class _SpaceState:
    """Per-packet-number-space send/receive bookkeeping.

    Both sides are bounded by what is in flight, not by how long the
    connection has run: ``sent`` holds only ack-eliciting packets the
    peer has not acknowledged (an entry leaves when its ACK arrives;
    packets that elicit no ACK are never entered), in ascending
    packet-number order because that is the order they are sent in;
    ``received_runs`` holds the received packet numbers as ascending,
    non-adjacent ``[smallest, largest]`` runs — one run on a path that
    loses nothing.
    """

    def __init__(self, space: PacketSpace) -> None:
        self.space = space
        self.packet_type = _SPACE_PACKET_TYPE[space]
        self.next_pn = 0
        self.largest_acked_by_peer: int | None = None
        self.largest_received: int | None = None
        self.largest_received_time_ms = 0.0
        self.received_runs: list[list[int]] = []
        self.sent: dict[int, _SentPacketInfo] = {}
        self.pending_ack_eliciting = 0
        self.ack_timer_generation = 0
        # Reassembly buffer for the peer's crypto stream in this space.
        self.crypto_chunks: dict[int, bytes] = {}
        self.crypto_message: bytes | None = None


class PacketCounts:
    """An endpoint's packet counts in plain ints: the packet paths bump
    them and make no telemetry call, whoever runs the exchange calls
    :meth:`export` once it is over, and endpoints of one role on a shared
    simulator may share one.  A spin edge is a received short-header packet
    whose spin value flipped — the raw signal passive RTT estimates rest on.
    """

    __slots__ = ("role", "sent", "received", "spin_edges")

    def __init__(self, role: EndpointRole):
        self.role = role.value
        self.sent = self.received = self.spin_edges = 0

    def export(self, metrics) -> None:
        """Add the counts to the ``quic.*`` series of registry ``metrics``."""
        metrics.counter("quic.packets_sent", role=self.role).inc(self.sent)
        metrics.counter("quic.packets_received", role=self.role).inc(self.received)
        metrics.counter("quic.spin_edges", role=self.role).inc(self.spin_edges)


class QuicEndpoint:
    """One side of a simulated QUIC connection.

    Wire bytes go out through ``transport`` (set via
    :meth:`attach_transport`) and come back in through
    :meth:`receive_datagram`.  Application callbacks:

    * ``on_handshake_keys`` — fired once the endpoint can send 1-RTT
      data (client: after processing the server's handshake flight).
    * ``on_stream_data(stream_id, data, fin)`` — ordered stream bytes.
    * ``on_connection_close()`` — peer closed.

    Whatever closes the endpoint also drops the transport and the
    callbacks (:meth:`release`), after any callback it fires: they are
    how an endpoint holds its peer and its application, and a closed
    endpoint ignores datagrams and timers anyway.  So a finished
    connection is freed by reference count, not left for the garbage
    collector.
    """

    def __init__(
        self,
        simulator: Simulator,
        role: EndpointRole,
        config: ConnectionConfig,
        spin_policy: SpinPolicy,
        rng: random.Random,
        recorder: TraceRecorder | None = None,
        counts: PacketCounts | None = None,
    ):
        self.simulator = simulator
        self.role = role
        self.config = config
        self.rng = rng
        self.recorder = recorder
        self.counts = counts or PacketCounts(role)
        self._last_spin_rx: bool | None = None
        self.spin = SpinBitState(role, spin_policy, rng)
        self.vec_state = VecSenderState() if config.enable_vec else None
        self.rtt_estimator = RttEstimator(max_ack_delay_ms=config.max_ack_delay_ms)

        self.local_cid = ConnectionId.generate(rng, CID_LENGTH)
        self.remote_cid: ConnectionId | None = None
        #: The version currently in use; may change once via VN.
        self.version = int(config.version)
        self._retry_token = b""
        self._version_negotiated = False

        self.spaces = {space: _SpaceState(space) for space in PacketSpace}
        self._state_of = {state.packet_type: state for state in self.spaces.values()}
        self._app_state = self.spaces[PacketSpace.APPLICATION]
        #: Packets of a coalesced flight, held for the packet that
        #: completes their datagram.
        self._held = b""
        #: What this endpoint announces in its handshake flight.
        self.local_params = TransportParameters(
            ack_delay_exponent=config.ack_delay_exponent,
            max_ack_delay_ms=int(config.max_ack_delay_ms),
        )
        #: The peer's announced parameters (None until the handshake
        #: message carrying them is processed); ACK decoding and the
        #: RFC 9002 ack-delay clamp use these, not local assumptions.
        self.peer_params: TransportParameters | None = None
        self.handshake_complete = False  # 1-RTT keys available
        self.handshake_confirmed = False  # HANDSHAKE_DONE seen / FIN processed
        self.closed = False
        self.failed: str | None = None
        #: Error code of a CONNECTION_CLOSE received from the peer
        #: (``None`` until one arrives); a nonzero transport code is the
        #: wire signature of a reset, which the scanner's failure
        #: taxonomy classifies separately from silent losses.
        self.peer_close_error_code: int | None = None
        self._reset_fired = False

        self.transport: Callable[[bytes], None] | None = None
        self.on_handshake_keys: Callable[[], None] | None = None
        self.on_stream_data: Callable[[int, bytes, bool], None] | None = None
        self.on_connection_close: Callable[[], None] | None = None
        self.on_ping_acked: Callable[[], None] | None = None

        # Stream state: send queue of (stream_id, bytes, fin) chunks that
        # respect the congestion window, and per-stream receive buffers.
        self._stream_send_queue: deque[tuple[int, bytes, bool]] = deque()
        self._stream_offsets_sent: dict[int, int] = {}
        self._stream_recv: dict[int, dict[int, bytes]] = {}
        self._stream_recv_delivered: dict[int, int] = {}
        self._stream_recv_fin_at: dict[int, int] = {}
        self._congestion_window = INITIAL_CONGESTION_WINDOW_PACKETS
        self._app_packets_in_flight = 0
        self._app_packets_sent = 0
        #: Alternate CIDs the peer issued via NEW_CONNECTION_ID.
        self._peer_issued_cids: list[ConnectionId] = []

        # One timer (RFC 9002 6.2, Appendix A.8): probe deadlines live on
        # the sent packets, the current ACK generation's delayed-ACK
        # deadline here, each ``(time_ms, rank)``; the queue holds only
        # the wake-ups whose keys are ``_wakes``.
        self._ack_deadline: tuple[float, int] = (0.0, 0)
        self._ack_deadline_generation = -1
        self._wakes: list[tuple[float, int]] = []

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------

    def attach_transport(self, send: Callable[[bytes], None]) -> None:
        """Connect the endpoint's output to a path's ``send``."""
        self.transport = send

    def release(self) -> None:
        """Drop the transport and the application callbacks."""
        self.transport = None
        self.on_handshake_keys = None
        self.on_stream_data = None
        self.on_connection_close = None
        self.on_ping_acked = None

    # ------------------------------------------------------------------
    # Client-side handshake initiation
    # ------------------------------------------------------------------

    def connect(self) -> None:
        """Client: send the Initial packet carrying the ClientHello."""
        if self.role is not EndpointRole.CLIENT:
            raise RuntimeError("only a client can initiate a connection")
        if self.remote_cid is None:
            # The client invents the server's initial DCID (RFC 9000 7.2).
            self.remote_cid = ConnectionId.generate(self.rng, CID_LENGTH)
        self._send_client_hello()

    def _send_client_hello(self) -> None:
        hello = _length_prefixed(
            _handshake_body(self.local_params.encode(), CLIENT_HELLO_SIZE, 0x01)
        )
        frame = CryptoFrame(offset=0, data=hello).encode()
        self._send(_INITIAL, frame, frame, pad_to=_INITIAL_PACKET_MIN_SIZE)

    # ------------------------------------------------------------------
    # Application data
    # ------------------------------------------------------------------

    def send_stream(self, stream_id: int, data: bytes, fin: bool) -> None:
        """Queue stream data; it is sent as fast as the window allows."""
        if not self.handshake_complete:
            raise RuntimeError("cannot send 1-RTT data before handshake keys")
        total = len(data)
        chunk_size = MTU_BYTES
        queue = self._stream_send_queue
        for offset in range(0, total, chunk_size):
            end = offset + chunk_size
            queue.append((stream_id, data[offset:end], fin and end >= total))
        if fin and not data:
            queue.append((stream_id, b"", True))  # a bare FIN
        self._flush_stream_queue()

    def send_ping(self) -> None:
        """Send a PING packet (used by keep-alive style probes)."""
        self._send(_ONE_RTT, _PING, _PING, has_ping=True)

    def close(self, error_code: int = 0, is_application: bool = True) -> None:
        """Send CONNECTION_CLOSE and stop participating."""
        if self.closed:
            return
        frame = ConnectionCloseFrame(error_code=error_code, is_application=is_application)
        self._send(_ONE_RTT if self.handshake_complete else _INITIAL, frame.encode())
        self.closed = True
        self.release()

    # ------------------------------------------------------------------
    # Receive path
    # ------------------------------------------------------------------

    def receive_datagram(self, data: bytes) -> None:
        """Entry point for wire bytes delivered by the path.

        Nothing changes state before the whole datagram is known good,
        so a malformed one raises (``ValueError``) without side effects:
        a datagram that starts with a long header may coalesce several
        packets and is validated by the walk first, a lone 1-RTT packet
        by its own decode.
        """
        if self.closed or not data:
            return
        peer_exponent = (
            self.peer_params.ack_delay_exponent if self.peer_params is not None else 3
        )
        if not data[0] & 0x80:
            self._receive(data, 0, peer_exponent)
            return
        walk_datagram(data, CID_LENGTH)
        at = 0
        size = len(data)
        while at < size:
            at = self._receive(data, at, peer_exponent)

    def _receive(self, data: bytes, at: int, peer_exponent: int) -> int:
        """Receive the packet at ``data[at:]``; returns where the next starts.

        The one receive route, whatever the header form.  Straight-line:
        header fields and payload are read from the datagram where they
        lie and decoded to plain fields before any state is touched; no
        header, packet or frame object is built.  What differs per space
        is a branch on the header form: spin and VEC exist in 1-RTT
        only, 1-RTT ACKs are scheduled where the handshake's ride on its
        next flight, and connection IDs, versions and Retry tokens are
        long-header business.
        """
        first = data[at]
        if first & 0x80:
            # The walk has bounds-checked every packet of the datagram.
            (
                packet_type, version, dcid, scid, token, versions,
                full_pn, pn_length, payload_at, end,
            ) = long_header_fields(data, at)
            packet_type = packet_type.value
        else:
            if not first & 0x40:
                raise HeaderParseError("fixed bit is zero (not a QUIC v1/draft packet)")
            packet_type = _ONE_RTT
            pn_at = at + 1 + CID_LENGTH
            pn_length = (first & 0x03) + 1
            payload_at = pn_at + pn_length
            end = len(data)
            if payload_at > end:
                raise HeaderParseError("short header truncated")
            full_pn = int.from_bytes(data[pn_at:payload_at], "big")
        items, ack_eliciting = decode_frame_fields(data, payload_at, peer_exponent, end)
        # ---- the packet is valid; state changes from here on ----
        now = self.simulator.clock.now_ms
        self.counts.received += 1
        if first & 0x80:
            if packet_type == _VERSION_NEGOTIATION or packet_type == _RETRY:
                # No packet number, no frames, no space.
                if self.recorder is not None:
                    self.recorder.on_packet_received(now, packet_type, 0, None, 0)
                if packet_type == _RETRY:
                    self._handle_retry(scid, token)
                else:
                    self._handle_version_negotiation(versions)
                return end
            if self.role is EndpointRole.SERVER and packet_type == _INITIAL:
                if version not in {int(v) for v in self.config.supported_versions}:
                    self._send_version_negotiation(dcid, scid)
                    return end
                if self.config.retry_required and not token:
                    self._send_retry(version, scid)
                    return end
                self.version = version
            state = self._state_of[packet_type]
            spin_bit = None
            vec = 0
        else:
            state = self._app_state
            spin_bit = first & 0x20 != 0
            vec = (first & 0x18) >> 3
            if spin_bit != self._last_spin_rx:
                self.counts.spin_edges += self._last_spin_rx is not None
                self._last_spin_rx = spin_bit

        # Packet-number reconstruction (RFC 9000 Appendix A.3).
        largest = state.largest_received
        if largest is not None:
            window = 1 << (8 * pn_length)
            expected = largest + 1
            full_pn |= expected & ~(window - 1)
            if full_pn <= expected - (window >> 1) and full_pn < (1 << 62) - window:
                full_pn += window
            elif full_pn > expected + (window >> 1) and full_pn >= window:
                full_pn -= window
        if self.recorder is not None:
            self.recorder.on_packet_received(
                now, packet_type, full_pn, spin_bit, end - at, vec
            )

        if not _note_received(state.received_runs, full_pn):
            return end  # duplicate: recorded, not reprocessed
        if largest is None or full_pn > largest:
            state.largest_received = full_pn
            if ack_eliciting:
                state.largest_received_time_ms = now
            if spin_bit is not None:
                # Spin and VEC state follow the highest packet number
                # only, which in this space is ``largest_received``.
                self.spin.on_packet_received(full_pn, spin_bit)
                if self.vec_state is not None:
                    self.vec_state.on_packet_received(full_pn, spin_bit, vec)
        if first & 0x80 and (
            self.remote_cid is None
            or (self.role is EndpointRole.CLIENT and packet_type == _INITIAL)
        ):
            # The server replaces the client-invented DCID with its own
            # source CID (RFC 9000 7.2).
            self.remote_cid = ConnectionId(scid)

        for item in items:
            kind = item[0]
            if kind == 0x08:
                self._handle_stream(item[1], item[2], item[3], item[4])
            elif kind == 0x02:
                self._handle_ack(state, item[1], item[2], item[3])
            elif kind == 0x06:
                self._handle_crypto(state, item[1], item[2])
            elif kind == 0x18:
                self._peer_issued_cids.append(ConnectionId(item[3]))
            elif kind == 0x1E:
                self._handle_handshake_done()
            else:  # 0x1C, CONNECTION_CLOSE
                self.closed = True
                self.peer_close_error_code = item[1]
                if self.on_connection_close is not None:
                    self.on_connection_close()
                self.release()

        if ack_eliciting and not self.closed:
            state.pending_ack_eliciting += 1
            # The handshake spaces acknowledge promptly (RFC 9002 6.2.1):
            # the choreography piggybacks their ACKs on its next flight.
            if not first & 0x80:
                if state.pending_ack_eliciting >= ACK_ELICITING_THRESHOLD:
                    self._send(_ONE_RTT, ack=True)
                else:
                    self._delay_ack(state, now + self.config.max_ack_delay_ms)
        return end

    def _handle_handshake_done(self) -> None:
        first_confirm = not self.handshake_confirmed
        self.handshake_confirmed = True
        if (
            first_confirm
            and self.role is EndpointRole.CLIENT
            and self.config.issue_alternate_cids > 0
        ):
            self._issue_alternate_cids()

    # ------------------------------------------------------------------
    # Version negotiation and address validation (Retry)
    # ------------------------------------------------------------------

    def _handle_version_negotiation(self, offered: tuple[int, ...]) -> None:
        """Client: pick a mutually supported version and start over."""
        if (
            self.role is not EndpointRole.CLIENT
            or self.handshake_complete
            or self._version_negotiated
        ):
            return  # stale or spoofed VN packets are ignored (RFC 9000 6.2)
        chosen = next(
            (
                int(candidate)
                for candidate in self.config.supported_versions
                if int(candidate) in offered
            ),
            None,
        )
        if chosen is None:
            self.failed = "version negotiation failed: no common version"
            self.closed = True
            self.release()
            return
        self._version_negotiated = True
        self.version = chosen
        self._abandon_initial_flight()
        self._send_client_hello()

    def _handle_retry(self, scid: bytes, token: bytes) -> None:
        """Client: adopt the Retry token and the server's new CID."""
        if self.role is not EndpointRole.CLIENT or self.handshake_complete:
            return
        if self._retry_token:
            return  # at most one Retry per connection (RFC 9000 17.2.5)
        if not token:
            return
        self._retry_token = token
        self.remote_cid = ConnectionId(scid)
        self._abandon_initial_flight()
        self._send_client_hello()

    def _send_version_negotiation(self, dcid: bytes, scid: bytes) -> None:
        """Server: answer the Initial addressed ``dcid`` <- ``scid`` with
        the supported version list (RFC 9000 6.1)."""
        packet = _long_header_start(0xC0, 0, scid, dcid)  # version 0 marks negotiation
        for version in self.config.supported_versions:
            packet += int(version).to_bytes(4, "big")
        self._send(_VERSION_NEGOTIATION, bytes(packet))

    def _send_retry(self, version: int, scid: bytes) -> None:
        """Server: demand address validation before committing state."""
        packet = _long_header_start(0xF0, version, scid, self.local_cid.value)
        packet += b"retry:" + scid  # the token runs to the end of the packet
        self._send(_RETRY, bytes(packet))

    def _learn_peer_params(self, crypto_message: bytes | None) -> None:
        """Extract the peer's transport parameters from a crypto flight.

        Applies the RFC 9002 consequences immediately: the estimator's
        ack-delay clamp follows the *peer's* announced max_ack_delay.
        """
        if crypto_message is None or self.peer_params is not None:
            return
        if len(crypto_message) < 2:
            return
        tp_length = int.from_bytes(crypto_message[:2], "big")
        if 2 + tp_length > len(crypto_message):
            return
        try:
            params = decode_transport_parameters(crypto_message[2 : 2 + tp_length])
        except ValueError:
            return  # tolerate peers without a parseable block
        self.peer_params = params
        self.rtt_estimator.max_ack_delay_ms = float(params.max_ack_delay_ms)

    def _abandon_initial_flight(self) -> None:
        """Stop retransmitting pre-VN/pre-Retry Initial packets."""
        state = self.spaces[PacketSpace.INITIAL]
        state.sent.clear()
        state.crypto_chunks.clear()
        state.crypto_message = None

    # ------------------------------------------------------------------
    # ACK handling and generation
    # ------------------------------------------------------------------

    def _handle_ack(
        self,
        state: _SpaceState,
        largest: int,
        ack_delay_us: int,
        ranges: list[tuple[int, int]],
    ) -> None:
        """Process an ACK of ``ranges`` (``(smallest, largest)``, descending).

        Only packets still awaiting an acknowledgment are visited:
        ``state.sent`` is in ascending packet-number order and holds
        nothing the peer has acknowledged before, so the scan stops at
        the first packet number above ``largest``.
        """
        newly_acked: list[int] = []
        index = len(ranges) - 1
        low, high = ranges[index]
        for pn in state.sent:
            while pn > high and index > 0:
                index -= 1
                low, high = ranges[index]
            if pn > high:
                break
            if pn >= low:
                newly_acked.append(pn)
        is_application = state is self._app_state
        now = self.simulator.clock.now_ms
        # Highest first: the RTT sample is taken before older packets
        # release their callbacks.
        for pn in reversed(newly_acked):
            info = state.sent.pop(pn)
            if self.on_ping_acked is not None and info.has_ping:
                callback, self.on_ping_acked = self.on_ping_acked, None
                callback()
            if is_application and self._app_packets_in_flight > 0:
                self._app_packets_in_flight -= 1
            if pn == largest:
                sample = self.rtt_estimator.on_ack_received(
                    now,
                    info.time_ms,
                    ack_delay_us / 1000.0,
                    handshake_confirmed=self.handshake_confirmed,
                )
                if self.recorder is not None:
                    self.recorder.on_rtt_sample(
                        now,
                        sample.latest_rtt_ms,
                        sample.adjusted_rtt_ms,
                        sample.ack_delay_ms,
                        self.rtt_estimator.smoothed_rtt_ms,
                        self.rtt_estimator.min_rtt_ms or sample.latest_rtt_ms,
                    )
        if state.largest_acked_by_peer is None or largest > state.largest_acked_by_peer:
            state.largest_acked_by_peer = largest
        if is_application and newly_acked:
            grown = self._congestion_window + len(newly_acked)
            self._congestion_window = min(grown, MAX_CONGESTION_WINDOW_PACKETS)
            low_ms, high_ms = self.config.flush_dispatch_ms
            if high_ms > 0.0 and self._stream_send_queue:
                self.simulator.schedule(
                    self.rng.uniform(low_ms, high_ms), self._flush_stream_queue
                )
            else:
                self._flush_stream_queue()

    def _delay_ack(self, state: _SpaceState, deadline_ms: float) -> None:
        """Owe the peer an ACK by ``deadline_ms``.  Only the generation's
        first deadline can act: it sends the ACK, which starts the next
        generation, or finds it sent."""
        rank = self.simulator.deadline(deadline_ms)
        if self._ack_deadline_generation != state.ack_timer_generation:
            self._ack_deadline_generation = state.ack_timer_generation
            self._ack_deadline = key = (deadline_ms, rank)
            if not self._wakes or key < self._wakes[0]:
                self._wake_at(key)

    def _delayed_ack_fired(self, generation: int) -> None:
        state = self._app_state
        if self.closed or state.ack_timer_generation != generation:
            return
        if state.pending_ack_eliciting > 0:
            self._send(_ONE_RTT, ack=True)

    # ------------------------------------------------------------------
    # Crypto (handshake) choreography
    # ------------------------------------------------------------------

    def _handle_crypto(self, state: _SpaceState, offset: int, data: bytes) -> None:
        if state.crypto_message is not None:
            return  # flight already fully processed (retransmission)
        state.crypto_chunks[offset] = data
        message = _try_extract_message(
            _contiguous_from(state.crypto_chunks, 0, consume=False)
        )
        if message is None:
            return
        state.crypto_message = message
        self._on_crypto_message(state.space)

    def _on_crypto_message(self, space: PacketSpace) -> None:
        if self.role is EndpointRole.SERVER and space is PacketSpace.INITIAL:
            stall = self.config.handshake_stall_ms
            if stall > 0.0:
                self.simulator.schedule(stall, self._server_send_handshake_flight)
            else:
                self._server_send_handshake_flight()
        elif self.role is EndpointRole.CLIENT and space is PacketSpace.HANDSHAKE:
            self._client_finish_handshake()
        elif self.role is EndpointRole.SERVER and space is PacketSpace.HANDSHAKE:
            self._server_confirm_handshake()

    def _server_send_handshake_flight(self) -> None:
        """Server: ClientHello processed — send SH + handshake flight.

        The ClientHello carries the client's transport parameters; the
        server's EncryptedExtensions (inside the handshake flight)
        carries its own.
        """
        if self.closed:
            return  # a stalled flight may fire after the client gave up
        self._learn_peer_params(self.spaces[PacketSpace.INITIAL].crypto_message)
        server_hello = _length_prefixed(b"\x02" * SERVER_HELLO_SIZE)
        flight = _length_prefixed(
            _handshake_body(
                self.local_params.encode(), SERVER_HANDSHAKE_FLIGHT_SIZE, 0x0B
            )
        )
        chunk_size = MTU_BYTES - 80  # leave header room

        # The Initial (ACK + ServerHello) shares its datagram with the
        # first Handshake packet; the rest of the flight goes alone.
        frame = CryptoFrame(0, server_hello).encode()
        self._send(_INITIAL, frame, frame, ack=True, hold=True)
        for offset in range(0, len(flight), chunk_size):
            frame = CryptoFrame(offset, flight[offset : offset + chunk_size]).encode()
            self._send(_HANDSHAKE, frame, frame)
        self.handshake_complete = True
        if self.on_handshake_keys is not None:
            self.on_handshake_keys()

    def _client_finish_handshake(self) -> None:
        """Client: server flight processed — send Finished, enable 1-RTT.

        The client's second flight coalesces an Initial ACK (so the
        server's ServerHello packet is acknowledged and its probe timer
        disarmed) with the Handshake packet carrying ACK + Finished.
        """
        self._learn_peer_params(self.spaces[PacketSpace.HANDSHAKE].crypto_message)
        finished = CryptoFrame(
            0, _length_prefixed(b"\x14" * CLIENT_FINISHED_SIZE)
        ).encode()
        # The server's Initial may still be in flight (reordered after
        # the handshake packets); ack it only if seen.  Sent alone, the
        # Finished arms no probe timer: it never has, arming it moves
        # ``schedule`` calls, and no pin covers that case yet.
        initial_seen = self.spaces[PacketSpace.INITIAL].largest_received is not None
        if initial_seen:
            self._send(_INITIAL, ack=True, hold=True)
        self._send(_HANDSHAKE, finished, finished, ack=True, probe=initial_seen)
        self.handshake_complete = True
        if self.on_handshake_keys is not None:
            self.on_handshake_keys()

    def _server_confirm_handshake(self) -> None:
        """Server: client Finished processed — confirm via HANDSHAKE_DONE."""
        self.handshake_confirmed = True
        self._send(_HANDSHAKE, ack=True, hold=True)
        alternate = ConnectionId.generate(self.rng, CID_LENGTH)
        done = HandshakeDoneFrame().encode()
        new_cid = NewConnectionIdFrame(
            sequence_number=1, retire_prior_to=0, connection_id=bytes(alternate)
        )
        # NEW_CONNECTION_ID is not re-sent on a probe timeout.
        self._send(_ONE_RTT, done + new_cid.encode(), done)

    # ------------------------------------------------------------------
    # Connection migration (RFC 9000 Section 5.1.1 / 9)
    # ------------------------------------------------------------------

    def _issue_alternate_cids(self) -> None:
        """Send the peer ``issue_alternate_cids`` fresh CIDs in one packet.

        Sequence numbers start at 1: per RFC 9000 5.1.1 they are scoped
        to the issuer, and this endpoint's handshake CID implicitly holds
        sequence number 0.
        """
        frames = bytearray()
        for sequence in range(1, self.config.issue_alternate_cids + 1):
            alternate = ConnectionId.generate(self.rng, CID_LENGTH)
            frames += NewConnectionIdFrame(
                sequence_number=sequence,
                retire_prior_to=0,
                connection_id=bytes(alternate),
            ).encode()
        self._send(_ONE_RTT, bytes(frames), b"")

    def migrate_to_alternate_cid(self) -> ConnectionId | None:
        """Switch outgoing short headers to a peer-issued alternate CID.

        Returns the CID now in use, or ``None`` when the connection is
        closed or the peer never issued one (the caller retries later:
        the NEW_CONNECTION_ID flight may still be in flight).  The old
        CID is implicitly retired — it is never reused.
        """
        if self.closed or not self._peer_issued_cids:
            return None
        previous = self.remote_cid
        self.remote_cid = self._peer_issued_cids.pop(0)
        if self.recorder is not None:
            self.recorder.metadata.setdefault("cid_updates", []).append(
                {
                    "time_ms": self.simulator.now_ms,
                    "previous": previous.hex if previous is not None else None,
                    "current": self.remote_cid.hex,
                }
            )
        return self.remote_cid

    # ------------------------------------------------------------------
    # Stream handling
    # ------------------------------------------------------------------

    def _handle_stream(self, stream_id: int, offset: int, data: bytes, fin: bool) -> None:
        delivered = self._stream_recv_delivered.get(stream_id, 0)
        chunks = self._stream_recv.get(stream_id)
        if fin:
            self._stream_recv_fin_at[stream_id] = offset + len(data)
        if chunks or offset != delivered:
            # Out of order, or behind a hole: buffer, then deliver any
            # newly contiguous bytes.  (In order with nothing buffered,
            # the frame's bytes are exactly what that would yield.)
            if chunks is None:
                chunks = self._stream_recv[stream_id] = {}
            if offset + len(data) > delivered:
                chunks[offset] = data
            # No buffered chunk reaches back to the read position (it
            # would have been delivered), so only a frame starting at
            # or below it can move it.
            data = _contiguous_from(chunks, delivered) if offset <= delivered else b""
        if not data and not fin:
            return
        new_delivered = delivered + len(data)
        self._stream_recv_delivered[stream_id] = new_delivered
        fin_at = self._stream_recv_fin_at.get(stream_id)
        fin_reached = fin_at is not None and new_delivered >= fin_at
        if self.on_stream_data is not None and (data or fin_reached):
            self.on_stream_data(stream_id, data, fin_reached)

    def _flush_stream_queue(self) -> None:
        queue = self._stream_send_queue
        state = self._app_state
        offsets = self._stream_offsets_sent
        while (
            queue
            and self._app_packets_in_flight < self._congestion_window
            and not self.closed
        ):
            stream_id, chunk, fin = queue.popleft()
            offset = offsets.get(stream_id, 0)
            # STREAM with OFF and LEN bits set, as StreamFrame.encode().
            frame = b"".join(
                (
                    b"\x0f" if fin else b"\x0e",
                    encode_varint(stream_id),
                    encode_varint(offset),
                    encode_varint(len(chunk)),
                    chunk,
                )
            )
            offsets[stream_id] = offset + len(chunk)
            self._send(_ONE_RTT, frame, frame, ack=state.pending_ack_eliciting > 0)
            self._app_packets_in_flight += 1

    # ------------------------------------------------------------------
    # Packet construction and transmission
    # ------------------------------------------------------------------

    def _send(
        self,
        packet_type: str,
        frames: bytes = b"",
        retransmit: bytes | None = None,
        *,
        ack: bool = False,
        has_ping: bool = False,
        retries: int = 0,
        pad_to: int = 0,
        hold: bool = False,
        probe: bool = True,
    ) -> None:
        """Build and send one packet — the one send route.

        ``frames`` is the encoded payload after the optional ACK, which
        (``ack=True``) is written straight from the receive state of the
        packet's space.  ``retransmit`` says whether the packet is
        ack-eliciting: ``None`` for one that is not (ACK,
        CONNECTION_CLOSE), otherwise the encoded frames a probe timeout
        re-sends — ``frames`` itself for CRYPTO, STREAM and PING,
        possibly empty.  ``retries`` is the probe count of a
        retransmission; ``probe=False`` arms no probe timer.  ``pad_to``
        pads an Initial.  ``hold=True`` keeps the packet back for the
        next one sent, which follows it in the same datagram (the
        handshake's coalesced flights).  For Version Negotiation and
        Retry — no packet number, no space — ``frames`` is the packet.

        Straight-line: header, truncated packet number, ACK and frame
        bytes go into one buffer without a header, packet or frame
        object, then sent-bookkeeping, qlog, count, probe timer,
        transport and reset fault follow in one order for every packet.
        """
        config = self.config
        now = self.simulator.clock.now_ms
        spin_bit = None
        vec = 0
        short = packet_type == _ONE_RTT
        state = self._app_state if short else self._state_of.get(packet_type)
        if state is None:
            pn = 0
            data = frames
        else:
            pn = state.next_pn
            state.next_pn = pn + 1
            if self.remote_cid is None:
                raise RuntimeError("remote connection ID unknown")
            # Truncated packet number (RFC 9000 Appendix A.2): twice the
            # unacknowledged range must fit.
            largest_acked = state.largest_acked_by_peer
            unacked = pn + 1 if largest_acked is None else pn - largest_acked
            pn_length = (unacked.bit_length() + 8) // 8
            if pn_length > 4:
                raise ValueError("packet number range too large to encode")
            if short:
                spin_bit = self.spin.outgoing_value()
                self._app_packets_sent += 1
                if self.vec_state is not None:
                    vec = self.vec_state.vec_for_outgoing(spin_bit)
                first = 0x40 | (vec << 3) | (pn_length - 1)
                if spin_bit:
                    first |= 0x20
                buf = bytearray((first,))
                buf += self.remote_cid.value
            else:
                buf = _long_header_start(
                    (0xC0 if packet_type == _INITIAL else 0xE0) | (pn_length - 1),
                    self.version,
                    self.remote_cid.value,
                    self.local_cid.value,
                )
                if packet_type == _INITIAL:
                    token = self._retry_token if self.role is EndpointRole.CLIENT else b""
                    buf += encode_varint(len(token))
                    buf += token
                length_at = len(buf)
            buf += (pn & ((1 << (8 * pn_length)) - 1)).to_bytes(pn_length, "big")
            if ack:
                # The ACK frame, as AckFrame.encode() would write it, from
                # the received runs (newest first on the wire); sending it
                # settles the space's pending-ACK state.
                if state.largest_received is None:
                    raise RuntimeError("nothing to acknowledge")
                delay_us = int(max(0.0, now - state.largest_received_time_ms) * 1000.0)
                state.pending_ack_eliciting = 0
                state.ack_timer_generation += 1
                runs = state.received_runs
                low, high = runs[-1]
                buf.append(0x02)
                buf += encode_varint(high)
                buf += encode_varint(delay_us >> config.ack_delay_exponent)
                buf += encode_varint(len(runs) - 1)
                buf += encode_varint(high - low)
                for index in range(len(runs) - 2, -1, -1):
                    run_low, run_high = runs[index]
                    buf += encode_varint(low - run_high - 2)
                    buf += encode_varint(run_high - run_low)
                    low = run_low
            if not short:
                # ``Length`` covers packet number and payload (RFC 9000
                # 17.2) and sits before them; padding counts the packet
                # as it stands, Length field included.
                length = len(buf) - length_at + len(frames)
                shortfall = pad_to - (length_at + varint_length(length) + length)
                if shortfall > 0:
                    frames += bytes(shortfall)
                    length += shortfall
                buf[length_at:length_at] = encode_varint(length)
            data = bytes(buf) + frames
            if retransmit is not None:
                state.sent[pn] = _SentPacketInfo(now, retransmit, has_ping)

        if self.transport is None:
            raise RuntimeError("endpoint has no transport attached")
        held = self._held
        if hold or held or state is None:
            size = 0  # qlog records no size for coalesced packets, VN or Retry
        else:
            size = len(data)
        self.counts.sent += 1
        if self.recorder is not None:
            self.recorder.on_packet_sent(now, packet_type, pn, spin_bit, size, vec)
        probe = probe and retransmit is not None
        if hold or held:
            # Coalesced: timers are armed before the datagram leaves.
            if probe:
                self._arm_pto(state, pn)
            if hold:
                self._held = held + data
                return
            data = held + data
            self._held = b""
        self.transport(data)
        reset_after = config.reset_after_packets
        if (
            reset_after is not None
            and not self._reset_fired
            and not self.closed
            and self._app_packets_sent >= reset_after
        ):
            # The fault-injected reset, checked after every transmission
            # and scheduled rather than issued inline: close() transmits.
            self._reset_fired = True
            self.simulator.schedule(
                0.0, lambda: self.close(error_code=0x01, is_application=False)
            )
        if probe and not held:
            self._arm_pto(state, pn, retries)

    # ------------------------------------------------------------------
    # Loss recovery (probe timeout)
    # ------------------------------------------------------------------

    def _arm_pto(self, state: _SpaceState, pn: int, retries: int = 0) -> None:
        """Set packet ``pn``'s probe deadline, ``interval * 2^retries`` out."""
        rtt = self.rtt_estimator
        if rtt.latest_rtt_ms is not None:  # has a sample
            interval = (
                rtt.smoothed_rtt_ms + 4.0 * rtt.rttvar_ms + self.config.max_ack_delay_ms
            )
        else:
            interval = PTO_INITIAL_MS
        info = state.sent[pn]
        time_ms = self.simulator.clock.now_ms + interval * (2**retries)
        info.probe_at = key = (time_ms, self.simulator.deadline(time_ms))
        info.probe_retries = retries
        if not self._wakes or key < self._wakes[0]:
            self._wake_at(key)

    def _wake_at(self, key: tuple[float, int]) -> None:
        """Schedule a wake at deadline ``key``; callers check that no
        wake comes first."""
        heappush(self._wakes, key)
        self.simulator.schedule_at(key[0], self._wake, key[1])

    def _next_deadline(self) -> tuple[tuple[float, int], _SpaceState, int | None] | None:
        """The earliest deadline that can still act, as ``(key, space
        state, packet number)`` — ``None`` for the number of the delayed
        ACK — or ``None``.  A probe deadline is dead once its packet is
        acknowledged, probed or abandoned, the delayed ACK's once its
        generation's ACK is sent, and both once the endpoint is closed."""
        if self.closed:
            return None
        due = None
        app = self._app_state
        if self._ack_deadline_generation == app.ack_timer_generation:
            due = (self._ack_deadline, app, None)
        for state in self.spaces.values():
            for pn, info in state.sent.items():
                key = info.probe_at
                if key is not None and not info.retransmitted and (
                    due is None or key < due[0]
                ):
                    due = (key, state, pn)
        return due

    def _wake(self) -> None:
        """The endpoint's one timer: run the deadline it was set for, if
        that can still act, then wake again at the next one that can."""
        key = heappop(self._wakes)
        due = self._next_deadline()
        if due is not None and due[0] <= key:
            _, state, pn = due
            if pn is None:
                self._delayed_ack_fired(self._ack_deadline_generation)
            else:
                self._pto_fired(state.space, pn, state.sent[pn].probe_retries)
            due = self._next_deadline()
        if due is not None and (not self._wakes or due[0] < self._wakes[0]):
            self._wake_at(due[0])

    def _pto_fired(self, space: PacketSpace, pn: int, retries: int) -> None:
        if self.closed:
            return
        state = self.spaces[space]
        info = state.sent.get(pn)
        if info is None or info.retransmitted:
            return  # acknowledged, or already probed
        if retries >= PTO_MAX_RETRIES:
            self.failed = f"pto exhausted in {space.value} space (pn {pn})"
            self.closed = True
            self.release()
            return
        info.retransmitted = True
        if space is PacketSpace.APPLICATION:
            # Loss response (NewReno-flavoured): halve the window.  The
            # retransmission inherits the lost packet's congestion slot,
            # so in-flight accounting is settled by its acknowledgment.
            self._congestion_window = max(2, self._congestion_window // 2)
        # Re-send the retransmittable frames in a fresh packet.
        if not info.retransmit:
            return
        self._send(
            state.packet_type,
            info.retransmit,
            info.retransmit,
            has_ping=info.has_ping,
            retries=retries + 1,
        )


# ----------------------------------------------------------------------
# Small helpers
# ----------------------------------------------------------------------


def _long_header_start(first: int, version: int, dcid: bytes, scid: bytes) -> bytearray:
    """What every long header starts with: first byte, version, both CIDs."""
    buf = bytearray((first,))
    buf += version.to_bytes(4, "big")
    buf.append(len(dcid))
    buf += dcid
    buf.append(len(scid))
    buf += scid
    return buf


def _handshake_body(tp_block: bytes, nominal_size: int, filler: int) -> bytes:
    """A crypto-flight body: 2-byte TP length, TP block, opaque filler.

    The filler keeps each flight at its realistic nominal size so
    packetization and loss behaviour stay unchanged.
    """
    head = len(tp_block).to_bytes(2, "big") + tp_block
    if len(head) >= nominal_size:
        return head
    return head + bytes([filler]) * (nominal_size - len(head))


def _length_prefixed(body: bytes) -> bytes:
    """Crypto-flight framing: 4-byte big-endian length plus body."""
    return len(body).to_bytes(4, "big") + body


def _try_extract_message(buffered: bytes) -> bytes | None:
    """Return the flight body once the full length-prefixed blob arrived."""
    if len(buffered) < 4:
        return None
    body_length = int.from_bytes(buffered[:4], "big")
    if len(buffered) < 4 + body_length:
        return None
    return buffered[4 : 4 + body_length]


def _contiguous_from(chunks: dict[int, bytes], start: int, consume: bool = True) -> bytes:
    """Pull contiguous bytes from an offset-indexed chunk buffer.

    Overlapping retransmissions are tolerated: a chunk whose range was
    already (partly) delivered contributes only its new suffix, and one
    wholly delivered is dropped.  One pass in offset order suffices —
    every chunk at or below the read position either extends it or is
    stale, and the first chunk beyond it is a hole.
    """
    parts: list[bytes] = []
    position = start
    for offset in sorted(chunks):
        if offset > position:
            break
        data = chunks[offset]
        if position < offset + len(data):
            parts.append(data[position - offset :])
            position = offset + len(data)
        if consume:
            del chunks[offset]
    return b"".join(parts)


def _note_received(runs: list[list[int]], pn: int) -> bool:
    """Enter ``pn`` into ``runs``; ``False`` if it was already there.

    ``runs`` are ascending ``[smallest, largest]`` packet-number runs,
    never adjacent (adjacent runs are merged).  Arrivals are mostly in
    order, so the search walks back from the newest run.
    """
    index = len(runs) - 1
    while index >= 0 and runs[index][0] > pn:
        index -= 1
    # runs[index] is the last run starting at or below pn (if any).
    if index >= 0 and pn <= runs[index][1]:
        return False
    joins_below = index >= 0 and runs[index][1] + 1 == pn
    joins_above = index + 1 < len(runs) and runs[index + 1][0] - 1 == pn
    if joins_below and joins_above:
        runs[index][1] = runs.pop(index + 1)[1]
    elif joins_below:
        runs[index][1] = pn
    elif joins_above:
        runs[index + 1][0] = pn
    else:
        runs.insert(index + 1, [pn, pn])
    return True
