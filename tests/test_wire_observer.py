"""The on-path observer reading raw datagrams (the operator's view).

One :class:`SpinTomographyObserver` is installed as the two path
directions' taps and must reach what the client's qlog trace shows.
"""

import pytest
from conftest import tap_exchange

from repro._util.rng import derive_rng
from repro.core.observer import observe_recorder
from repro.core.spin import SpinPolicy
from repro.core.tomography import SpinTomographyObserver
from repro.netsim.delays import ConstantDelay
from repro.netsim.path import PathProfile
from repro.quic.connection import ConnectionConfig
from repro.quic.connection_id import ConnectionId
from repro.quic.datagram import QuicPacket, encode_datagram
from repro.quic.frames import PingFrame
from repro.quic.packet import ShortHeader
from repro.web.http3 import ResponsePlan


def run_observed_exchange(seed=1, plan=None, enable_vec=False, server_policy=SpinPolicy.SPIN):
    observer = SpinTomographyObserver(short_dcid_length=8)
    plan = plan or ResponsePlan(
        server_header="LiteSpeed", think_time_ms=30.0, write_sizes=(40_000,)
    )
    profile = PathProfile(propagation_delay_ms=20.0, jitter=ConstantDelay(0.0))
    config = ConnectionConfig(enable_vec=enable_vec)
    handle = tap_exchange(
        plan,
        profile,
        derive_rng(seed, "wire-observer"),
        uplink_tap=observer.on_client_datagram,
        downlink_tap=observer.on_server_datagram,
        server_policy=server_policy,
        client_config=config,
        server_config=config,
    )
    return observer, handle


class TestAgainstQlogObserver:
    def test_same_spin_rtts_as_qlog_replay(self):
        """The middlebox parsing raw bytes must reach the same samples
        as the scanner's qlog-based analysis."""
        observer, handle = run_observed_exchange()
        wire = observer.observation()
        qlog = observe_recorder(handle.recorder)
        assert wire.rtts_received_ms
        assert wire.rtts_received_ms == pytest.approx(qlog.rtts_received_ms)
        assert wire.values_seen == qlog.values_seen

    def test_packet_number_reconstruction(self):
        observer, handle = run_observed_exchange(
            plan=ResponsePlan(server_header="x", write_sizes=(350_000,))
        )
        wire = observer.observation()
        qlog = observe_recorder(handle.recorder)
        assert wire.edges_received
        assert [e.packet_number for e in wire.edges_received] == [
            e.packet_number for e in qlog.edges_received
        ]

    def test_stats_accounting(self):
        observer, _ = run_observed_exchange()
        assert observer.datagrams > 10
        assert observer.packets >= observer.datagrams  # coalescing
        assert 0 < observer.short_header_packets < observer.packets
        assert observer.parse_errors == 0

    def test_non_spinning_server_shows_all_zero(self):
        observer, _ = run_observed_exchange(server_policy=SpinPolicy.ALWAYS_ZERO)
        assert observer.observation().all_zero


class TestVecOnWire:
    def test_vec_marks_readable_from_raw_bytes(self):
        observer, _ = run_observed_exchange(
            plan=ResponsePlan(server_header="x", write_sizes=(200_000,)),
            enable_vec=True,
        )
        rtts = observer.vec_rtts_ms(threshold=3)
        assert rtts
        assert all(sample >= 35.0 for sample in rtts)

    def test_no_vec_marks_without_extension(self):
        observer, _ = run_observed_exchange(enable_vec=False)
        assert observer.vec_rtts_ms() == []


class TestRobustness:
    def test_garbage_datagrams_counted_not_raised(self):
        observer = SpinTomographyObserver()
        observer.on_server_datagram(0.0, b"\x00\x01\x02")
        observer.on_server_datagram(1.0, b"")
        observer.on_client_datagram(2.0, b"\x00")
        assert observer.parse_errors == 3
        assert observer.datagrams == 3
        assert observer.observation().packets_seen == 0

    def test_client_direction_not_measured(self):
        """Only server-to-client packets feed the RTT estimate."""
        observer = SpinTomographyObserver(short_dcid_length=8)
        cid = ConnectionId(bytes(8))
        for pn, spin in enumerate([False, True, False, True]):
            packet = QuicPacket(
                header=ShortHeader(destination_cid=cid, packet_number=pn, spin_bit=spin),
                frames=(PingFrame(),),
            )
            observer.on_client_datagram(float(pn * 10), encode_datagram([packet]))
        assert observer.observation().packets_seen == 0
        assert observer.short_header_packets == 4
