"""Mid-path taps and spin-based RTT decomposition."""

from statistics import median_high

import pytest

from repro._util.rng import derive_rng
from repro.core.spin import SpinPolicy
from repro.core.tomography import SpinTomographyObserver
from repro.netsim.delays import ConstantDelay
from repro.netsim.events import Simulator
from repro.netsim.path import Path, PathProfile
from repro.web.http3 import ResponsePlan, build_exchange

ONE_WAY_MS = 30.0


class TestPathTap:
    def test_tap_fires_at_fraction_of_delay(self):
        simulator = Simulator()
        taps = []
        arrivals = []
        profile = PathProfile(propagation_delay_ms=10.0, jitter=ConstantDelay(0.0))
        path = Path(simulator, profile, lambda d: arrivals.append(simulator.now_ms),
                    derive_rng(1, "tap"))
        path.install_tap(lambda t, d: taps.append(t), position=0.25)
        path.send(b"x")
        simulator.run()
        assert taps == [pytest.approx(2.5)]
        assert arrivals == [pytest.approx(10.0)]

    def test_tap_position_validated(self):
        simulator = Simulator()
        path = Path(simulator, PathProfile(), lambda d: None, derive_rng(1, "t"))
        with pytest.raises(ValueError):
            path.install_tap(lambda t, d: None, position=1.5)

    def test_second_tap_rejected(self):
        """A path holds one tap: a second one must not silently replace
        the first, which would stop seeing traffic."""
        simulator = Simulator()
        taps = []
        profile = PathProfile(propagation_delay_ms=1.0, jitter=ConstantDelay(0.0))
        path = Path(simulator, profile, lambda d: None, derive_rng(1, "t"))
        path.install_tap(lambda t, d: taps.append(t))
        with pytest.raises(ValueError, match="already has a tap"):
            path.install_tap(lambda t, d: None, position=1.0)
        path.send(b"x")
        simulator.run()
        assert taps == [pytest.approx(0.5)]

    def test_lost_datagram_never_reaches_tap(self):
        simulator = Simulator()
        taps = []
        profile = PathProfile(propagation_delay_ms=1.0, loss_probability=0.99)
        path = Path(simulator, profile, lambda d: None, derive_rng(3, "loss"))
        path.install_tap(lambda t, d: taps.append(t))
        for _ in range(50):
            path.send(b"x")
        simulator.run()
        assert len(taps) < 10


def run_tapped_exchange(tap_position_from_client: float, seed: int = 4):
    """A full exchange with a tomography observer at a mid-path point.

    The observation point sits at fraction ``x`` of the client-server
    path (0 = at the client).  On the uplink that is position ``x`` from
    the sender; on the downlink, position ``1 - x``.
    """
    simulator = Simulator()
    observer = SpinTomographyObserver(short_dcid_length=8)
    profile = PathProfile(
        propagation_delay_ms=ONE_WAY_MS, jitter=ConstantDelay(0.0)
    )
    plan = ResponsePlan(server_header="x", think_time_ms=15.0, write_sizes=(220_000,))
    handle = build_exchange(
        simulator, "www.tomo.test", [plan], SpinPolicy.SPIN, SpinPolicy.SPIN,
        profile, profile, derive_rng(seed, "tomography"), start_ms=0.0,
    )
    # connect() waits for start_ms, so the taps see the first packet.
    handle.uplink.install_tap(
        observer.on_client_datagram, position=tap_position_from_client
    )
    handle.downlink.install_tap(
        observer.on_server_datagram, position=1.0 - tap_position_from_client
    )
    simulator.run()
    return observer


class TestDecomposition:
    def test_components_sum_to_spin_period(self):
        observer = run_tapped_exchange(tap_position_from_client=0.5)
        assert len(observer.samples) >= 3
        for sample in observer.samples:
            assert sample.total_ms == pytest.approx(
                sample.upstream_ms + sample.downstream_ms
            )
            # The full period is at least the path RTT.
            assert sample.total_ms >= 2 * ONE_WAY_MS - 1.0

    def test_midpoint_splits_roughly_evenly(self):
        """At the path midpoint, each steady-state component covers one
        half of the propagation plus that side's end-host turnaround."""
        observer = run_tapped_exchange(tap_position_from_client=0.5)
        steady = observer.samples[1:]
        for sample in steady:
            assert sample.upstream_ms >= ONE_WAY_MS - 1.0
            assert sample.downstream_ms >= ONE_WAY_MS * 0.5 - 1.0

    def test_tap_near_client_shifts_mass_upstream(self):
        near_client = run_tapped_exchange(tap_position_from_client=0.1)
        near_server = run_tapped_exchange(tap_position_from_client=0.9)
        up_client_side = median_high(s.upstream_ms for s in near_client.samples)
        up_server_side = median_high(s.upstream_ms for s in near_server.samples)
        # Close to the client almost the whole path is "upstream";
        # close to the server almost none of it is.
        assert up_client_side > up_server_side + ONE_WAY_MS


class TestRobustness:
    def test_garbage_counted(self):
        observer = SpinTomographyObserver()
        observer.on_client_datagram(0.0, b"\x00")
        assert observer.parse_errors == 1

    def test_reflection_without_cause_ignored(self):
        from repro.quic.connection_id import ConnectionId
        from repro.quic.datagram import QuicPacket, encode_datagram
        from repro.quic.frames import PingFrame
        from repro.quic.packet import ShortHeader

        observer = SpinTomographyObserver(short_dcid_length=8)
        cid = ConnectionId(bytes(8))
        for pn, spin in enumerate([False, True]):
            packet = QuicPacket(
                header=ShortHeader(destination_cid=cid, packet_number=pn, spin_bit=spin),
                frames=(PingFrame(),),
            )
            observer.on_server_datagram(float(pn), encode_datagram([packet]))
        assert observer.samples == []
