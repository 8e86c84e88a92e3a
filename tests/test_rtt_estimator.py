"""RFC 9002 RTT estimation."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.quic.rtt import RttEstimator


class TestFirstSample:
    def test_initializes_smoothed_and_var(self):
        est = RttEstimator()
        est.on_ack_received(now_ms=100.0, send_time_ms=60.0, ack_delay_ms=0.0)
        assert est.latest_rtt_ms == 40.0
        assert est.smoothed_rtt_ms == 40.0
        assert est.rttvar_ms == 20.0
        assert est.min_rtt_ms == 40.0
        assert len(est.samples) == 1


class TestAckDelayHandling:
    def test_min_rtt_ignores_ack_delay(self):
        est = RttEstimator()
        est.on_ack_received(100.0, 50.0, ack_delay_ms=20.0)
        assert est.min_rtt_ms == 50.0  # latest, not adjusted

    def test_ack_delay_subtracted_when_possible(self):
        est = RttEstimator()
        est.on_ack_received(100.0, 60.0, ack_delay_ms=0.0)  # min_rtt 40
        sample = est.on_ack_received(200.0, 140.0, ack_delay_ms=10.0)
        assert sample.latest_rtt_ms == 60.0
        assert sample.adjusted_rtt_ms == 50.0

    def test_ack_delay_not_pushed_below_min_rtt(self):
        est = RttEstimator()
        est.on_ack_received(100.0, 60.0, ack_delay_ms=0.0)  # min_rtt 40
        sample = est.on_ack_received(200.0, 155.0, ack_delay_ms=20.0)
        # 45 - 20 = 25 would undercut min_rtt 40: keep the raw latest.
        assert sample.adjusted_rtt_ms == 45.0

    def test_ack_delay_clamped_after_handshake(self):
        est = RttEstimator(max_ack_delay_ms=25.0)
        est.on_ack_received(100.0, 90.0, ack_delay_ms=0.0)  # min 10
        sample = est.on_ack_received(300.0, 200.0, ack_delay_ms=80.0, handshake_confirmed=True)
        assert sample.ack_delay_ms == 25.0
        assert sample.adjusted_rtt_ms == 100.0 - 25.0

    def test_ack_delay_unclamped_during_handshake(self):
        est = RttEstimator(max_ack_delay_ms=25.0)
        est.on_ack_received(100.0, 90.0, ack_delay_ms=0.0)
        sample = est.on_ack_received(
            300.0, 200.0, ack_delay_ms=80.0, handshake_confirmed=False
        )
        assert sample.ack_delay_ms == 80.0

    def test_negative_ack_delay_treated_as_zero(self):
        est = RttEstimator()
        sample = est.on_ack_received(100.0, 50.0, ack_delay_ms=-5.0)
        assert sample.ack_delay_ms == 0.0


class TestSmoothing:
    def test_ewma_update_matches_rfc(self):
        est = RttEstimator()
        est.on_ack_received(100.0, 0.0, 0.0)  # smoothed 100, var 50
        est.on_ack_received(300.0, 160.0, 0.0)  # adjusted 140
        assert est.rttvar_ms == pytest.approx(0.75 * 50 + 0.25 * abs(100 - 140))
        assert est.smoothed_rtt_ms == pytest.approx(0.875 * 100 + 0.125 * 140)

    def test_min_rtt_tracks_minimum(self):
        est = RttEstimator()
        for rtt in (50.0, 30.0, 70.0, 45.0):
            now = 1000.0 + rtt
            est.on_ack_received(now, 1000.0, 0.0)
        assert est.min_rtt_ms == 30.0


class TestAccessors:
    def test_mean_and_series(self):
        est = RttEstimator()
        est.on_ack_received(110.0, 100.0, 0.0)
        est.on_ack_received(230.0, 200.0, 0.0)
        assert [sample.adjusted_rtt_ms for sample in est.samples] == [10.0, 30.0]

    def test_time_travel_rejected(self):
        est = RttEstimator()
        with pytest.raises(ValueError):
            est.on_ack_received(50.0, 60.0, 0.0)


@given(
    rtts=st.lists(st.floats(min_value=0.1, max_value=1000.0), min_size=1, max_size=30)
)
def test_invariants_property(rtts):
    """min <= every latest sample; smoothed stays within observed range."""
    est = RttEstimator()
    clock = 0.0
    for rtt in rtts:
        clock += rtt + 1.0
        est.on_ack_received(clock, clock - rtt, 0.0)
    assert est.min_rtt_ms == pytest.approx(min(rtts))
    assert min(rtts) - 1e-9 <= est.smoothed_rtt_ms <= max(rtts) + 1e-9
    assert len(est.samples) == len(rtts)
