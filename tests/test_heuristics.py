"""RFC 9312 observer heuristics."""

import pytest

from repro.core.heuristics import (
    DynamicThresholdFilter,
    PacketNumberFilter,
    StaticThresholdFilter,
)
from repro.core.observer import SpinEdge, SpinObserver


class TestStaticThreshold:
    def test_drops_subthreshold_samples(self):
        filt = StaticThresholdFilter(min_rtt_ms=2.0)
        assert filt.filter_rtts([0.5, 2.0, 30.0]) == [2.0, 30.0]

    def test_zero_threshold_keeps_everything(self):
        assert StaticThresholdFilter(0.0).filter_rtts([0.1]) == [0.1]

    def test_negative_threshold_rejected(self):
        with pytest.raises(ValueError):
            StaticThresholdFilter(-1.0)


class TestDynamicThreshold:
    def _edges(self, times):
        return [SpinEdge(t, i, i % 2 == 0) for i, t in enumerate(times)]

    def test_rejects_edges_inside_hold_time(self):
        # Steady 40 ms cycles, then a 1 ms spurious edge pair.
        times = [0.0, 40.0, 80.0, 81.0, 120.0]
        filt = DynamicThresholdFilter(fraction=0.125)
        # The edge at 81 ms is dropped; 120 ms counts from 80 ms.
        assert filt.accepted_intervals(times) == [40.0, 40.0, 40.0]

    def test_rtts_from_filtered_edges(self):
        times = [0.0, 40.0, 80.0, 81.0, 120.0]
        filt = DynamicThresholdFilter(fraction=0.125)
        assert filt.filter_rtts_from_edges(self._edges(times)) == [40.0, 40.0, 40.0]

    def test_accepts_all_regular_edges(self):
        times = [0.0, 30.0, 60.0, 90.0]
        filt = DynamicThresholdFilter(fraction=0.25)
        assert filt.accepted_intervals(times) == [30.0, 30.0, 30.0]

    def test_fraction_validated(self):
        with pytest.raises(ValueError):
            DynamicThresholdFilter(fraction=0.0)
        with pytest.raises(ValueError):
            DynamicThresholdFilter(fraction=1.0)


class TestPacketNumberFilter:
    def test_regressing_packets_dropped(self):
        packets = [(0.0, 0, False), (10.0, 2, True), (11.0, 1, False), (20.0, 3, True)]
        kept = PacketNumberFilter().filter_packets(packets)
        assert [pn for _, pn, _ in kept] == [0, 2, 3]

    def test_equivalent_to_endpoint_rule(self):
        """After the filter, received-order edges match packet-number-
        sorted edges: the Fig 1b spurious cycle disappears."""
        packets = [
            (0.0, 0, False),
            (30.0, 1, False),
            (60.0, 3, True),
            (61.0, 2, False),  # straggler
            (90.0, 4, True),
            (120.0, 5, False),
        ]
        filtered = PacketNumberFilter().filter_packets(packets)
        observer = SpinObserver()
        for time_ms, pn, spin in filtered:
            observer.on_packet(time_ms, pn, spin)
        obs = observer.observation()
        assert obs.rtts_received_ms == obs.rtts_sorted_ms
        assert min(obs.rtts_received_ms) >= 30.0
