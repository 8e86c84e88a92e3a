"""The passive spin-bit observer: edges, RTT samples, R vs S ordering."""

from hypothesis import given
from hypothesis import strategies as st

from conftest import make_observation
from repro.core.observer import SpinObserver, observe_recorder, spin_rtts_from_edges
from repro.qlog.recorder import TraceRecorder


class TestEdgeDetection:
    def test_steady_signal_has_no_edges(self):
        obs = make_observation([(0.0, 0, False), (10.0, 1, False), (20.0, 2, False)])
        assert obs.edges_received == []
        assert obs.rtts_received_ms == []
        assert obs.all_zero

    def test_single_flip_yields_one_edge_no_sample(self):
        obs = make_observation([(0.0, 0, False), (50.0, 1, True)])
        assert len(obs.edges_received) == 1
        assert obs.rtts_received_ms == []
        assert obs.spins

    def test_two_flips_yield_one_rtt(self):
        obs = make_observation(
            [(0.0, 0, False), (50.0, 1, True), (100.0, 2, False)]
        )
        assert obs.rtts_received_ms == [50.0]

    def test_square_wave_rtts(self):
        packets = [(i * 30.0, i, i % 2 == 1) for i in range(8)]
        obs = make_observation(packets)
        assert all(abs(r - 30.0) < 1e-9 for r in obs.rtts_received_ms)
        assert len(obs.rtts_received_ms) == 6


class TestValueTracking:
    def test_all_one(self):
        obs = make_observation([(0.0, 0, True), (1.0, 1, True)])
        assert obs.all_one and not obs.spins

    def test_empty_observation(self):
        obs = make_observation([])
        assert obs.packets_seen == 0
        assert not obs.spins and not obs.all_zero and not obs.all_one


class TestReceivedVsSorted:
    def test_reordering_creates_spurious_edges_in_r_only(self):
        """Fig 1b: a straggler with a lower pn lands inside the opposite
        phase, fabricating two edges in received order; sorting by
        packet number removes them."""
        packets = [
            (0.0, 0, False),
            (30.0, 1, False),
            (60.0, 3, True),   # genuine edge (pn 2 still in flight)
            (61.0, 2, False),  # straggler: spurious flip in R
            (62.0, 4, True),
            (90.0, 5, False),  # genuine edge back
        ]
        obs = make_observation(packets)
        assert obs.rtts_received_ms != obs.rtts_sorted_ms
        # R saw extra ultra-short cycles.
        assert min(obs.rtts_received_ms) < min(obs.rtts_sorted_ms)
        assert len(obs.edges_received) > len(obs.edges_sorted)

    def test_in_order_streams_identical(self):
        packets = [(float(i) * 10.0, i, (i // 3) % 2 == 1) for i in range(12)]
        obs = make_observation(packets)
        assert obs.rtts_received_ms == obs.rtts_sorted_ms

    def test_sorted_uses_arrival_timestamps(self):
        """Sorting reorders the comparison sequence but keeps each
        packet's own arrival time for the interval computation."""
        packets = [
            (0.0, 0, False),
            (100.0, 2, True),
            (101.0, 1, False),
        ]
        obs = make_observation(packets)
        # Sorted order: pn0(t0,F), pn1(t101,F), pn2(t100,T): one edge at
        # t=100, no sample.
        assert len(obs.edges_sorted) == 1
        assert obs.edges_sorted[0].time_ms == 100.0


class TestRecorderIntegration:
    def test_only_short_header_packets_observed(self):
        recorder = TraceRecorder()
        recorder.on_packet_received(0.0, "initial", 0, None, 1200)
        recorder.on_packet_received(10.0, "1RTT", 0, False, 100)
        recorder.on_packet_received(20.0, "1RTT", 1, True, 100)
        obs = observe_recorder(recorder)
        assert obs.packets_seen == 2
        assert obs.spins


@given(
    st.lists(
        st.tuples(
            st.floats(min_value=0, max_value=1e4),
            st.integers(min_value=0, max_value=500),
            st.booleans(),
        ),
        max_size=60,
    )
)
def test_observer_invariants_property(raw):
    """Edges equal value changes; samples are one fewer than edges (or
    zero); sample count never exceeds packet count."""
    packets = sorted(raw, key=lambda p: p[0])  # arrival times ordered
    observer = SpinObserver()
    for time_ms, pn, spin in packets:
        observer.on_packet(time_ms, pn, spin)
    obs = observer.observation()

    changes = sum(
        1 for a, b in zip(packets, packets[1:]) if a[2] != b[2]
    )
    assert len(obs.edges_received) == changes
    assert len(obs.rtts_received_ms) == max(0, changes - 1)
    assert all(r >= 0 for r in obs.rtts_received_ms)
    assert spin_rtts_from_edges(obs.edges_received) == obs.rtts_received_ms
    assert len(obs.rtts_sorted_ms) <= max(0, len(packets) - 2) if packets else True
