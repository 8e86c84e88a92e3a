"""Discrete-event simulator, paths, and delay models."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro._util.rng import derive_rng
from repro.netsim.clock import SimClock
from repro.netsim.delays import (
    ConstantDelay,
    LogNormalDelay,
    UniformDelay,
)
from repro.netsim.events import Simulator
from repro.netsim.path import Path, PathProfile


class TestClock:
    def test_monotonic(self):
        clock = SimClock()
        clock.advance_to(5.0)
        with pytest.raises(ValueError):
            clock.advance_to(4.0)


class TestSimulator:
    def test_events_run_in_time_order(self):
        sim = Simulator()
        order = []
        sim.schedule(5.0, lambda: order.append("b"))
        sim.schedule(1.0, lambda: order.append("a"))
        sim.schedule(9.0, lambda: order.append("c"))
        sim.run()
        assert order == ["a", "b", "c"]

    def test_fifo_among_equal_timestamps(self):
        sim = Simulator()
        order = []
        for name in "abc":
            sim.schedule(1.0, lambda n=name: order.append(n))
        sim.run()
        assert order == ["a", "b", "c"]

    def test_scheduling_into_past_rejected(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: sim.schedule_at(0.5, lambda: None))
        with pytest.raises(ValueError):
            sim.run()

    def test_cascading_events(self):
        sim = Simulator()
        seen = []
        sim.schedule(1.0, lambda: sim.schedule(1.0, lambda: seen.append(sim.now_ms)))
        sim.run()
        assert seen == [2.0]

    def test_run_until_stops_at_deadline(self):
        sim = Simulator()
        seen = []
        sim.schedule(1.0, lambda: seen.append(1))
        sim.schedule(10.0, lambda: seen.append(10))
        executed = sim.run_until(5.0)
        assert executed == 1 and seen == [1]
        assert sim.now_ms == 5.0
        assert sim.pending_events == 1

    def test_runaway_guard(self):
        sim = Simulator()

        def reschedule():
            sim.schedule(0.001, reschedule)

        sim.schedule(0.0, reschedule)
        with pytest.raises(RuntimeError):
            sim.run(max_events=100)


class TestPath:
    def _delivered(self, profile, n=50, seed=1):
        sim = Simulator()
        received = []
        path = Path(sim, profile, received.append, derive_rng(seed, "path"))
        for i in range(n):
            sim.schedule(float(i), lambda i=i: path.send(bytes([i % 256])))
        sim.run()
        return path, received

    def test_fifo_preserves_order(self):
        profile = PathProfile(
            propagation_delay_ms=10.0, jitter=UniformDelay(0.0, 50.0), fifo=True
        )
        _, received = self._delivered(profile)
        assert received == sorted(received, key=lambda b: b[0])

    def test_non_fifo_can_reorder(self):
        profile = PathProfile(
            propagation_delay_ms=10.0, jitter=UniformDelay(0.0, 50.0), fifo=False
        )
        _, received = self._delivered(profile, n=100)
        assert received != sorted(received, key=lambda b: b[0])

    def test_loss_drops_packets(self):
        profile = PathProfile(propagation_delay_ms=1.0, loss_probability=0.5)
        path, received = self._delivered(profile, n=400)
        assert path.stats.lost + path.stats.delivered == path.stats.sent == 400
        assert 100 < path.stats.lost < 300

    def test_no_loss_by_default(self):
        path, received = self._delivered(PathProfile(), n=50)
        assert path.stats.lost == 0 and len(received) == 50

    def test_reorder_event_escapes_fifo(self):
        profile = PathProfile(
            propagation_delay_ms=5.0,
            jitter=ConstantDelay(0.0),
            reorder_probability=0.2,
            reorder_extra_delay=ConstantDelay(10.0),
            fifo=True,
        )
        path, received = self._delivered(profile, n=200)
        assert path.stats.reordered > 0
        assert received != sorted(received, key=lambda b: b[0])

    def test_profile_validation(self):
        with pytest.raises(ValueError):
            PathProfile(loss_probability=1.5)
        with pytest.raises(ValueError):
            PathProfile(propagation_delay_ms=-1.0)


class TestDelayModels:
    def test_constant(self, rng):
        assert ConstantDelay(3.0).sample(rng) == 3.0

    def test_uniform_bounds(self, rng):
        model = UniformDelay(2.0, 4.0)
        samples = [model.sample(rng) for _ in range(200)]
        assert all(2.0 <= s <= 4.0 for s in samples)
        assert model.mean_ms() == 3.0

    def test_lognormal_median_and_mean(self, rng):
        model = LogNormalDelay(median_ms=50.0, sigma=0.8)
        samples = sorted(model.sample(rng) for _ in range(4000))
        median = samples[len(samples) // 2]
        assert 40.0 < median < 62.0
        assert sum(samples) / len(samples) > 50.0  # heavy right tail

    def test_validation(self):
        with pytest.raises(ValueError):
            UniformDelay(5.0, 1.0)
        with pytest.raises(ValueError):
            LogNormalDelay(0.0, 1.0)


@given(
    delays=st.lists(st.floats(min_value=0.0, max_value=100.0), min_size=1, max_size=40)
)
def test_simulator_executes_all_events_property(delays):
    sim = Simulator()
    fired = []
    for delay in delays:
        sim.schedule(delay, lambda d=delay: fired.append(d))
    executed = sim.run()
    assert executed == len(delays)
    assert sorted(fired) == fired  # time order
