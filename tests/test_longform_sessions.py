"""Multi-request sessions and the longer-connections accuracy study."""

import pytest

from repro._util.rng import derive_rng
from repro.analysis.longform import (
    per_sample_deviation_profile,
    windowed_accuracy,
)
from repro.core.observer import observe_recorder
from repro.core.spin import SpinPolicy
from repro.netsim.delays import ConstantDelay
from repro.netsim.events import Simulator
from repro.netsim.path import PathProfile
from repro.qlog.recorder import TraceRecorder
from repro.web.http3 import ResponsePlan, build_exchange

RTT = 40.0


def session(plans, gaps=None, seed=3):
    """One connection serving ``plans`` in sequence, run to completion."""
    profile = PathProfile(propagation_delay_ms=RTT / 2, jitter=ConstantDelay(0.0))
    simulator = Simulator()
    handle = build_exchange(
        simulator,
        "www.session.test",
        plans,
        SpinPolicy.SPIN,
        SpinPolicy.SPIN,
        profile,
        profile,
        derive_rng(seed, "session"),
        paths=[f"/page-{index}" for index in range(len(plans))],
        think_gaps_ms=gaps,
        recorder=TraceRecorder(vantage_point="client"),
    )
    simulator.run(max_events=400_000)
    return handle


def succeeded(handle) -> bool:
    return handle.client_app.done and handle.client.failed is None


class TestRunSession:
    def test_sequential_requests_complete(self):
        plans = [
            ResponsePlan(server_header="x", think_time_ms=20.0, write_sizes=(9_000,))
            for _ in range(5)
        ]
        handle = session(plans, gaps=[50.0] * 4)
        assert succeeded(handle)
        assert handle.client_app.completed_requests == 5
        # Body bytes plus one textual response head per request.
        body_bytes = sum(map(len, handle.client_app.responses.values()))
        assert 45_000 <= body_bytes < 46_000

    def test_single_request_session_equals_exchange_shape(self):
        plans = [ResponsePlan(server_header="x", write_sizes=(12_000,))]
        handle = session(plans)
        assert succeeded(handle) and handle.client_app.completed_requests == 1

    def test_gap_validation(self):
        plans = [ResponsePlan(server_header="x", write_sizes=(1_000,))] * 3
        with pytest.raises(ValueError):
            session(plans, gaps=[10.0])  # needs two gaps for three requests

    def test_client_think_time_inflates_spin_period(self):
        """Idle gaps between requests become spin-period inflation —
        the flip side of the paper's end-host-delay observation."""
        plans = [
            ResponsePlan(server_header="x", think_time_ms=10.0, write_sizes=(9_000,))
            for _ in range(3)
        ]
        busy = session(plans, gaps=[0.0, 0.0])
        idle = session(plans, gaps=[400.0, 400.0])
        busy_max = max(observe_recorder(busy.recorder).rtts_received_ms)
        idle_max = max(observe_recorder(idle.recorder).rtts_received_ms)
        assert idle_max > busy_max + 300.0


class TestLongConnectionStudy:
    def _samples(self, body_bytes, seed_base=0):
        """Sustained single-object downloads (continuous transfers)."""
        pairs = []
        for seed in range(10):
            plans = [
                ResponsePlan(
                    server_header="x",
                    think_time_ms=150.0,
                    write_sizes=(body_bytes,),
                )
            ]
            recorder = session(plans, seed=seed_base + seed).recorder
            pairs.append(
                (observe_recorder(recorder).rtts_received_ms, recorder.stack_rtts_ms())
            )
        return pairs

    def test_estimates_stabilize_on_longer_connections(self):
        """Later spin samples of sustained transfers approach the true
        RTT (the paper's Section 6 expectation)."""
        profile = per_sample_deviation_profile(self._samples(body_bytes=380_000))
        assert len(profile.medians) >= 4
        # Steady-state samples settle near 1x the minimum stack RTT.
        assert profile.medians[-1] < 1.5
        assert profile.stabilizes(warmup=2, tolerance=1.6)

    def test_windowed_accuracy_not_worse(self):
        """Dropping the warm-up samples (which absorb the request
        think time) cannot hurt on continuous transfers."""
        pairs = self._samples(body_bytes=380_000)
        full, windowed = windowed_accuracy(pairs, skip_first=1)
        assert len(full) == len(windowed) > 0
        mean_full = sum(abs(r.ratio) for r in full) / len(full)
        mean_windowed = sum(abs(r.ratio) for r in windowed) / len(windowed)
        assert mean_windowed <= mean_full + 1e-9

    def test_windowed_accuracy_validation(self):
        with pytest.raises(ValueError):
            windowed_accuracy([], skip_first=-1)

    def test_profile_empty_input(self):
        profile = per_sample_deviation_profile([])
        assert profile.medians == []
        assert not profile.stabilizes()
