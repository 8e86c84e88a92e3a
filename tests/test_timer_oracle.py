"""The endpoint's one timer against per-packet timer events.

``QuicEndpoint`` keeps its probe deadlines on the sent packets and the
delayed-ACK deadline of the current ACK generation as a field, behind at
most one live simulator event, and leaves one last wake at the latest
deadline it ever set.  The scheduling it replaced — one simulator event
per armed probe timeout and one per ack-eliciting 1-RTT receive below
the ACK threshold, each a callback that usually found nothing to do —
lives on here only, as :class:`PerPacketTimers`, the oracle: over loss,
reordering, tied timestamps, a stalled handshake, Version Negotiation,
Retry, resets and a timeout budget, both give the same client qlog rows,
the same RTT samples on both ends, the same simulated end time and the
same outcome, and the one timer dispatches no more events.
"""

from functools import partial

from hypothesis import example, given, settings
from hypothesis import strategies as st
from pytest import MonkeyPatch

import repro.web.http3 as http3_module
from repro._util.rng import derive_rng
from repro.core.spin import SpinPolicy
from repro.monitor.traffic import TrafficConfig, TrafficMux
from repro.netsim.delays import ConstantDelay, UniformDelay
from repro.netsim.migration import parse_migration_plan
from repro.netsim.path import PathProfile
from repro.quic.connection import PTO_INITIAL_MS, ConnectionConfig, QuicEndpoint
from repro.quic.version import QuicVersion
from repro.telemetry.metrics import MetricsRegistry
from repro.web.http3 import ResponsePlan, run_exchange

from conftest import collect_rtt_samples


class PerPacketTimers(QuicEndpoint):
    """The endpoint as it scheduled its timers before: every probe
    deadline and every delayed-ACK deadline an event of its own."""

    def _arm_pto(self, state, pn, retries=0):
        rtt = self.rtt_estimator
        if rtt.latest_rtt_ms is not None:  # has a sample
            interval = (
                rtt.smoothed_rtt_ms + 4.0 * rtt.rttvar_ms + self.config.max_ack_delay_ms
            )
        else:
            interval = PTO_INITIAL_MS
        self.simulator.schedule(
            interval * (2**retries), partial(self._pto_fired, state.space, pn, retries)
        )

    def _delay_ack(self, state, deadline_ms):
        self.simulator.schedule_at(
            deadline_ms, partial(self._delayed_ack_fired, state.ack_timer_generation)
        )


def spied(endpoint_class):
    """``endpoint_class`` with the RTT samples its estimator returns
    kept as ``rtt_samples`` (the estimator keeps none)."""

    class Spied(endpoint_class):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self.rtt_samples = collect_rtt_samples(self.rtt_estimator)

    return Spied


def exchange(endpoint_class, case):
    """``(result, events dispatched)`` of one exchange built from ``endpoint_class``."""
    (
        body, loss, reorder, delay_ms, jitter, stall, vn, retry, reset_after,
        flush, timeout_ms, seed,
    ) = case
    profile = PathProfile(
        propagation_delay_ms=delay_ms,
        jitter=jitter,
        loss_probability=loss,
        reorder_probability=reorder,
    )
    versions = (QuicVersion.DRAFT_29,) if vn else (QuicVersion.VERSION_1,)
    server_config = ConnectionConfig(
        version=versions[0],
        supported_versions=versions,
        retry_required=retry,
        handshake_stall_ms=stall,
        reset_after_packets=reset_after,
        flush_dispatch_ms=flush,
    )
    plan = ResponsePlan(
        server_header="oracle", think_time_ms=10.0, write_gaps_ms=(0.0, 5.0),
        write_sizes=(body, body // 3),
    )
    metrics = MetricsRegistry()
    with MonkeyPatch.context() as patch:
        patch.setattr(http3_module, "QuicEndpoint", spied(endpoint_class))
        result = run_exchange(
            "www.oracle.test", plan, SpinPolicy.SPIN, SpinPolicy.SPIN, profile, profile,
            derive_rng(seed, "timer-oracle"), server_config=server_config,
            metrics=metrics, timeout_ms=timeout_ms,
        )
    return result, metrics.counter("netsim.events_dispatched").value


def observable(result):
    """Everything of an exchange a scan or a pin can see."""
    client, server = result.client, result.server
    return {
        "sent": result.recorder.sent,
        "received": result.recorder.received,
        "rtt_samples": result.recorder.rtt_samples,
        "client_samples": client.rtt_samples,
        "server_samples": server.rtt_samples,
        "end_ms": client.simulator.now_ms,
        "timed_out": result.timed_out,
        "failure": result.failure_reason,
        "status": result.status,
        "body_bytes": result.body_bytes,
        "counts": [
            (c.sent, c.received, c.spin_edges) for c in (client.counts, server.counts)
        ],
    }


cases = st.tuples(
    st.integers(0, 30_000),
    st.sampled_from([0.0, 0.0, 0.03, 0.15, 0.4]),
    st.sampled_from([0.0, 0.1, 0.5]),
    st.sampled_from([1.0, 10.0, 12.5, 25.0, 40.0]),
    # A constant delay puts sends, arrivals and deadlines on one grid,
    # so equal timestamps are common and their order is tested.
    st.sampled_from([ConstantDelay(0.0), UniformDelay(0.0, 1.0), UniformDelay(0.0, 30.0)]),
    st.sampled_from([0.0, 0.0, 150.0, 1_200.0]),
    st.booleans(),
    st.booleans(),
    st.sampled_from([None, None, 3, 12]),
    st.sampled_from([(0.0, 0.0), (0.5, 2.0)]),
    st.sampled_from([None, None, 60.0, 700.0, 5_000.0]),
    st.integers(0, 2**16),
)


class TestOneTimer:
    @settings(max_examples=150, deadline=None)
    @given(cases)
    # Loss-free on a constant grid: a deadline that acts ties with a
    # delivery, and only its rank keeps the order.
    @example((10_748, 0.0, 0.0, 12.5, ConstantDelay(0.0), 0.0, False, False, None,
              (0.0, 0.0), None, 0))
    # Every handshake variant at once, under loss and a budget.
    @example((9_000, 0.15, 0.1, 25.0, ConstantDelay(0.0), 150.0, True, True, None,
              (0.0, 0.0), 700.0, 2))
    # A reset closes the server while its deadlines are pending.
    @example((20_000, 0.03, 0.0, 10.0, UniformDelay(0.0, 1.0), 0.0, False, False, 3,
              (0.5, 2.0), None, 3))
    # The reset's CONNECTION_CLOSE is lost: at the 700 ms cut only dead
    # deadlines are left, and they alone make the exchange time out.
    @example((2_000, 0.15, 0.0, 10.0, UniformDelay(0.0, 1.0), 0.0, False, False, 3,
              (0.0, 0.0), 700.0, 43))
    def test_same_exchange_fewer_events(self, case):
        reference, reference_events = exchange(PerPacketTimers, case)
        result, events = exchange(QuicEndpoint, case)
        assert observable(result) == observable(reference)
        assert events <= reference_events

    def test_a_loss_free_exchange_wakes_for_a_quarter_of_the_timer_events(self):
        """Most deadlines are dead before they are due: the reference
        dispatches every one, the one timer wakes only at a deadline that
        was the earliest live one when it was set."""
        timer_events, wakes = [], []

        class Reference(PerPacketTimers):
            def _pto_fired(self, space, pn, retries):
                timer_events.append(pn)
                super()._pto_fired(space, pn, retries)

            def _delayed_ack_fired(self, generation):
                timer_events.append(generation)
                super()._delayed_ack_fired(generation)

        class Counting(QuicEndpoint):
            def _wake(self):
                wakes.append(self.simulator.now_ms)
                super()._wake()

        case = (16_000, 0.0, 0.0, 25.0, UniformDelay(0.0, 1.0), 0.0, False, False, None,
                (0.0, 0.0), None, 4)
        reference, reference_events = exchange(Reference, case)
        result, events = exchange(Counting, case)
        assert observable(result) == observable(reference)
        assert len(timer_events) >= 40
        assert 4 * len(wakes) <= len(timer_events)
        assert reference_events - events == len(timer_events) - len(wakes)

    def test_a_shared_simulator_streams_the_same_tap(self):
        """The monitor's multiplexer runs many flows on one simulator and
        drains it in windows placed at ``next_event_time_ms``: the same tap
        datagrams and the same applied migrations either way."""
        config = TrafficConfig(
            flows=24, seed=11, arrival_window_ms=600.0, tcp_flows=2,
            migration=parse_migration_plan("nat-rebind:0.3,cid-rotation:0.3"),
        )

        def stream(endpoint_class):
            with MonkeyPatch.context() as patch:
                patch.setattr(http3_module, "QuicEndpoint", endpoint_class)
                mux = TrafficMux(config)
                return list(mux.stream()), mux.migration_log

        tap, migrations = stream(QuicEndpoint)
        assert len(tap) > 1_000 and migrations
        assert (tap, migrations) == stream(PerPacketTimers)
