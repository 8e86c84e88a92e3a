"""A fixed per-datagram work budget for the on-path monitor.

The same counter as ``test_endpoint_budget``: Python-level calls
(``sys.setprofile`` ``call`` + ``c_call`` events) while
``MonitorPipeline.process`` ingests a seeded ``TrafficMux`` tap, divided
by the datagrams ingested.  The count is a pure function of the code
and the seed, so it repeats exactly and a regression shows as a number.

Two taps: *steady* (no resolver, nothing evicted) and *churn* (NAT
rebinds and CID rotations, TCP flows, a 64-flow table — LRU eviction
and the ``FlowKeyResolver`` on every datagram).  One window spans each
tap: what closing a window costs is per-window work (one trace row, one
counter) and is by design where a live bundle and the off bundle differ;
everything per datagram is held to *equal* counts in the two states —
the flow table counts in its own ints and ``finish()`` copies them out.

Measured when the budget was set (PR 18) and lowered (PR 24: the packet
path ends in the flow slot — no ``process`` frame, no observer object,
no per-packet hook, no raise for TCP, STREAM lengths read in line),
telemetry off / on; the ``ids`` rows lowered it again (flow identity
lives in the slot — a packet finds it with one lookup by CID bytes, no
``resolve()`` call, no ``bytes.hex``), and the ``tcp`` rows once more (a
TCP datagram is classified by header — ``is_tcp_shaped`` — with no
``TcpSegment`` built and no resolver call; the steady tap has no TCP):

=======  =====  ==============  =============
tap      PR     parent          that change
=======  =====  ==============  =============
steady   18     15.57 / 18.60   15.57 / 15.57
churn    18     17.93 / 20.58   17.93 / 17.93
steady   24     15.57 / 15.57    7.90 /  7.90
churn    24     17.93 / 17.93   10.35 / 10.35
steady   ids     7.90 /  7.90    6.97 /  6.97
churn    ids    10.35 / 10.35    8.06 /  8.06
steady   tcp     6.97 /  6.97    6.97 /  6.97
churn    tcp     8.06 /  8.06    6.53 /  6.53
=======  =====  ==============  =============
"""

import gc
import sys

import pytest

from repro.monitor.aggregate import WindowConfig
from repro.monitor.pipeline import MonitorConfig, MonitorPipeline
from repro.monitor.traffic import TrafficConfig, TrafficMux
from repro.netsim.migration import parse_migration_plan
from repro.telemetry import Telemetry

#: Calls per datagram measured with TCP classified by header, telemetry
#: *off* (6.9604 and 6.5307, rounded up); a change may not exceed them in
#: either state.
BUDGET = {"steady": 6.961, "churn": 6.531}

ONE_WINDOW = WindowConfig(window_ms=1e9)

SCENARIOS = {
    "steady": (
        TrafficConfig(flows=60, seed=11, arrival_window_ms=2_000.0),
        MonitorConfig(window=ONE_WINDOW),
    ),
    "churn": (
        TrafficConfig(
            flows=150, seed=11, arrival_window_ms=2_000.0, tcp_flows=15,
            migration=parse_migration_plan("nat-rebind:0.3,cid-rotation:0.3"),
        ),
        MonitorConfig(max_flows=64, window=ONE_WINDOW, track_migration=True),
    ),
}


@pytest.fixture(scope="module", params=sorted(SCENARIOS))
def scenario(request):
    traffic, config = SCENARIOS[request.param]
    tap = [(t.time_ms, t.data, t.tuple4) for t in TrafficMux(traffic).stream()]
    assert len(tap) > 2_000
    return request.param, tap, config


def calls_per_datagram(tap, config, telemetry=None):
    """Calls made under ``process`` per datagram of ``tap``."""
    pipeline = MonitorPipeline(config, telemetry=telemetry)
    process = pipeline.process
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if event == "call" or event == "c_call":
            calls += 1

    # Finalizers of other tests' garbage (a scanner's pool shutdown) are
    # Python calls too, and must not land in the count.
    gc.collect()
    gc.disable()
    previous = sys.getprofile()
    sys.setprofile(count)
    try:
        for time_ms, data, tuple4 in tap:
            process(time_ms, data, tuple4)
    finally:
        sys.setprofile(previous)
        gc.enable()
    summary = pipeline.finish()
    assert summary.datagrams == len(tap) and summary.windows == 1
    return calls / len(tap), summary


class TestWorkBudget:
    def test_the_count_repeats_exactly(self, scenario):
        _, tap, config = scenario
        assert calls_per_datagram(tap, config)[0] == calls_per_datagram(tap, config)[0]

    def test_a_bundle_adds_no_call_per_datagram(self, scenario):
        _, tap, config = scenario
        off, off_summary = calls_per_datagram(tap, config)
        telemetry = Telemetry()
        on, on_summary = calls_per_datagram(tap, config, telemetry)
        assert on == off
        assert on_summary == off_summary
        # ... and the bundle still got every count, at finish().
        counters = telemetry.registry.snapshot()["counters"]
        assert counters["flow_table.datagrams"] == len(tap)
        assert counters["flow_table.flows_evicted"] == on_summary.flows_evicted

    def test_the_tap_fits_the_budget(self, scenario):
        name, tap, config = scenario
        per_datagram, summary = calls_per_datagram(tap, config)
        if name == "churn":
            assert summary.flows_evicted > 0 and summary.migration["rebinds_seen"] > 0
        assert per_datagram <= BUDGET[name]
