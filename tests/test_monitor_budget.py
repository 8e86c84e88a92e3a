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
``TcpSegment`` built and no resolver call; the steady tap has no TCP),
and the ``bins`` rows once more (a histogram's bin count is a constant,
not a ``len`` per RTT sample):

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
steady   bins    6.97 /  6.97    6.90 /  6.90
churn    bins    6.53 /  6.53    6.49 /  6.49
=======  =====  ==============  =============

The resolver has a row of its own: what it adds per datagram of the
churn tap, against the same tap through a table without one
(``track_migration=False``).  That table opens a phantom flow for every
rotated CID and counts each TCP segment as a parse error, which is what
the added calls buy.  Measured 6.531 against 5.851 calls per datagram
(+0.679); the gate is 0.70, the old wall-clock limit restated as a
count.
"""

import dataclasses
import functools
import gc
import sys

import pytest

from repro.monitor.aggregate import WindowConfig
from repro.monitor.pipeline import MonitorConfig, MonitorPipeline
from repro.monitor.traffic import TrafficConfig, TrafficMux
from repro.netsim.migration import parse_migration_plan
from repro.telemetry import Telemetry

#: Calls per datagram measured with the histogram's bin count a
#: constant, telemetry *off* (6.9004 and 6.4872, rounded up); a change
#: may not exceed them in either state.
BUDGET = {"steady": 6.901, "churn": 6.488}

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


#: Calls per datagram the resolver may add on the churn tap.
RESOLVER_ADDED_BUDGET = 0.70


@functools.lru_cache(maxsize=None)
def captured_tap(name):
    traffic, _ = SCENARIOS[name]
    tap = [(t.time_ms, t.data, t.tuple4) for t in TrafficMux(traffic).stream()]
    assert len(tap) > 2_000
    return tap


@pytest.fixture(scope="module", params=sorted(SCENARIOS))
def scenario(request):
    return request.param, captured_tap(request.param), SCENARIOS[request.param][1]


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


class TestResolverBudget:
    def test_the_resolver_adds_under_its_budget_and_links_the_churn(self):
        tap, config = captured_tap("churn"), SCENARIOS["churn"][1]
        linked, linked_summary = calls_per_datagram(tap, config)
        unlinked = dataclasses.replace(config, track_migration=False)
        plain, plain_summary = calls_per_datagram(tap, unlinked)
        assert calls_per_datagram(tap, unlinked)[0] == plain
        assert linked - plain <= RESOLVER_ADDED_BUDGET
        migration = linked_summary.migration
        assert migration["flows_split"] == 0
        assert migration["flows_migrated"] > 0 and migration["rebinds_seen"] > 0
        tcp = migration["transport_mix"]["tcp"]
        assert tcp > 0 and linked_summary.parse_errors == 0
        # Without the resolver, rotated CIDs open phantom flows and TCP
        # segments are parse errors.
        assert plain_summary.migration is None
        assert plain_summary.flows_created > linked_summary.flows_created
        assert plain_summary.parse_errors == tcp
