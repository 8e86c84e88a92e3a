"""The tap generator holds the flows that are live, not every flow's state.

``TrafficMux.stream`` builds each flow in an event at the flow's start,
and the HTTP/3 client keeps of its responses one head and a byte count
per stream, so what the generator holds follows the flows in flight
rather than flows x response bytes.  This guard drains a sparse tap —
40 flows about 100 ms apart, a handful in flight at any time — without
keeping its datagrams, and bounds the most memory the generator held
reachable: tracemalloc's traced total, read after a full collection
every 100 datagrams.  The objects that existed before are frozen out
of the collector (``gc.freeze``), so a collection costs only the
generator's own objects and the reading does not depend on what ran
earlier in the process.

Readings on CPython 3.11, x86-64 (the bound is this design's × 1.10):

=======================================  =========
generator                                reading
=======================================  =========
this design                              1.037 MB
each RTT estimator keeps its samples     1.115 MB
mutant: the client keeps every body      1.798 MB
mutant: every flow built at t = 0        1.737 MB
=======================================  =========

(The two mutants were read while the estimators still kept their
samples.)

Nor does a finished flow wait for the collector: an endpoint drops its
transport and callbacks when it closes, the tap's wire holds the server
endpoint rather than the exchange, a CID-switch retry is no closure
that names itself, and an owner that stops its simulator before the
queue drains clears it and releases the endpoints still open.  So with
the collector off, a drained tap, a tap cut short and a finished
``run_exchange`` leave no unreachable endpoint, path, wire or simulator
(``TestNothingLeftForTheCollector``).  Scratch mutants, one
per edge of the cycles, and the checks they fail:

===========================================  ==================================
mutant                                       fails
===========================================  ==================================
``release`` keeps ``on_stream_data``         all three taps, all four exchanges
the wire keeps the exchange (``handle``)     all three taps
``run_exchange`` keeps the queue             the timed-out exchange
the CID-switch retry closure names itself    the churn tap
``stream`` keeps the queue when cut short    the cut tap
``stream`` leaves the open flows unreleased  the cut tap
===========================================  ==================================
"""

import gc
import tracemalloc
from collections import Counter, deque
from itertools import islice

import pytest

from repro._util.rng import derive_rng
from repro.core.spin import SpinPolicy
from repro.monitor import TrafficConfig, TrafficMux
from repro.monitor.traffic import _FlowWire
from repro.netsim.events import Simulator
from repro.netsim.migration import parse_migration_plan
from repro.netsim.path import Path, PathProfile
from repro.quic.connection import ConnectionConfig, QuicEndpoint
from repro.quic.version import QuicVersion
from repro.web.http3 import ResponsePlan, run_exchange

SPARSE = TrafficConfig(flows=40, seed=7, arrival_window_ms=4_000.0)
#: Every kind of migration applied, CID switches that retry, TCP flows.
CHURN = TrafficConfig(
    flows=24, seed=13, arrival_window_ms=600.0, tcp_flows=2,
    migration=parse_migration_plan("nat-rebind:0.25,cid-rotation:0.25,path-migration:0.25"),
)
#: This design's reading in bytes, rounded up, plus 10 %.
BOUND_BYTES = int(1_037_000 * 1.10)
SAMPLE_EVERY = 100


def reachable_peak(config: TrafficConfig) -> int:
    """Most bytes held reachable while ``config``'s tap drains."""
    # Warm imports and lookup caches, so that they are not counted.
    for _ in islice(TrafficMux(TrafficConfig(flows=2, seed=1)).stream(), 50):
        pass
    gc.collect()
    gc.freeze()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        peak = 0
        for count, _ in enumerate(TrafficMux(config).stream()):
            if count % SAMPLE_EVERY == 0:
                gc.collect()
                peak = max(peak, tracemalloc.get_traced_memory()[0] - base)
    finally:
        tracemalloc.stop()
        gc.unfreeze()
    return peak


def test_generator_holds_live_flows_only():
    assert reachable_peak(SPARSE) <= BOUND_BYTES


#: What a finished flow or exchange held and must not leave behind.
HELD = (QuicEndpoint, Path, _FlowWire, Simulator)


def left_for_the_collector(run):
    """``(found, run())``: ``found`` counts by type the :data:`HELD`
    objects ``run`` leaves unreachable, with the collector off while it
    runs; one collection then saves what it finds instead of freeing it.
    What ``run`` returns must not hold what it built."""
    gc.collect()
    gc.disable()
    try:
        outcome = run()
        gc.set_debug(gc.DEBUG_SAVEALL)
        gc.collect()
        found = Counter(type(o).__name__ for o in gc.garbage if isinstance(o, HELD))
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()
        gc.collect()
    return found, outcome


def drain(config, datagrams=None):
    """Drain ``config``'s tap, or its first ``datagrams``, keeping none."""
    mux = TrafficMux(config)
    deque(islice(mux.stream(), datagrams), maxlen=0)
    return {entry["kind"] for entry in mux.migration_log}


PLAN = ResponsePlan(server_header="x", think_time_ms=10.0, write_sizes=(20_000,))
PROFILE = PathProfile(propagation_delay_ms=15.0)
#: name -> (``run_exchange`` options, the failure reason's start).
EXCHANGES = {
    "loss-free": ({}, None),
    "timed out": ({"timeout_ms": 60.0}, "timeout budget exceeded"),
    "VN failure": (
        {
            "client_config": ConnectionConfig(supported_versions=(QuicVersion.VERSION_1,)),
            "server_config": ConnectionConfig(
                version=QuicVersion.DRAFT_29, supported_versions=(QuicVersion.DRAFT_29,)
            ),
        },
        "version negotiation failed",
    ),
    "PTO exhausted": ({"impairment": lambda now_ms, rng: True}, "pto exhausted"),
}


class TestNothingLeftForTheCollector:
    @pytest.mark.parametrize("config", [SPARSE, CHURN], ids=["sparse", "churn"])
    def test_a_drained_tap(self, config):
        found, kinds = left_for_the_collector(lambda: drain(config))
        assert found == Counter()
        if config is CHURN:
            assert kinds == {"nat-rebind", "cid-rotation", "path-migration"}

    def test_a_tap_cut_short(self):
        """The consumer stops with flows in flight, as the benchmark's
        ``islice`` does: the stream's ``finally`` drops what is queued."""
        found, _ = left_for_the_collector(lambda: drain(SPARSE, datagrams=1_500))
        assert found == Counter()

    @pytest.mark.parametrize("name", list(EXCHANGES))
    def test_a_finished_exchange(self, name):
        options, failure = EXCHANGES[name]

        def fetch():
            result = run_exchange(
                "www.freed.test", PLAN, SpinPolicy.SPIN, SpinPolicy.SPIN,
                PROFILE, PROFILE, derive_rng(3, "freed"), **options,
            )
            return result.failure_reason

        found, reason = left_for_the_collector(fetch)
        assert found == Counter()
        if failure is None:
            assert reason is None
        else:
            assert reason.startswith(failure)
