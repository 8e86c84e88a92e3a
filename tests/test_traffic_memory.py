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
this design                              1.115 MB
mutant: the client keeps every body      1.798 MB
mutant: every flow built at t = 0        1.737 MB
=======================================  =========
"""

import gc
import tracemalloc
from itertools import islice

from repro.monitor import TrafficConfig, TrafficMux

SPARSE = TrafficConfig(flows=40, seed=7, arrival_window_ms=4_000.0)
#: This design's reading in bytes, rounded up, plus 10 %.
BOUND_BYTES = int(1_115_000 * 1.10)
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
