"""A naive reference observer as an oracle for the streaming monitor.

The monitor reads headers in place, bounds its table, retires samples
into histograms and never buffers a packet.  The tracker here does none
of that — endpoint codec, unbounded dict, every packet kept — so on
traffic where nothing is evicted the two must see the same flows, the
same spinning flows and the same RTT samples (ROADMAP "oracles", (a)).
"""

import math
import random

import pytest

from repro.core.observer import SpinObserver
from repro.faults.spec import corrupt_datagram_stream
from repro.monitor import MonitorConfig, MonitorPipeline, TrafficConfig, TrafficMux
from repro.quic.datagram import decode_datagram
from repro.quic.packet import ShortHeader
from repro.quic.packet_number import decode_packet_number


class ReferenceTracker:
    """Per-DCID buffering observers over ``decode_datagram``."""

    def __init__(self, short_dcid_length: int = 8):
        self.short_dcid_length = short_dcid_length
        self.flows: dict[str, SpinObserver] = {}
        self.largest_pn: dict[str, int] = {}
        self.parse_errors = 0

    def on_datagram(self, time_ms: float, data: bytes) -> None:
        try:
            packets = decode_datagram(data, self.short_dcid_length)
        except ValueError:
            self.parse_errors += 1
            return
        for packet in packets:
            header = packet.header
            if not isinstance(header, ShortHeader):
                continue
            key = header.destination_cid.hex
            largest = self.largest_pn.get(key)
            full = decode_packet_number(header.packet_number, header.pn_length, largest)
            self.largest_pn[key] = full if largest is None else max(largest, full)
            self.flows.setdefault(key, SpinObserver()).on_packet(
                time_ms, full, header.spin_bit
            )

    def summary(self) -> dict:
        observations = [flow.observation() for flow in self.flows.values()]
        rtts = [rtt for seen in observations for rtt in seen.rtts_received_ms]
        return {
            "flows": set(self.flows),
            "spinning": sum(1 for seen in observations if seen.spins),
            "parse_errors": self.parse_errors,
            "count": len(rtts),
            "min_ms": round(min(rtts), 3),
            "max_ms": round(max(rtts), 3),
            "mean_ms": round(math.fsum(rtts) / len(rtts), 3),
        }


@pytest.mark.parametrize("seed", [3, 20230520])
@pytest.mark.parametrize("corrupt", [0.0, 0.1])
def test_monitor_matches_the_reference_tracker(seed, corrupt):
    stream = TrafficMux(TrafficConfig(flows=40, seed=seed, arrival_window_ms=2_000.0)).stream()
    stream = list(corrupt_datagram_stream(stream, corrupt, random.Random(seed)))

    reference = ReferenceTracker()
    # Eviction-free: room for every flow, and no flow idles out.
    pipeline = MonitorPipeline(MonitorConfig(max_flows=10_000, idle_timeout_ms=1e12))
    for tap in stream:
        reference.on_datagram(tap.time_ms, tap.data)
        pipeline.process(tap.time_ms, tap.data, tap.tuple4)
    summary = pipeline.finish()
    expected = reference.summary()

    assert summary.flows_evicted == summary.flows_expired == 0
    assert set(pipeline.table.flows) == expected["flows"]
    assert summary.spin_flows == expected["spinning"]
    assert summary.parse_errors == expected["parse_errors"]
    assert (summary.parse_errors > 0) == (corrupt > 0)
    assert {
        key: summary.samples[key] for key in ("count", "min_ms", "max_ms", "mean_ms")
    } == {key: expected[key] for key in ("count", "min_ms", "max_ms", "mean_ms")}
