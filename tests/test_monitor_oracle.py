"""A naive reference observer as an oracle for the streaming monitor.

The monitor reads headers in place, bounds its table, retires samples
into histograms and never buffers a packet.  The tracker here does none
of that — endpoint codec, unbounded dict, every packet kept — so on
traffic where nothing is evicted the two must see the same flows, the
same spinning flows and the same RTT samples (ROADMAP "oracles", (a)).

Under migration churn the tracker is *told* what the monitor has to
infer: it keys each packet by the generator's flow index and
``migration_log``, so a rebound or rotated connection is one flow by
construction and a path migration, unlinkable on the path by design
(RFC 9000 Section 9.5), is two — unless the tap itself carried the
link: ``TrafficMux`` stamps a datagram with the flow's 4-tuple when it
*passes the tap*, so one sent on the old CID just before a path
migration shows the new tuple, and old CID and new CID are then seen on
one path.  A pipeline with ``track_migration`` and room for every flow
has to arrive at the same flows from CIDs and 4-tuples alone.
"""

import math
import random

import pytest

from repro.core.observer import SpinObserver
from repro.faults.spec import corrupt_datagram_stream
from repro.monitor import MonitorConfig, MonitorPipeline, TrafficConfig, TrafficMux
from repro.netsim.migration import parse_migration_plan
from repro.quic.datagram import decode_datagram
from repro.quic.packet import ShortHeader
from repro.quic.packet_number import decode_packet_number


class ReferenceTracker:
    """Per-DCID buffering observers over ``decode_datagram``.

    ``migration_log`` (the generator's, complete before the first
    datagram is fed) replaces the DCID as identity where a connection
    changed it: a new CID of a flow index continues that flow, unless
    the log says the flow migrated paths and the new CID arrives on a
    4-tuple the flow never used — then it is a flow of its own, as it
    is for any observer on the path.
    """

    def __init__(self, short_dcid_length: int = 8, migration_log=()):
        self.short_dcid_length = short_dcid_length
        self.flows: dict[str, SpinObserver] = {}
        self.largest_pn: dict[str, int] = {}
        self.parse_errors = 0
        self.unlinkable = {
            entry["flow_index"]
            for entry in migration_log
            if entry["kind"] == "path-migration"
        }
        self.key_of_cid: dict[str, str] = {}
        self.key_of_flow: dict[int, str] = {}
        self.tuples_of_flow: dict[int, set] = {}

    def flow_key(self, cid: str, flow_index: int, tuple4) -> str:
        key = self.key_of_cid.get(cid)
        tuples = self.tuples_of_flow.setdefault(flow_index, set())
        if key is None:
            key = cid
            if flow_index not in self.unlinkable or tuple4 in tuples:
                key = self.key_of_flow.get(flow_index, cid)
            self.key_of_cid[cid] = self.key_of_flow[flow_index] = key
        tuples.add(tuple4)
        return key

    def on_datagram(self, time_ms, data, flow_index=None, tuple4=None) -> None:
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
            if flow_index is not None:
                key = self.flow_key(key, flow_index, tuple4)
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
    assert {flow.flow_key for flow in pipeline.table.flows.values()} == expected["flows"]
    assert summary.spin_flows == expected["spinning"]
    assert summary.parse_errors == expected["parse_errors"]
    assert (summary.parse_errors > 0) == (corrupt > 0)
    assert {
        key: summary.samples[key] for key in ("count", "min_ms", "max_ms", "mean_ms")
    } == {key: expected[key] for key in ("count", "min_ms", "max_ms", "mean_ms")}


MIGRATIONS = "nat-rebind:0.3,cid-rotation:0.3,path-migration:0.2"


@pytest.mark.parametrize("seed", [3, 20230520])
def test_monitor_matches_the_reference_tracker_under_migration(seed):
    mux = TrafficMux(
        TrafficConfig(
            flows=60, seed=seed, arrival_window_ms=2_000.0, tcp_flows=6,
            migration=parse_migration_plan(MIGRATIONS),
        )
    )
    stream = list(mux.stream())  # the log is complete once the tap has run dry
    applied = {entry["kind"] for entry in mux.migration_log}
    assert applied == {"nat-rebind", "cid-rotation", "path-migration"}

    reference = ReferenceTracker(migration_log=mux.migration_log)
    pipeline = MonitorPipeline(
        MonitorConfig(max_flows=10_000, idle_timeout_ms=1e12, track_migration=True)
    )
    for tap in stream:
        if tap.transport == "quic":
            reference.on_datagram(tap.time_ms, tap.data, tap.flow_index, tap.tuple4)
        pipeline.process(tap.time_ms, tap.data, tap.tuple4)
    summary = pipeline.finish()
    expected = reference.summary()

    assert summary.flows_evicted == summary.flows_expired == 0
    assert summary.migration["flows_split"] == 0
    assert summary.migration["transport_mix"]["tcp"] == sum(
        tap.transport == "tcp" for tap in stream
    )
    assert {flow.flow_key for flow in pipeline.table.flows.values()} == expected["flows"]
    assert len(expected["flows"]) > 60  # some path migration did split a flow
    assert summary.spin_flows == expected["spinning"]
    assert summary.parse_errors == expected["parse_errors"] == 0
    assert {
        key: summary.samples[key] for key in ("count", "min_ms", "max_ms", "mean_ms")
    } == {key: expected[key] for key in ("count", "min_ms", "max_ms", "mean_ms")}
