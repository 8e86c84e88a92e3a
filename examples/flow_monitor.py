#!/usr/bin/env python3
"""Operator flow monitoring: many concurrent connections, one tap.

Simulates several QUIC connections with different paths and server
behaviours, interleaves their server-to-client datagrams by time (as a
mirror port would deliver them), and feeds the merged stream into a
:class:`~repro.core.flow_table.SpinFlowTable`.  The table demultiplexes
the flows by connection ID, reconstructs packet numbers per flow, and
reports a spin-bit RTT estimate for each — plus a per-connection
timeline for one of them.

Run:  python examples/flow_monitor.py
"""

from repro._util.rng import derive_rng
from repro.analysis.timeline import render_spin_timeline
from repro.core.flow_table import SpinFlowTable
from repro.core.spin import SpinPolicy
from repro.netsim.events import Simulator
from repro.netsim.path import PathProfile
from repro.qlog.recorder import TraceRecorder
from repro.web.http3 import ResponsePlan, build_exchange


def main() -> None:
    scenarios = [
        ("fast CDN-ish server", 8.0, ResponsePlan(
            server_header="Caddy", think_time_ms=15.0, write_sizes=(80_000,))),
        ("EU shared hosting", 22.0, ResponsePlan(
            server_header="LiteSpeed", think_time_ms=70.0,
            write_gaps_ms=(0.0, 180.0, 180.0), write_sizes=(11_000,) * 3)),
        ("US shared hosting", 55.0, ResponsePlan(
            server_header="LiteSpeed", think_time_ms=90.0, write_sizes=(120_000,))),
    ]

    merged: list[tuple[float, bytes]] = []
    recorders = []
    for index, (label, one_way, plan) in enumerate(scenarios):
        simulator = Simulator()
        recorder = TraceRecorder(vantage_point="client")
        path = PathProfile(propagation_delay_ms=one_way)
        handle = build_exchange(
            simulator,
            f"www.flow-{index}.test",
            [plan],
            SpinPolicy.SPIN,
            SpinPolicy.SPIN,
            path,
            path,
            derive_rng(index, "flow-monitor"),
            recorder=recorder,
            start_ms=0.0,
        )
        # The mirror port copies each server-to-client datagram as it
        # reaches the client; connect() waits for start_ms, so the tap
        # sees the first packet.
        handle.downlink.install_tap(
            lambda time_ms, data: merged.append((time_ms, data)), position=1.0
        )
        simulator.run(max_events=200_000)
        recorders.append((label, one_way, recorder))

    # The mirror port delivers everything in (global) time order.
    merged.sort(key=lambda item: item[0])
    table = SpinFlowTable(short_dcid_length=8)
    for time_ms, data in merged:
        table.on_server_datagram(time_ms, data)

    print(f"flow table tracked {len(table.flows)} concurrent flows "
          f"from {len(merged)} tapped datagrams:\n")
    for flow in table.all_flows():
        observation = flow.observation()
        if observation.rtts_received_ms:
            mean = sum(observation.rtts_received_ms) / len(observation.rtts_received_ms)
            estimate = f"mean spin RTT {mean:7.1f} ms over {len(observation.rtts_received_ms)} samples"
        else:
            estimate = "no full spin cycle observed"
        print(f"  flow {flow.flow_key}: {flow.packets:3d} packets, {estimate}")

    label, one_way, recorder = recorders[1]
    print(f"\nspin-signal timeline of the '{label}' connection "
          f"(true RTT {2 * one_way:.0f} ms):")
    print(render_spin_timeline(recorder, max_packets=24))


if __name__ == "__main__":
    main()
