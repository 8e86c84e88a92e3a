#!/usr/bin/env python3
"""The network operator's view: on-path spin-bit measurement.

The paper motivates the spin bit as a tool for operators who cannot see
QUIC's encrypted transport headers.  This example plays that role: a
:class:`~repro.core.tomography.SpinTomographyObserver`, installed as the
two path directions' taps, sees the raw datagrams of a connection (like
a middlebox or the P4 hardware observer of Kunze et al. 2021), parses
QUIC headers itself, reconstructs packet numbers, and measures the RTT
from spin edges — then compares against the client's qlog ground truth,
including a run with the Valid Edge Counter extension enabled.

Run:  python examples/operator_observer.py
"""

from repro._util.rng import derive_rng
from repro.core.observer import observe_recorder
from repro.core.spin import SpinPolicy
from repro.core.tomography import SpinTomographyObserver
from repro.netsim.delays import UniformDelay
from repro.netsim.events import Simulator
from repro.netsim.path import PathProfile
from repro.qlog.recorder import TraceRecorder
from repro.quic.connection import ConnectionConfig
from repro.web.http3 import ResponsePlan, build_exchange


def observe(enable_vec: bool, reorder: float = 0.0) -> None:
    observer = SpinTomographyObserver(short_dcid_length=8)
    plan = ResponsePlan(
        server_header="LiteSpeed", think_time_ms=40.0, write_sizes=(240_000,)
    )
    path = PathProfile(
        propagation_delay_ms=30.0,
        reorder_probability=reorder,
        # Displacements comparable to the RTT are the ones that cross
        # spin phase boundaries and fabricate edges (paper Fig. 1b).
        reorder_extra_delay=UniformDelay(20.0, 70.0),
    )
    config = ConnectionConfig(enable_vec=enable_vec)
    simulator = Simulator()
    recorder = TraceRecorder(vantage_point="client")
    handle = build_exchange(
        simulator,
        "www.operator-view.test",
        [plan],
        SpinPolicy.SPIN,
        SpinPolicy.SPIN,
        path,
        path,
        derive_rng(7, "operator", enable_vec, reorder),
        client_config=config,
        server_config=config,
        recorder=recorder,
        start_ms=0.0,
    )
    # Each direction's tap sits at its receiving end (position 1.0): it
    # sees every datagram as it is delivered.  connect() waits for
    # start_ms, so the taps see the first packet.
    handle.uplink.install_tap(observer.on_client_datagram, position=1.0)
    handle.downlink.install_tap(observer.on_server_datagram, position=1.0)
    simulator.run(max_events=200_000)
    print(f"  tapped {observer.datagrams} datagrams / {observer.packets} packets "
          f"({observer.short_header_packets} short-header)")

    wire = observer.observation()
    qlog = observe_recorder(recorder)
    print(f"  wire-observer RTT samples: "
          f"{[round(s, 1) for s in wire.rtts_received_ms[:8]]}")
    print(f"  qlog-replay RTT samples:   "
          f"{[round(s, 1) for s in qlog.rtts_received_ms[:8]]}")
    if enable_vec:
        vec_rtts = observer.vec_rtts_ms(threshold=3)
        print(f"  VEC-validated samples:     "
              f"{[round(s, 1) for s in vec_rtts[:8]]}")


def main() -> None:
    print("clean path, RFC 9000 spin bit only:")
    observe(enable_vec=False)
    print("\nclean path, three-bit variant (spin + VEC):")
    observe(enable_vec=True)
    print("\nheavily reordered path (VEC rejects the spurious edges):")
    observe(enable_vec=True, reorder=0.03)


if __name__ == "__main__":
    main()
