#!/usr/bin/env python3
"""RTT decomposition at a mid-path observation point.

The paper's discussion names network tomography as a practical use of
spin-bit measurements.  This example places a passive observer at three
different positions along a client-server path and decomposes each spin
cycle into its upstream (observer → server → observer) and downstream
(observer → client → observer) components — showing how an ISP could
localize latency on either side of its monitoring point.

Run:  python examples/rtt_tomography.py
"""

from repro._util.rng import derive_rng
from repro.core.spin import SpinPolicy
from repro.core.tomography import SpinTomographyObserver
from repro.netsim.delays import ConstantDelay
from repro.netsim.events import Simulator
from repro.netsim.path import PathProfile
from repro.web.http3 import ResponsePlan, build_exchange

ONE_WAY_MS = 35.0


def run_with_tap(position_from_client: float) -> SpinTomographyObserver:
    simulator = Simulator()
    observer = SpinTomographyObserver(short_dcid_length=8)
    profile = PathProfile(propagation_delay_ms=ONE_WAY_MS, jitter=ConstantDelay(0.0))
    plan = ResponsePlan(
        server_header="LiteSpeed", think_time_ms=25.0, write_sizes=(260_000,)
    )
    handle = build_exchange(
        simulator, "www.tomography.test", [plan], SpinPolicy.SPIN, SpinPolicy.SPIN,
        profile, profile, derive_rng(42, "tomography-example", position_from_client),
        start_ms=0.0,
    )
    # Co-locate the two direction taps at the same physical point;
    # connect() waits for start_ms, so they see the first packet.
    handle.uplink.install_tap(observer.on_client_datagram, position=position_from_client)
    handle.downlink.install_tap(
        observer.on_server_datagram, position=1.0 - position_from_client
    )
    simulator.run()
    return observer


def main() -> None:
    print(f"true one-way delay {ONE_WAY_MS:.0f} ms "
          f"(RTT {2 * ONE_WAY_MS:.0f} ms)\n")
    for position in (0.1, 0.5, 0.9):
        observer = run_with_tap(position)
        steady = observer.samples[1:]
        if not steady:
            continue
        up = sum(s.upstream_ms for s in steady) / len(steady)
        down = sum(s.downstream_ms for s in steady) / len(steady)
        print(f"observer at {position:.0%} of the path (from the client):")
        print(f"  upstream component   (to server and back): {up:6.1f} ms")
        print(f"  downstream component (to client and back): {down:6.1f} ms")
        print(f"  full spin period:                          {up + down:6.1f} ms\n")
    print("moving the observation point shifts latency between the two\n"
          "components while their sum — the spin period — stays put.")


if __name__ == "__main__":
    main()
