"""Shared fixtures and factories for the test suite.

The factories build analysis-layer inputs (observations, connection
records) directly, so analysis tests do not need to run full packet
simulations; integration tests exercise the real pipeline separately.
"""

from __future__ import annotations

import gc
import json
import sys

import pytest

from repro._util.rng import derive_rng
from repro.core.classify import SpinBehaviour
from repro.core.observer import SpinObservation, SpinObserver
from repro.core.spin import SpinPolicy
from repro.internet.asdb import IpAddr
from repro.internet.population import PopulationConfig, build_population
from repro.netsim.events import Simulator
from repro.qlog.recorder import TraceRecorder
from repro.web.http3 import build_exchange
from repro.web.scanner import ConnectionRecord


def make_observation(
    packets: list[tuple[float, int, bool]],
) -> SpinObservation:
    """Run the observer over explicit (time, pn, spin) packets."""
    observer = SpinObserver()
    for time_ms, packet_number, spin in packets:
        observer.on_packet(time_ms, packet_number, spin)
    return observer.observation()


def make_connection_record(
    spin_rtts: list[float] | None = None,
    stack_rtts: list[float] | None = None,
    behaviour: SpinBehaviour = SpinBehaviour.SPIN,
    packets: list[tuple[float, int, bool]] | None = None,
    ip_value: int = 0x0A000001,
    provider: str = "other-hosting",
    server_header: str = "LiteSpeed",
    domain: str = "example.com",
) -> ConnectionRecord:
    """A connection record with a hand-crafted observation.

    If ``packets`` is given, the observation (and with it the spin RTT
    series) is computed from them; otherwise a synthetic observation is
    fabricated whose received/sorted series equal ``spin_rtts``.
    """
    if packets is not None:
        observation = make_observation(packets)
    else:
        observation = SpinObservation(packets_seen=max(2, len(spin_rtts or []) + 1))
        observation.values_seen = {False, True}
        observation.rtts_received_ms = list(spin_rtts or [])
        observation.rtts_sorted_ms = list(spin_rtts or [])
    return ConnectionRecord(
        domain=domain,
        host=f"www.{domain}",
        ip=IpAddr(value=ip_value, version=4),
        ip_version=4,
        provider_name=provider,
        server_header=server_header,
        status=200,
        success=True,
        behaviour=behaviour,
        observation=observation,
        stack_rtts_ms=list(stack_rtts or []),
    )


def tap_exchange(
    plan,
    profile,
    rng,
    uplink_tap=None,
    downlink_tap=None,
    server_policy=SpinPolicy.SPIN,
    **configs,
):
    """Run one HTTP/3 fetch with on-path taps at each direction's
    receiving end (``Path.install_tap``, position 1.0).

    A tap is a ``tap(time_ms, data)`` callback that sees every delivered
    datagram of its direction; ``configs`` are ``client_config`` /
    ``server_config``.  Returns the finished :class:`ExchangeHandle`,
    whose ``recorder`` holds the client's qlog trace.
    """
    simulator = Simulator()
    handle = build_exchange(
        simulator,
        "www.tapped.test",
        [plan],
        SpinPolicy.SPIN,
        server_policy,
        profile,
        profile,
        rng,
        recorder=TraceRecorder(vantage_point="client"),
        start_ms=0.0,
        **configs,
    )
    # connect() waits for start_ms, so the taps see the first packet.
    if uplink_tap is not None:
        handle.uplink.install_tap(uplink_tap, position=1.0)
    if downlink_tap is not None:
        handle.downlink.install_tap(downlink_tap, position=1.0)
    simulator.run(max_events=200_000)
    return handle


@pytest.fixture(scope="session")
def tiny_population():
    """A small deterministic population shared by integration tests."""
    return build_population(
        PopulationConfig(toplist_domains=250, czds_domains=1200, seed=99)
    )


@pytest.fixture()
def rng():
    """A deterministic RNG, fresh per test."""
    return derive_rng(1234, "test")


_ARCHIVE_PROVIDERS = ("cloudflare", "google", "fastly", "hostinger", "other-hosting")
_ARCHIVE_BEHAVIOURS = (
    SpinBehaviour.SPIN, SpinBehaviour.SPIN, SpinBehaviour.ALL_ZERO,
    SpinBehaviour.ALL_ONE, SpinBehaviour.GREASE,
)


def archive_week_label(offset: int) -> str:
    """The ``offset``-th week of a synthetic archive (cw10-2023 onwards)."""
    return f"cw{10 + offset}-2023"


def make_archive_week(week_offset: int, count: int, seed: int = 20230520):
    """One week of a longitudinal archive, in the shape of the benchmark's
    ``archive_query`` input: two fifths of the connections spin with two
    to five edges, providers and behaviours cycle, every domain occurs
    once per archive.  Weeks written in order keep week envelopes tight
    per chunk, as a shard merge does."""
    import random

    from repro.core.observer import SpinEdge

    rng = random.Random(f"{seed}:archive:{week_offset}")
    records = []
    for position in range(count):
        index = week_offset * count + position
        behaviour = _ARCHIVE_BEHAVIOURS[rng.randrange(len(_ARCHIVE_BEHAVIOURS))]
        spinning = behaviour is SpinBehaviour.SPIN
        rtt = 10.0 + rng.randrange(90)
        edges = [
            SpinEdge(1_000.0 * week_offset + rtt * j, j * 3 + 1, bool(j % 2))
            for j in range(rng.randrange(2, 6) if spinning else 0)
        ]
        rtts = [rtt for _ in edges[1:]]
        name = f"dom{index:07d}.example"
        records.append(
            ConnectionRecord(
                domain=name,
                host=f"www.{name}",
                ip=IpAddr(value=0x0A000001 + rng.randrange(1 << 20), version=4),
                ip_version=4,
                provider_name=_ARCHIVE_PROVIDERS[rng.randrange(len(_ARCHIVE_PROVIDERS))],
                server_header="LiteSpeed",
                status=200,
                success=True,
                behaviour=behaviour,
                observation=SpinObservation(
                    packets_seen=max(4, len(edges) * 4),
                    values_seen={False, True} if spinning else {False},
                    edges_received=edges,
                    edges_sorted=list(edges),
                    rtts_received_ms=rtts,
                    rtts_sorted_ms=list(rtts),
                ),
                stack_rtts_ms=list(rtts),
                negotiated_version=1,
                week=archive_week_label(week_offset),
            )
        )
    return records


def scan_checkpoint(directory):
    """The one scan directory a ``--checkpoint-dir`` holds: the store
    keeps each scan's shards under a name derived from its identity."""
    (scan,) = [path for path in directory.iterdir() if path.is_dir()]
    return scan


def indented_week_json(summary) -> str:
    """A week file as ``WeekSummary.to_json`` wrote it while it still
    passed ``indent=1`` (the pure-Python JSON encoder): the oracle the
    compact encoding must parse equal to, and the format an index
    written then holds on disk."""
    data = {"schema": 1, "week": summary.week, **summary.state()}
    return json.dumps(data, sort_keys=True, indent=1) + "\n"


def count_calls(run, only=None):
    """``(calls, run())``: the Python-level calls (``sys.setprofile``
    ``call`` + ``c_call``) ``run`` makes — a pure function of the code
    and its input, no clock involved, counted with the garbage collector
    off.  With ``only`` (a builtin), the calls of that function alone."""
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if only is None:
            calls += event in ("call", "c_call")
        else:
            calls += event == "c_call" and arg is only

    previous = sys.getprofile()
    # A collection inside the window would count the interpreter's GC
    # callbacks (Hypothesis installs one), and whether one falls there
    # depends on what ran before: the collector waits outside.
    collecting = gc.isenabled()
    gc.collect()
    gc.disable()
    sys.setprofile(count)
    try:
        result = run()
    finally:
        sys.setprofile(previous)
        if collecting:
            gc.enable()
    return calls, result
