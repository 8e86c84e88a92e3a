"""Workload inputs, every one a pure function of ``--seed``."""

from __future__ import annotations

import io
import random

from repro.artifacts.cbr import write_records_cbr
from repro.core.classify import SpinBehaviour
from repro.core.observer import SpinEdge, SpinObservation
from repro.internet.asdb import IpAddr
from repro.internet.population import PopulationConfig, build_population
from repro.web.scanner import ConnectionRecord

#: The ``scripts/chaos_smoke.sh`` fault plan (qlog truncation and datagram
#: corruption belong to the exporters and the monitor, not to a scan).
CHAOS_FAULTS = (
    "blackhole:0.03,handshake-stall:0.05,vn-failure:0.03,reset:0.05,"
    "slow-server:0.05,loss-burst:0.05"
)
CHURN_MIGRATION = "nat-rebind:0.2,cid-rotation:0.2,path-migration:0.05"

_PROVIDERS = ("cloudflare", "google", "fastly", "hostinger", "other-hosting")
_BEHAVIOURS = (
    SpinBehaviour.SPIN,
    SpinBehaviour.SPIN,
    SpinBehaviour.ALL_ZERO,
    SpinBehaviour.ALL_ONE,
    SpinBehaviour.GREASE,
)
_FIRST_SYNTHETIC_WEEK = 10


def week_label(offset: int) -> str:
    """The ``offset``-th synthetic measurement week (cw10-2023 onwards)."""
    serial = _FIRST_SYNTHETIC_WEEK - 1 + offset
    return f"cw{serial % 52 + 1:02d}-{2023 + serial // 52}"


def domain_name(index: int) -> str:
    return f"dom{index:07d}.example"


def week_records(seed: int, week_offset: int, count: int) -> list[ConnectionRecord]:
    """One week of connection records in the ``test_perf_*`` record shape.

    Spinning connections carry two to five edges; behaviours and providers
    cycle so every analysis section has something to fold.  Domain indices
    continue across weeks, so each domain occurs exactly once per archive.
    """
    rng = random.Random(f"{seed}:records:{week_offset}")
    week = week_label(week_offset)
    records = []
    for position in range(count):
        index = week_offset * count + position
        behaviour = _BEHAVIOURS[rng.randrange(len(_BEHAVIOURS))]
        spinning = behaviour is SpinBehaviour.SPIN
        rtt = 10.0 + rng.randrange(90)
        edges = [
            SpinEdge(
                time_ms=1_000.0 * week_offset + rtt * j,
                packet_number=j * 3 + 1,
                new_value=bool(j % 2),
            )
            for j in range(rng.randrange(2, 6) if spinning else 0)
        ]
        rtts = [rtt for _ in edges[1:]]
        observation = SpinObservation(
            packets_seen=max(4, len(edges) * 4),
            values_seen={False, True} if spinning else {False},
            edges_received=edges,
            edges_sorted=list(edges),
            rtts_received_ms=rtts,
            rtts_sorted_ms=list(rtts),
        )
        name = domain_name(index)
        records.append(
            ConnectionRecord(
                domain=name,
                host=f"www.{name}",
                ip=IpAddr(value=0x0A000001 + rng.randrange(1 << 20), version=4),
                ip_version=4,
                provider_name=_PROVIDERS[rng.randrange(len(_PROVIDERS))],
                server_header="LiteSpeed",
                status=200,
                success=True,
                behaviour=behaviour,
                observation=observation,
                stack_rtts_ms=list(rtts),
                negotiated_version=1,
                week=week,
            )
        )
    return records


def encode_cbr(records) -> bytes:
    buffer = io.BytesIO()
    write_records_cbr(records, buffer)
    return buffer.getvalue()


def typical_population(seed: int, draw: int, toplist: int, czds: int,
                       candidates: int = 9):
    """The ``draw``-th population of ``seed``: the median of nine by QUIC share.

    At benchmark scale the number of QUIC-answering domains — which do
    nearly all of a scan's work — varies by +-15 % between population
    seeds, and with it domains/s.  Drawing nine populations and keeping
    the median one still makes the input a function of the seed alone,
    while two seeds now cost about the same to scan.
    """
    drawn = []
    for candidate in range(candidates):
        population = build_population(
            PopulationConfig(
                toplist_domains=toplist,
                czds_domains=czds,
                seed=(seed * 100 + draw) * 100 + candidate,
            )
        )
        answering = sum(
            1 for d in population.domains if d.resolves and d.quic_enabled
        )
        drawn.append((answering, candidate, population))
    drawn.sort(key=lambda row: row[:2])
    return drawn[len(drawn) // 2][2]
