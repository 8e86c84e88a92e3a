"""Observer-side RTT filtering heuristics (RFC 9312, Section 4.2).

RFC 9312 suggests that passive spin-bit observers apply heuristics to
reject implausible samples — chiefly the ultra-short spin cycles that
reordering around an edge produces (Fig. 1b of the paper).  The paper
leaves evaluating these heuristics to future work and releases its raw
data for that purpose; this module implements the three standard ones so
the ablation benchmarks can quantify their effect:

* :class:`StaticThresholdFilter` — drop samples below a fixed floor;
* :class:`DynamicThresholdFilter` — reject an edge that arrives within
  a configured fraction of the current RTT estimate ("hold time");
* :class:`PacketNumberFilter` — ignore packets that arrive with a
  packet number lower than the highest already seen, which applies the
  endpoint's own RFC 9000 update rule at the observer and converts the
  received stream into the sorted (S) view online.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.core.observer import SpinEdge

__all__ = [
    "DynamicThresholdFilter",
    "PacketNumberFilter",
    "StaticThresholdFilter",
]


@dataclass(frozen=True)
class StaticThresholdFilter:
    """Reject RTT samples below an absolute plausibility floor.

    RFC 9312 notes that RTTs below the propagation delay of any
    realistic path (a few hundred microseconds within a metro, a few
    milliseconds across a region) cannot be genuine.
    """

    min_rtt_ms: float = 1.0

    def __post_init__(self) -> None:
        if self.min_rtt_ms < 0:
            raise ValueError("threshold must be non-negative")

    def filter_rtts(self, rtts_ms: Sequence[float]) -> list[float]:
        """Return the samples that survive the floor."""
        return [sample for sample in rtts_ms if sample >= self.min_rtt_ms]


@dataclass(frozen=True)
class DynamicThresholdFilter:
    """Hold-time heuristic: reject edges arriving implausibly soon.

    After accepting an edge, further edges within
    ``fraction * current_estimate`` are rejected and do not update the
    estimate.  The estimate starts with the first observed interval.
    RFC 9312 sketches this as ignoring edges for some portion of the
    measured RTT; Kunze et al. (2021) used a similar scheme on P4
    hardware.
    """

    fraction: float = 0.125

    def __post_init__(self) -> None:
        if not 0.0 < self.fraction < 1.0:
            raise ValueError("fraction must be in (0, 1)")

    def accepted_intervals(self, times_ms: Sequence[float]) -> list[float]:
        """RTT samples of the edges arriving at ``times_ms`` that survive
        the hold time: each one's interval to the edge accepted before it.
        An edge closer than ``fraction`` of the running estimate to the
        last accepted one is dropped."""
        intervals: list[float] = []
        fraction = self.fraction
        last_ms = times_ms[0] if times_ms else 0.0
        estimate_ms: float | None = None
        for time_ms in times_ms[1:]:
            interval = time_ms - last_ms
            if estimate_ms is not None and interval < fraction * estimate_ms:
                continue
            estimate_ms = interval
            intervals.append(interval)
            last_ms = time_ms
        return intervals

    def filter_rtts_from_edges(self, edges: Sequence[SpinEdge]) -> list[float]:
        """Convenience: filtered edges → RTT samples."""
        return self.accepted_intervals([edge.time_ms for edge in edges])


@dataclass(frozen=True)
class PacketNumberFilter:
    """Drop packets whose packet number regresses, then detect edges.

    This reproduces, at the observer, the endpoints' "highest packet
    number wins" rule: a reordered packet can no longer fabricate a
    spurious edge.  Operates on the raw received packet stream.
    """

    def filter_packets(
        self, packets: Iterable[tuple[float, int, bool]]
    ) -> list[tuple[float, int, bool]]:
        """Keep only packets advancing the packet number high-water mark."""
        kept: list[tuple[float, int, bool]] = []
        highest: int | None = None
        for time_ms, packet_number, spin in packets:
            if highest is not None and packet_number <= highest:
                continue
            highest = packet_number
            kept.append((time_ms, packet_number, spin))
        return kept
