"""RTT accuracy analysis — Figures 3 and 4 of the paper (Section 5).

For every connection with spin activity the per-connection means of the
spin-bit and stack RTT series are compared:

* Figure 3: histogram of the absolute difference ``spin - QUIC`` (ms);
* Figure 4: histogram of the mapped ratio of the means.

Four series are produced, crossing the behaviour group (``Spin`` vs.
``Grease``) with the packet ordering (``R`` received vs. ``S`` sorted by
packet number), plus the Section 5.2 reordering-impact summary.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from repro._util.stats import Histogram
from repro.artifacts.cbr import RecordBatch
from repro.core.classify import SpinBehaviour
from repro.core.metrics import AccuracyResult, accuracy_from_means
from repro.web.scanner import ConnectionRecord

__all__ = [
    "AccuracyFold",
    "AccuracyStudy",
    "ReorderingImpact",
    "SeriesStats",
    "SeriesSummary",
    "accuracy_study",
    "ABS_DIFF_EDGES_MS",
    "RATIO_EDGES",
]

#: Figure 3 bin edges (ms); under/overflow hold the open-ended tails.
ABS_DIFF_EDGES_MS = (-200.0, -100.0, -50.0, -25.0, 0.0, 25.0, 50.0, 100.0, 200.0)

#: Figure 4 bin edges for the mapped ratio.  No value falls in (-1, 1);
#: the central bin [-1.25, 1.25) therefore holds the "within 25 %"
#: connections.
RATIO_EDGES = (-3.0, -2.0, -1.25, 1.25, 2.0, 3.0)


@dataclass
class SeriesSummary:
    """One (group, ordering) series: histograms plus headline shares."""

    label: str
    results: list[AccuracyResult] = field(default_factory=list)
    abs_histogram: Histogram = field(
        default_factory=lambda: Histogram(edges=ABS_DIFF_EDGES_MS)
    )
    ratio_histogram: Histogram = field(
        default_factory=lambda: Histogram(edges=RATIO_EDGES)
    )

    def add(self, result: AccuracyResult) -> None:
        self.results.append(result)
        self.abs_histogram.add(result.absolute_ms)
        self.ratio_histogram.add(result.ratio)

    @property
    def connections(self) -> int:
        return len(self.results)

    # -- Figure 3 headline numbers ------------------------------------

    @property
    def overestimate_share(self) -> float:
        """Paper: 97.7 % of Spin (R) results overestimate the RTT."""
        if not self.results:
            return 0.0
        return sum(1 for r in self.results if r.absolute_ms > 0) / len(self.results)

    @property
    def underestimate_share(self) -> float:
        if not self.results:
            return 0.0
        return sum(1 for r in self.results if r.absolute_ms < 0) / len(self.results)

    @property
    def within_25ms_share(self) -> float:
        """Paper: 28.8 % of connections within |spin - QUIC| <= 25 ms."""
        if not self.results:
            return 0.0
        return sum(1 for r in self.results if abs(r.absolute_ms) <= 25.0) / len(
            self.results
        )

    @property
    def over_200ms_share(self) -> float:
        """Paper: 41.3 % overestimate by more than 200 ms."""
        if not self.results:
            return 0.0
        return sum(1 for r in self.results if r.absolute_ms > 200.0) / len(self.results)

    # -- Figure 4 headline numbers ------------------------------------

    @property
    def within_25pct_share(self) -> float:
        """Paper: 30.5 % of spinning connections within 25 % of the RTT."""
        if not self.results:
            return 0.0
        return sum(1 for r in self.results if abs(r.ratio) <= 1.25) / len(self.results)

    @property
    def within_factor2_share(self) -> float:
        """Paper: 36.0 % within a factor of two."""
        if not self.results:
            return 0.0
        return sum(1 for r in self.results if abs(r.ratio) <= 2.0) / len(self.results)

    @property
    def over_factor3_share(self) -> float:
        """Paper: 51.7 % overestimate by more than a factor of three."""
        if not self.results:
            return 0.0
        return sum(1 for r in self.results if r.ratio > 3.0) / len(self.results)


@dataclass
class SeriesStats:
    """Count-based form of a :class:`SeriesSummary` (no per-result list).

    Holds exactly the integer counters the rendered summary and the
    headline shares are computed from, so it can be persisted, merged by
    plain addition (the service plane's per-week summaries), and still
    render byte-identically to the original series: every share is the
    same exact ``int / int`` division, and the histograms carry the same
    integer bins.
    """

    label: str
    connections: int = 0
    overestimating: int = 0
    underestimating: int = 0
    within_25ms: int = 0
    over_200ms: int = 0
    within_25pct: int = 0
    within_factor2: int = 0
    over_factor3: int = 0
    abs_histogram: Histogram = field(
        default_factory=lambda: Histogram(edges=ABS_DIFF_EDGES_MS)
    )
    ratio_histogram: Histogram = field(
        default_factory=lambda: Histogram(edges=RATIO_EDGES)
    )

    @classmethod
    def from_summary(cls, series: "SeriesSummary") -> "SeriesStats":
        """Reduce a full series to its mergeable counters."""
        results = series.results
        return cls(
            label=series.label,
            connections=len(results),
            overestimating=sum(1 for r in results if r.absolute_ms > 0),
            underestimating=sum(1 for r in results if r.absolute_ms < 0),
            within_25ms=sum(1 for r in results if abs(r.absolute_ms) <= 25.0),
            over_200ms=sum(1 for r in results if r.absolute_ms > 200.0),
            within_25pct=sum(1 for r in results if abs(r.ratio) <= 1.25),
            within_factor2=sum(1 for r in results if abs(r.ratio) <= 2.0),
            over_factor3=sum(1 for r in results if r.ratio > 3.0),
            abs_histogram=Histogram.from_dict(series.abs_histogram.as_dict()),
            ratio_histogram=Histogram.from_dict(series.ratio_histogram.as_dict()),
        )

    def merge(self, other: "SeriesStats") -> None:
        """Fold another series' counters in (commutative addition)."""
        self.connections += other.connections
        self.overestimating += other.overestimating
        self.underestimating += other.underestimating
        self.within_25ms += other.within_25ms
        self.over_200ms += other.over_200ms
        self.within_25pct += other.within_25pct
        self.within_factor2 += other.within_factor2
        self.over_factor3 += other.over_factor3
        for mine, theirs in (
            (self.abs_histogram, other.abs_histogram),
            (self.ratio_histogram, other.ratio_histogram),
        ):
            mine.underflow += theirs.underflow
            mine.overflow += theirs.overflow
            for index, count in enumerate(theirs.counts):
                mine.counts[index] += count

    def as_dict(self) -> dict:
        """JSON-serializable representation (service week summaries)."""
        return {
            "label": self.label,
            "connections": self.connections,
            "overestimating": self.overestimating,
            "underestimating": self.underestimating,
            "within_25ms": self.within_25ms,
            "over_200ms": self.over_200ms,
            "within_25pct": self.within_25pct,
            "within_factor2": self.within_factor2,
            "over_factor3": self.over_factor3,
            "abs_histogram": self.abs_histogram.as_dict(),
            "ratio_histogram": self.ratio_histogram.as_dict(),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "SeriesStats":
        """Inverse of :meth:`as_dict`."""
        return cls(
            label=data["label"],
            connections=int(data["connections"]),
            overestimating=int(data["overestimating"]),
            underestimating=int(data["underestimating"]),
            within_25ms=int(data["within_25ms"]),
            over_200ms=int(data["over_200ms"]),
            within_25pct=int(data["within_25pct"]),
            within_factor2=int(data["within_factor2"]),
            over_factor3=int(data["over_factor3"]),
            abs_histogram=Histogram.from_dict(data["abs_histogram"]),
            ratio_histogram=Histogram.from_dict(data["ratio_histogram"]),
        )

    # -- the same headline shares a SeriesSummary exposes --------------

    @property
    def overestimate_share(self) -> float:
        return self.overestimating / self.connections if self.connections else 0.0

    @property
    def underestimate_share(self) -> float:
        return self.underestimating / self.connections if self.connections else 0.0

    @property
    def within_25ms_share(self) -> float:
        return self.within_25ms / self.connections if self.connections else 0.0

    @property
    def over_200ms_share(self) -> float:
        return self.over_200ms / self.connections if self.connections else 0.0

    @property
    def within_25pct_share(self) -> float:
        return self.within_25pct / self.connections if self.connections else 0.0

    @property
    def within_factor2_share(self) -> float:
        return self.within_factor2 / self.connections if self.connections else 0.0

    @property
    def over_factor3_share(self) -> float:
        return self.over_factor3 / self.connections if self.connections else 0.0


@dataclass
class ReorderingImpact:
    """Section 5.2's R-vs-S comparison."""

    connections_compared: int = 0
    connections_changed: int = 0
    changed_below_1ms: int = 0
    changed_improved: int = 0

    @property
    def changed_share(self) -> float:
        """Paper: differing results for only 0.28 % of connections."""
        if not self.connections_compared:
            return 0.0
        return self.connections_changed / self.connections_compared

    @property
    def below_1ms_share(self) -> float:
        """Paper: 98.7 % of the differences are below 1 ms."""
        if not self.connections_changed:
            return 0.0
        return self.changed_below_1ms / self.connections_changed

    @property
    def improved_share(self) -> float:
        """Paper: sorting improves accuracy in 93.1 % of changed cases."""
        if not self.connections_changed:
            return 0.0
        return self.changed_improved / self.connections_changed


@dataclass
class AccuracyStudy:
    """The full Section 5 output: four series plus reordering impact."""

    spin_received: SeriesSummary
    spin_sorted: SeriesSummary
    grease_received: SeriesSummary
    grease_sorted: SeriesSummary
    reordering: ReorderingImpact


class AccuracyFold:
    """Streaming accumulator behind :func:`accuracy_study`.

    Connections without spin-bit RTT samples or without stack samples
    cannot be compared and are skipped (candidates with a single edge
    yield no interval).  Each series is summed once per connection and
    both results are built from the means.
    """

    name = "accuracy"
    needs_edges_received = False
    needs_edges_sorted = False

    def __init__(self) -> None:
        self._study = AccuracyStudy(
            spin_received=SeriesSummary("Spin (R)"),
            spin_sorted=SeriesSummary("Spin (S)"),
            grease_received=SeriesSummary("Grease (R)"),
            grease_sorted=SeriesSummary("Grease (S)"),
            reordering=ReorderingImpact(),
        )

    def update_many(self, batch: RecordBatch) -> None:
        study = self._study
        grease = SpinBehaviour.GREASE
        for mask, stack_rtts, received, sorted_series, behaviour in zip(
            batch.masks, batch.stacks, batch.rtts_received, batch.rtts_sorted,
            batch.behaviours,
        ):
            if mask != 3 or not stack_rtts or not received or not sorted_series:
                continue
            # Degenerate series (all-zero intervals from identically
            # timestamped packets, or a non-positive stack baseline) have
            # no meaningful ratio and are excluded, like empty ones.
            sum_received = sum(received)
            sum_sorted = sum(sorted_series)
            sum_stack = sum(stack_rtts)
            if sum_received <= 0.0 or sum_sorted <= 0.0 or sum_stack <= 0.0:
                continue
            quic_mean = sum_stack / len(stack_rtts)
            result_r = accuracy_from_means(sum_received / len(received), quic_mean)
            result_s = accuracy_from_means(sum_sorted / len(sorted_series), quic_mean)
            if behaviour is grease:
                study.grease_received.add(result_r)
                study.grease_sorted.add(result_s)
            else:
                study.spin_received.add(result_r)
                study.spin_sorted.add(result_s)
                impact = study.reordering
                impact.connections_compared += 1
                delta = abs(result_r.absolute_ms - result_s.absolute_ms)
                if received != sorted_series:
                    impact.connections_changed += 1
                    if delta < 1.0:
                        impact.changed_below_1ms += 1
                    if abs(result_s.absolute_ms) <= abs(result_r.absolute_ms):
                        impact.changed_improved += 1

    def finish(self) -> AccuracyStudy:
        return self._study


def accuracy_study(connections: Iterable[ConnectionRecord]) -> AccuracyStudy:
    """Run the Section 5 analysis over spin-active connection records."""
    fold = AccuracyFold()
    fold.update_many(RecordBatch.coerce(connections))
    return fold.finish()
