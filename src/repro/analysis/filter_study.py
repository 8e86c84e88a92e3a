"""RFC 9312 filtering study on measured scan data.

The paper's conclusion calls for "studying the usefulness of filtering
techniques described in RFC 9312" on real measurement data — exactly
the follow-up its released dataset enables.  This module applies the
observer heuristics of :mod:`repro.core.heuristics` to a set of scanned
connections and reports how each filter chain changes the Section 5.1
accuracy picture.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import sub
from typing import Iterable, Sequence

from repro.artifacts.cbr import RecordBatch
from repro.core.heuristics import DynamicThresholdFilter, StaticThresholdFilter
from repro.core.metrics import AccuracyResult, accuracy_from_means
from repro.web.scanner import ConnectionRecord

__all__ = [
    "FilterFold",
    "FilterOutcome",
    "FilterOutcomeStats",
    "FilterStudy",
    "run_filter_study",
]


@dataclass
class FilterOutcome:
    """Accuracy results of one filter variant over the connection set."""

    label: str
    results: list[AccuracyResult]
    connections_lost: int = 0

    @property
    def connections(self) -> int:
        return len(self.results)

    @property
    def within_25pct_share(self) -> float:
        if not self.results:
            return 0.0
        return sum(1 for r in self.results if abs(r.ratio) <= 1.25) / len(self.results)

    @property
    def underestimate_share(self) -> float:
        if not self.results:
            return 0.0
        return sum(1 for r in self.results if r.absolute_ms < 0) / len(self.results)

    @property
    def median_abs_ms(self) -> float:
        if not self.results:
            return 0.0
        ordered = sorted(abs(r.absolute_ms) for r in self.results)
        return ordered[len(ordered) // 2]


@dataclass
class FilterOutcomeStats:
    """Count-based form of a :class:`FilterOutcome` (no result list).

    Carries the integer counters behind the rendered filter-study rows,
    so per-week service summaries can persist and merge them by plain
    addition and still render byte-identically (shares are the same
    exact ``int / int`` divisions).
    """

    label: str
    connections: int = 0
    within_25pct: int = 0
    underestimating: int = 0
    connections_lost: int = 0

    @classmethod
    def from_outcome(cls, outcome: FilterOutcome) -> "FilterOutcomeStats":
        results = outcome.results
        return cls(
            label=outcome.label,
            connections=len(results),
            within_25pct=sum(1 for r in results if abs(r.ratio) <= 1.25),
            underestimating=sum(1 for r in results if r.absolute_ms < 0),
            connections_lost=outcome.connections_lost,
        )

    def merge(self, other: "FilterOutcomeStats") -> None:
        self.connections += other.connections
        self.within_25pct += other.within_25pct
        self.underestimating += other.underestimating
        self.connections_lost += other.connections_lost

    def as_dict(self) -> dict:
        return {
            "label": self.label,
            "connections": self.connections,
            "within_25pct": self.within_25pct,
            "underestimating": self.underestimating,
            "connections_lost": self.connections_lost,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "FilterOutcomeStats":
        return cls(
            label=data["label"],
            connections=int(data["connections"]),
            within_25pct=int(data["within_25pct"]),
            underestimating=int(data["underestimating"]),
            connections_lost=int(data["connections_lost"]),
        )

    @property
    def within_25pct_share(self) -> float:
        return self.within_25pct / self.connections if self.connections else 0.0

    @property
    def underestimate_share(self) -> float:
        return self.underestimating / self.connections if self.connections else 0.0


@dataclass
class FilterStudy:
    """All filter variants side by side."""

    raw: FilterOutcome
    static: FilterOutcome
    hold_time: FilterOutcome
    combined: FilterOutcome

    def outcomes(self) -> list[FilterOutcome]:
        return [self.raw, self.static, self.hold_time, self.combined]


class FilterFold:
    """Streaming accumulator behind :func:`run_filter_study`.

    The hold-time filter works on edges, not samples; an edge's arrival
    time is all it reads, so the fold runs it over the batch's
    ``times_received`` column.  The stack mean is computed once per
    connection and shared by the four variants.  A series whose mean is
    not positive (identically timestamped packets) has no ratio: the
    connection is skipped when that is the raw series or the stack
    baseline, and counted in ``connections_lost`` for a filter variant.
    """

    name = "filters"
    needs_edges_received = False
    needs_edges_sorted = False

    def __init__(
        self, static_floor_ms: float = 1.0, hold_fraction: float = 0.125
    ) -> None:
        self._static_filter = StaticThresholdFilter(min_rtt_ms=static_floor_ms)
        self._hold_filter = DynamicThresholdFilter(fraction=hold_fraction)
        self._raw = FilterOutcome("raw", [])
        self._static = FilterOutcome(f"static >= {static_floor_ms:g} ms", [])
        self._hold = FilterOutcome(f"hold-time {hold_fraction:g}", [])
        self._combined = FilterOutcome("static + hold-time", [])

    def update_many(self, batch: RecordBatch) -> None:
        static_filter = self._static_filter
        hold_filter = self._hold_filter
        raw_results = self._raw.results
        for mask, stack, base, times in zip(
            batch.masks, batch.stacks, batch.rtts_received, batch.times_received
        ):
            if mask != 3 or not stack or not base:
                continue
            sum_base = sum(base)
            sum_stack = sum(stack)
            if sum_base <= 0.0 or sum_stack <= 0.0:
                continue
            quic_mean = sum_stack / len(stack)
            raw_results.append(accuracy_from_means(sum_base / len(base), quic_mean))

            static_series = static_filter.filter_rtts(base)
            _append(self._static, static_series, quic_mean)

            hold_times = hold_filter.filter_times(times)
            hold_series = list(map(sub, hold_times[1:], hold_times))
            _append(self._hold, hold_series, quic_mean)

            combined_series = static_filter.filter_rtts(hold_series)
            _append(self._combined, combined_series, quic_mean)

    def finish(self) -> FilterStudy:
        return FilterStudy(
            raw=self._raw,
            static=self._static,
            hold_time=self._hold,
            combined=self._combined,
        )


def run_filter_study(
    records: Iterable[ConnectionRecord],
    static_floor_ms: float = 1.0,
    hold_fraction: float = 0.125,
) -> FilterStudy:
    """Apply the RFC 9312 filter chains to spin-active connections.

    Each variant recomputes the per-connection accuracy from the
    filtered sample series; connections whose series empties out under a
    filter are counted in ``connections_lost`` instead of skewing the
    averages.
    """
    fold = FilterFold(static_floor_ms=static_floor_ms, hold_fraction=hold_fraction)
    fold.update_many(RecordBatch.coerce(records))
    return fold.finish()


def _append(outcome: FilterOutcome, series: Sequence[float], quic_mean: float) -> None:
    total = sum(series)
    if not series or total <= 0.0:
        outcome.connections_lost += 1
    else:
        outcome.results.append(accuracy_from_means(total / len(series), quic_mean))
