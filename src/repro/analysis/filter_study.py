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
from math import inf
from operator import sub
from typing import Iterable, Mapping, Sequence

from repro._util.stats import CounterState
from repro.artifacts.cbr import RecordBatch
from repro.core.heuristics import DynamicThresholdFilter, StaticThresholdFilter
from repro.core.metrics import AccuracyResult, accuracy_from_means
from repro.web.scanner import ConnectionRecord

__all__ = [
    "FilterFold",
    "FilterOutcome",
    "FilterStudy",
    "run_filter_study",
]


@dataclass
class FilterOutcome(CounterState):
    """One filter variant over the connection set, as the counters
    behind its rendered row (shares are exact ``int / int`` divisions)."""

    label: str
    connections: int = 0
    within_25pct: int = 0
    underestimating: int = 0
    connections_lost: int = 0

    def add(self, result: AccuracyResult) -> None:
        self.connections += 1
        if -1.25 <= result.ratio <= 1.25:
            self.within_25pct += 1
        if result.absolute_ms < 0:
            self.underestimating += 1

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
    connection and shared by the four variants.  A series whose sum is
    not positive (identically timestamped packets) or not finite (a
    damaged column) has no ratio: the connection is skipped when that is
    the raw series or the stack baseline, and counted in
    ``connections_lost`` for a filter variant.
    """

    name = "filters"
    needs_edges_received = False
    needs_edges_sorted = False

    def __init__(
        self, static_floor_ms: float = 1.0, hold_fraction: float = 0.125
    ) -> None:
        self._static_filter = StaticThresholdFilter(min_rtt_ms=static_floor_ms)
        self._hold_filter = DynamicThresholdFilter(fraction=hold_fraction)
        self._study = FilterStudy(
            raw=FilterOutcome("raw"),
            static=FilterOutcome(f"static >= {static_floor_ms:g} ms"),
            hold_time=FilterOutcome(f"hold-time {hold_fraction:g}"),
            combined=FilterOutcome("static + hold-time"),
        )

    def update_many(self, batch: RecordBatch) -> None:
        static_filter = self._static_filter
        hold_filter = self._hold_filter
        study = self._study
        for mask, stack, base, times in zip(
            batch.masks, batch.stacks, batch.rtts_received, batch.times_received
        ):
            if mask != 3 or not stack or not base:
                continue
            sum_base = sum(base)
            sum_stack = sum(stack)
            if not (0.0 < sum_base < inf and 0.0 < sum_stack < inf):
                continue
            quic_mean = sum_stack / len(stack)
            study.raw.add(accuracy_from_means(sum_base / len(base), quic_mean))

            static_series = static_filter.filter_rtts(base)
            _add(study.static, static_series, quic_mean)

            hold_times = hold_filter.filter_times(times)
            hold_series = list(map(sub, hold_times[1:], hold_times))
            _add(study.hold_time, hold_series, quic_mean)

            combined_series = static_filter.filter_rtts(hold_series)
            _add(study.combined, combined_series, quic_mean)

    def state(self) -> dict:
        return {"filters": [outcome.state() for outcome in self._study.outcomes()]}

    def merge(self, state: Mapping) -> None:
        for mine, theirs in zip(self._study.outcomes(), state.get("filters") or ()):
            mine.merge(theirs)

    def finish(self) -> FilterStudy:
        return self._study


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


def _add(outcome: FilterOutcome, series: Sequence[float], quic_mean: float) -> None:
    total = sum(series)
    if 0.0 < total < inf:
        outcome.add(accuracy_from_means(total / len(series), quic_mean))
    else:
        outcome.connections_lost += 1
