"""RFC 9312 filtering study on measured scan data.

The paper's conclusion calls for "studying the usefulness of filtering
techniques described in RFC 9312" on real measurement data — exactly
the follow-up its released dataset enables.  This module applies the
observer heuristics of :mod:`repro.core.heuristics` to a set of scanned
connections and reports how each filter chain changes the Section 5.1
accuracy picture.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from repro._util.stats import CounterState
from repro.artifacts.cbr import RecordBatch
from repro.core.heuristics import DynamicThresholdFilter, StaticThresholdFilter
from repro.core.metrics import mean_accuracy
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

    def add_many(
        self, absolutes: Sequence[float], ratios: Sequence[float], lost: int = 0
    ) -> None:
        """Count connections given as two columns (each one's ``spin -
        QUIC`` in ms and mapped ratio) and ``lost`` connections without a
        result.  Each column is sorted once and a counter is the distance
        between bisect positions, so neither may hold NaN — which a
        :func:`mean_accuracy` result never does (see
        :meth:`SeriesSummary.add_many`)."""
        ratios = sorted(ratios)
        self.connections += len(ratios)
        self.connections_lost += lost
        self.within_25pct += bisect_right(ratios, 1.25) - bisect_left(ratios, -1.25)
        self.underestimating += bisect_left(sorted(absolutes), 0.0)

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

    Starts from the batch's comparable spinning connections
    (:attr:`RecordBatch.comparable`), whose raw result and stack mean
    the four variants share.  The hold-time filter works on edges, not
    samples; an edge's arrival time is all it reads, so the fold runs it
    over the connection's ``times_received``.  A static floor that the
    smallest sample reaches (every clean path) drops nothing, and the
    variant reuses the result it started from.  A variant whose series
    has no mean in ``(0, inf)`` counts in ``connections_lost``.
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
        filter_rtts = self._static_filter.filter_rtts
        floor = self._static_filter.min_rtt_ms
        accepted_intervals = self._hold_filter.accepted_intervals
        comparable = batch.comparable
        # Per variant, each connection's ``(absolute_ms, ratio, ...)`` or
        # ``None`` (lost) in row order, counted once at the end.
        static, hold_time, combined = [], [], []
        for entry in comparable:
            _, _, quic_mean, base, times, _, _ = entry
            static.append(
                entry if min(base) >= floor
                else mean_accuracy(filter_rtts(base), quic_mean)
            )
            hold_series = accepted_intervals(times)
            held = mean_accuracy(hold_series, quic_mean)
            hold_time.append(held)
            # Only a series with a result is known to hold no NaN, which
            # ``min`` would order by position.
            combined.append(
                held if held is not None and min(hold_series) >= floor
                else mean_accuracy(filter_rtts(hold_series), quic_mean)
            )
        for outcome, results in zip(
            self._study.outcomes(), (comparable, static, hold_time, combined)
        ):
            kept = [result for result in results if result is not None]
            outcome.add_many(
                [result[0] for result in kept], [result[1] for result in kept],
                len(results) - len(kept),
            )

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
