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

    def add(self, absolute: float, ratio: float) -> None:
        """Count one connection's ``spin - QUIC`` (ms) and mapped ratio."""
        self.connections += 1
        if -1.25 <= ratio <= 1.25:
            self.within_25pct += 1
        if absolute < 0:
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
        static_filter = self._static_filter
        floor = static_filter.min_rtt_ms
        accepted_intervals = self._hold_filter.accepted_intervals
        raw, static, hold_time, combined = self._study.outcomes()
        for absolute, ratio, quic_mean, base, times, _, _ in batch.comparable:
            raw.add(absolute, ratio)

            if min(base) >= floor:
                static.add(absolute, ratio)
            else:
                _add(static, static_filter.filter_rtts(base), quic_mean)

            hold_series = accepted_intervals(times)
            held = _add(hold_time, hold_series, quic_mean)

            # Only a series with a result is known to hold no NaN, which
            # ``min`` would order by position.
            if held is not None and min(hold_series) >= floor:
                combined.add(*held)
            else:
                _add(combined, static_filter.filter_rtts(hold_series), quic_mean)

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


def _add(
    outcome: FilterOutcome, series: Sequence[float], quic_mean: float
) -> tuple[float, float] | None:
    """Count ``series``' result in ``outcome`` — or the connection as
    lost to the filter — and return the result."""
    accuracy = mean_accuracy(series, quic_mean)
    if accuracy is None:
        outcome.connections_lost += 1
    else:
        outcome.add(*accuracy)
    return accuracy
