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

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

from repro._util.stats import CounterState, Histogram
from repro.artifacts.cbr import RecordBatch
from repro.core.classify import SpinBehaviour
from repro.core.metrics import mean_accuracy
from repro.web.scanner import ConnectionRecord

__all__ = [
    "AccuracyFold",
    "AccuracyStudy",
    "ReorderingImpact",
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

#: The four series of an :class:`AccuracyStudy`, by field name.
_SERIES = ("spin_received", "spin_sorted", "grease_received", "grease_sorted")


@dataclass
class SeriesSummary(CounterState):
    """One (group, ordering) series: histograms plus headline shares.

    Holds the integer counters the shares are computed from, never the
    per-connection results: a series costs the same memory after ten
    connections or ten million, and it persists and merges by plain
    addition (the service's week files) while rendering byte-identically
    — every share is the same exact ``int / int`` division.
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

    def add_many(self, absolutes: Sequence[float], ratios: Sequence[float]) -> None:
        """Count connections given as two columns: each one's ``spin -
        QUIC`` (ms) and mapped ratio.

        Both columns are sorted once and every counter is the distance
        between two bisect positions, so neither may hold NaN.  The
        folds' columns cannot: :attr:`RecordBatch.comparable` and
        :func:`mean_accuracy` give a result only for two means in
        ``(0, inf)``, whose difference is finite and whose ratio is
        finite or infinite.
        """
        absolutes = sorted(absolutes)
        ratios = sorted(ratios)
        n = len(absolutes)
        self.connections += n
        self.overestimating += n - bisect_right(absolutes, 0.0)
        self.underestimating += bisect_left(absolutes, 0.0)
        self.within_25ms += bisect_right(absolutes, 25.0) - bisect_left(absolutes, -25.0)
        self.over_200ms += n - bisect_right(absolutes, 200.0)
        self.within_25pct += bisect_right(ratios, 1.25) - bisect_left(ratios, -1.25)
        self.within_factor2 += bisect_right(ratios, 2.0) - bisect_left(ratios, -2.0)
        self.over_factor3 += n - bisect_right(ratios, 3.0)
        self.abs_histogram.add_sorted(absolutes)
        self.ratio_histogram.add_sorted(ratios)

    def _share(self, count: int) -> float:
        return count / self.connections if self.connections else 0.0

    # -- Figure 3 headline numbers ------------------------------------

    @property
    def overestimate_share(self) -> float:
        """Paper: 97.7 % of Spin (R) results overestimate the RTT."""
        return self._share(self.overestimating)

    @property
    def underestimate_share(self) -> float:
        return self._share(self.underestimating)

    @property
    def within_25ms_share(self) -> float:
        """Paper: 28.8 % of connections within |spin - QUIC| <= 25 ms."""
        return self._share(self.within_25ms)

    @property
    def over_200ms_share(self) -> float:
        """Paper: 41.3 % overestimate by more than 200 ms."""
        return self._share(self.over_200ms)

    # -- Figure 4 headline numbers ------------------------------------

    @property
    def within_25pct_share(self) -> float:
        """Paper: 30.5 % of spinning connections within 25 % of the RTT."""
        return self._share(self.within_25pct)

    @property
    def within_factor2_share(self) -> float:
        """Paper: 36.0 % within a factor of two."""
        return self._share(self.within_factor2)

    @property
    def over_factor3_share(self) -> float:
        """Paper: 51.7 % overestimate by more than a factor of three."""
        return self._share(self.over_factor3)


@dataclass
class ReorderingImpact(CounterState):
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

    Reads the batch's comparable spinning connections
    (:attr:`RecordBatch.comparable`; a connection without spin activity
    or with an empty or degenerate series is not among them).  All but
    the reordered ones (paper: 0.28 %) have one series and one result; a
    differing sorted series without a mean in ``(0, inf)`` excludes the
    connection, like a received one.
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
        impact = study.reordering
        grease = SpinBehaviour.GREASE
        # Per series, each connection's ``(absolute_ms, ratio, ...)`` in
        # row order, counted once at the end.
        results = {key: [] for key in _SERIES}
        spin_received, spin_sorted, grease_received, grease_sorted = results.values()
        for entry in batch.comparable:
            absolute, _, quic_mean, received, _, sorted_series, behaviour = entry
            changed = sorted_series is not received and sorted_series != received
            resorted = mean_accuracy(sorted_series, quic_mean) if changed else entry
            if resorted is None:
                continue
            if behaviour is grease:
                grease_received.append(entry)
                grease_sorted.append(resorted)
                continue
            spin_received.append(entry)
            spin_sorted.append(resorted)
            if changed:
                impact.connections_changed += 1
                if abs(absolute - resorted[0]) < 1.0:
                    impact.changed_below_1ms += 1
                if abs(resorted[0]) <= abs(absolute):
                    impact.changed_improved += 1
        impact.connections_compared += len(spin_received)
        for key, series in results.items():
            getattr(study, key).add_many(
                [result[0] for result in series], [result[1] for result in series]
            )

    def state(self) -> dict:
        study = self._study
        return {
            "accuracy": {key: getattr(study, key).state() for key in _SERIES},
            "reordering": study.reordering.state(),
        }

    def merge(self, state: Mapping) -> None:
        study = self._study
        series = state.get("accuracy") or {}
        for key in _SERIES:
            getattr(study, key).merge(series.get(key) or {})
        study.reordering.merge(state.get("reordering") or {})

    def finish(self) -> AccuracyStudy:
        return self._study


def accuracy_study(connections: Iterable[ConnectionRecord]) -> AccuracyStudy:
    """Run the Section 5 analysis over spin-active connection records."""
    fold = AccuracyFold()
    fold.update_many(RecordBatch.coerce(connections))
    return fold.finish()
