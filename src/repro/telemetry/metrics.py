"""Metric primitives: counters, gauges, log-bucket histograms.

:class:`MetricsRegistry` is the single sink every subsystem reports
into.  Design constraints, in order:

1. **Determinism.**  A metric value may never depend on wall-clock
   time, thread scheduling, or worker count.  Counters are integers,
   histogram sums use exact summation
   (:class:`~repro._util.histogram.LogHistogram`), and every export is
   sorted by series key — so a registry merged from parallel-scan
   worker shards renders byte-identically to one filled sequentially.
2. **Losslessness under merge.**  :meth:`MetricsRegistry.merge` folds a
   worker registry into the parent without approximation:
   counters add, histograms merge bin-by-bin (exact partial sums), and
   each gauge declares its own aggregation (``last``/``sum``/``max``).
3. **Zero dependencies, and no hot-path cost at all.**  A series is a
   plain object with one mutable ``value`` slot; per-packet code never
   touches one — it counts in its own ints, and its owner copies them
   in where the enclosing span closes (``counter(name).inc(total)``).

Labels follow the Prometheus model: a series is identified by
``(name, sorted label items)``.
"""

from __future__ import annotations

from typing import Iterator, Mapping

from repro._util.histogram import LogHistogram

__all__ = ["Counter", "Gauge", "HistogramMetric", "MetricsRegistry"]

#: Valid gauge merge semantics (how shard values fold into one).
GAUGE_AGGREGATIONS = ("last", "sum", "max")

_LabelItems = tuple[tuple[str, str], ...]


def _label_items(labels: Mapping[str, object]) -> _LabelItems:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _series_id(name: str, items: _LabelItems) -> str:
    """Canonical ``name{k=v,...}`` series key used in exports."""
    if not items:
        return name
    rendered = ",".join(f"{key}={value}" for key, value in items)
    return f"{name}{{{rendered}}}"


class Counter:
    """A monotonically increasing integer counter."""

    kind = "counter"
    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: _LabelItems):
        self.name = name
        self.labels = labels
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        """Add ``amount`` (a non-negative int: counters never float)."""
        self.value += amount

    def _merge(self, other: "Counter") -> None:
        self.value += other.value


class Gauge:
    """A point-in-time value with declared merge semantics.

    ``agg`` decides how two shards' values fold into one:
    ``"last"`` (the merged-in value wins — for values where any shard
    is representative), ``"sum"`` (per-shard resources), ``"max"``
    (high-water marks).
    """

    kind = "gauge"
    __slots__ = ("name", "labels", "value", "agg")

    def __init__(self, name: str, labels: _LabelItems, agg: str = "last"):
        if agg not in GAUGE_AGGREGATIONS:
            raise ValueError(f"gauge agg must be one of {GAUGE_AGGREGATIONS}")
        self.name = name
        self.labels = labels
        self.value = 0.0
        self.agg = agg

    def set(self, value: float) -> None:
        self.value = value

    def set_max(self, value: float) -> None:
        """Raise the gauge to ``value`` if it exceeds the current one."""
        if value > self.value:
            self.value = value

    def _merge(self, other: "Gauge") -> None:
        if self.agg != other.agg:
            raise ValueError(
                f"gauge {_series_id(self.name, self.labels)!r} merged with "
                f"conflicting aggregations {self.agg!r} vs {other.agg!r}"
            )
        if self.agg == "sum":
            self.value += other.value
        elif self.agg == "max":
            self.value = max(self.value, other.value)
        else:  # "last": the folded-in (later) shard wins
            self.value = other.value


class HistogramMetric:
    """A labeled series wrapping a shared log-bucket histogram."""

    kind = "histogram"
    __slots__ = ("name", "labels", "hist")

    def __init__(self, name: str, labels: _LabelItems, hist: LogHistogram):
        self.name = name
        self.labels = labels
        self.hist = hist

    def observe(self, value: float) -> None:
        self.hist.add(value)

    def absorb(self, hist: LogHistogram) -> None:
        """Fold a whole histogram of the registry's binning in."""
        self.hist.merge(hist)

    @property
    def value(self) -> dict:
        return self.hist.summary()

    def _merge(self, other: "HistogramMetric") -> None:
        self.hist.merge(other.hist)


class MetricsRegistry:
    """All metric series of one run (or one worker shard of a run)."""

    def __init__(self) -> None:
        self._series: dict[
            tuple[str, _LabelItems], Counter | Gauge | HistogramMetric
        ] = {}

    # -- series creation ------------------------------------------------

    def counter(self, name: str, **labels: object) -> Counter:
        return self._get_or_create(Counter, name, labels)

    def gauge(self, name: str, agg: str = "last", **labels: object) -> Gauge:
        gauge = self._get_or_create(Gauge, name, labels, agg=agg)
        if gauge.agg != agg:
            raise ValueError(
                f"gauge {name!r} already registered with agg={gauge.agg!r}"
            )
        return gauge

    def histogram(self, name: str, **labels: object) -> HistogramMetric:
        return self._get_or_create(HistogramMetric, name, labels)

    def _get_or_create(self, cls, name: str, labels: Mapping[str, object], **kw):
        items = _label_items(labels)
        key = (name, items)
        series = self._series.get(key)
        if series is None:
            if cls is HistogramMetric:
                # One binning, the default, for every series of every
                # registry and the monitor's windows: histograms always
                # merge losslessly.
                series = HistogramMetric(name, items, LogHistogram())
            else:
                series = cls(name, items, **kw)
            self._series[key] = series
        elif not isinstance(series, cls):
            raise ValueError(
                f"series {_series_id(name, items)!r} already registered "
                f"as a {series.kind}"
            )
        return series

    # -- aggregation ----------------------------------------------------

    def merge(self, other: "MetricsRegistry") -> None:
        """Fold ``other`` into this registry, losslessly.

        Series present in both must have the same kind; series only in
        ``other`` are adopted.  Merging shard registries in shard order
        yields exactly the registry a sequential run would have built.
        """
        for key, series in other._series.items():
            mine = self._series.get(key)
            if mine is None:
                if isinstance(series, HistogramMetric):
                    mine = self._get_or_create(
                        HistogramMetric, series.name, dict(series.labels)
                    )
                elif isinstance(series, Gauge):
                    mine = self._get_or_create(
                        Gauge, series.name, dict(series.labels), agg=series.agg
                    )
                else:
                    mine = self._get_or_create(
                        Counter, series.name, dict(series.labels)
                    )
            if mine.kind != series.kind:
                raise ValueError(
                    f"cannot merge {series.kind} into {mine.kind} "
                    f"({_series_id(series.name, series.labels)!r})"
                )
            mine._merge(series)

    # -- export ---------------------------------------------------------

    def series(self) -> Iterator[Counter | Gauge | HistogramMetric]:
        """All series in deterministic (name, labels) order."""
        for key in sorted(self._series):
            yield self._series[key]

    def snapshot(self) -> dict:
        """JSON-serializable registry state, deterministically ordered."""
        counters: dict[str, int] = {}
        gauges: dict[str, float] = {}
        histograms: dict[str, dict] = {}
        for series in self.series():
            series_id = _series_id(series.name, series.labels)
            if series.kind == "counter":
                counters[series_id] = series.value
            elif series.kind == "gauge":
                gauges[series_id] = series.value
            else:
                histograms[series_id] = series.value
        return {
            "counters": counters,
            "gauges": gauges,
            "histograms": histograms,
        }
