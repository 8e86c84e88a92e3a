"""Fixed-bin log-scale histogram shared by monitor and telemetry.

:class:`LogHistogram` is the streaming-percentile workhorse (Prometheus
/ HdrHistogram style): constant memory, exact count/mean/min/max,
approximate percentiles with a relative error bounded by the bin ratio
(~±3.7 % at the default 32 bins per decade).

The running sum is kept as exact Shewchuk partials instead of a plain
float accumulator.  A plain ``+=`` is order-dependent (float addition
is not associative), which would make a histogram merged from parallel
worker shards differ in the last ulp from the sequentially filled one —
exactly the kind of nondeterminism the telemetry plane bans.  With
exact partials, ``total`` is the correctly rounded sum of the samples
regardless of insertion or merge order, so sharded and sequential runs
export byte-identical statistics.
"""

from __future__ import annotations

import math

__all__ = ["LogHistogram"]


def _add_partial(partials: list[float], value: float) -> None:
    """Fold ``value`` into a list of exact non-overlapping partials.

    Shewchuk's error-free transformation (the algorithm behind
    :func:`math.fsum`): after the update the partials sum *exactly* to
    the old exact sum plus ``value``.
    """
    index = 0
    for partial in partials:
        if abs(value) < abs(partial):
            value, partial = partial, value
        high = value + partial
        low = partial - (high - value)
        if low:
            partials[index] = low
            index += 1
        value = high
    partials[index:] = [value]


class LogHistogram:
    """Fixed-bin log-scale histogram with streaming percentiles.

    Bins cover ``[min_value, max_value)`` with ``bins_per_decade``
    logarithmically spaced bins per factor of ten; values outside the
    range land in dedicated under-/overflow bins, so nothing is ever
    dropped.  ``count``/``mean``/``min``/``max`` are exact; percentiles
    are read from the bin cumulative and reported at the bin's
    geometric midpoint.
    """

    __slots__ = (
        "min_value",
        "max_value",
        "bins_per_decade",
        "counts",
        "underflow",
        "overflow",
        "count",
        "min_seen",
        "max_seen",
        "_log_min",
        "_partials",
    )

    def __init__(
        self,
        min_value: float = 0.1,
        max_value: float = 60_000.0,
        bins_per_decade: int = 32,
    ):
        if min_value <= 0 or max_value <= min_value:
            raise ValueError("need 0 < min_value < max_value")
        if bins_per_decade < 1:
            raise ValueError("bins_per_decade must be positive")
        self.min_value = min_value
        self.max_value = max_value
        self.bins_per_decade = bins_per_decade
        self._log_min = math.log10(min_value)
        decades = math.log10(max_value) - self._log_min
        self.counts = [0] * (int(math.ceil(decades * bins_per_decade)) or 1)
        self.underflow = 0
        self.overflow = 0
        self.count = 0
        self.min_seen = math.inf
        self.max_seen = -math.inf
        self._partials: list[float] = []

    def __getstate__(self):
        return {slot: getattr(self, slot) for slot in self.__slots__}

    def __setstate__(self, state):
        for slot, value in state.items():
            setattr(self, slot, value)

    @property
    def total(self) -> float:
        """Exact (correctly rounded, order-independent) sample sum."""
        return math.fsum(self._partials)

    def add(self, value: float) -> None:
        """Record one observation."""
        self.count += 1
        _add_partial(self._partials, value)
        if value < self.min_seen:
            self.min_seen = value
        if value > self.max_seen:
            self.max_seen = value
        if value < self.min_value:
            self.underflow += 1
        elif value >= self.max_value:
            self.overflow += 1
        else:
            index = int(
                (math.log10(value) - self._log_min) * self.bins_per_decade
            )
            if index >= len(self.counts):  # float edge at max_value
                index = len(self.counts) - 1
            self.counts[index] += 1

    def merge(self, other: "LogHistogram") -> None:
        """Fold ``other`` (same binning) into this histogram."""
        if (
            other.min_value != self.min_value
            or other.max_value != self.max_value
            or other.bins_per_decade != self.bins_per_decade
        ):
            raise ValueError("cannot merge histograms with different binning")
        for index, count in enumerate(other.counts):
            self.counts[index] += count
        self.underflow += other.underflow
        self.overflow += other.overflow
        self.count += other.count
        for partial in other._partials:
            _add_partial(self._partials, partial)
        self.min_seen = min(self.min_seen, other.min_seen)
        self.max_seen = max(self.max_seen, other.max_seen)

    def percentile(self, q: float) -> float | None:
        """Approximate q-th percentile (``q`` in [0, 100]); ``None`` if empty.

        Underflow observations report the exact minimum seen, overflow
        the exact maximum; interior bins report their geometric
        midpoint, clamped into the exact [min, max] envelope.
        """
        if not 0.0 <= q <= 100.0:
            raise ValueError(f"percentile q must be in [0, 100], got {q}")
        if self.count == 0:
            return None
        target = (q / 100.0) * self.count
        cumulative = self.underflow
        if target <= cumulative:
            return self.min_seen
        for index, count in enumerate(self.counts):
            cumulative += count
            if target <= cumulative:
                midpoint = 10.0 ** (
                    self._log_min + (index + 0.5) / self.bins_per_decade
                )
                return min(max(midpoint, self.min_seen), self.max_seen)
        return self.max_seen

    def summary(self) -> dict:
        """The snapshot-export block: count + streaming statistics."""
        if self.count == 0:
            return {"count": 0}
        return {
            "count": self.count,
            "mean_ms": round(self.total / self.count, 3),
            "min_ms": round(self.min_seen, 3),
            "max_ms": round(self.max_seen, 3),
            "p50_ms": round(self.percentile(50.0), 3),
            "p90_ms": round(self.percentile(90.0), 3),
            "p99_ms": round(self.percentile(99.0), 3),
        }
