"""Statistics primitives for the analysis pipeline.

The analysis modules (Tables 1-4, Figures 2-4) only need a handful of
well-specified operations: means, percentiles, binomial probabilities for
the RFC-compliance reference curves of Figure 2, and a histogram type
whose bins can be rendered as the relative histograms the paper plots.
Implementing them here (instead of pulling in scipy or numpy at import
time) keeps the core library light: the package has no third-party
dependency.
"""

from __future__ import annotations

import bisect
import math
import random
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

__all__ = [
    "CounterState",
    "Histogram",
    "add_counts",
    "binomial_pmf",
    "percentile",
    "weighted_choice",
]


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolation percentile, ``q`` in [0, 100].

    Matches numpy's default ("linear") method so results are consistent
    with any numpy-based post-processing users run on exported data.
    """
    if not values:
        raise ValueError("percentile() of an empty sequence")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile q must be in [0, 100], got {q}")
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    rank = (q / 100.0) * (len(ordered) - 1)
    low = math.floor(rank)
    high = math.ceil(rank)
    if low == high:
        return ordered[low]
    fraction = rank - low
    return ordered[low] * (1.0 - fraction) + ordered[high] * fraction


def binomial_pmf(k: int, n: int, p: float) -> float:
    """P[X = k] for X ~ Binomial(n, p).

    Used for the RFC 9000 / RFC 9312 reference curves in Figure 2: if a
    compliant endpoint disables the spin bit independently on one in
    ``N`` connections, the number of weeks (out of ``n`` sampled) in
    which a weekly one-shot connection spins is Binomial(n, 1 - 1/N).
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must be in [0, 1], got {p}")
    if k < 0 or k > n:
        return 0.0
    return math.comb(n, k) * (p**k) * ((1.0 - p) ** (n - k))


def weighted_choice(rng: random.Random, items: Sequence[object], weights: Sequence[float]):
    """Pick one item with probability proportional to its weight.

    A tiny, allocation-free alternative to ``random.choices(...)[0]`` for
    hot loops; weights must be non-negative and not all zero.
    """
    if len(items) != len(weights):
        raise ValueError("items and weights must have the same length")
    total = 0.0
    cumulative = []
    for weight in weights:
        if weight < 0:
            raise ValueError("weights must be non-negative")
        total += weight
        cumulative.append(total)
    if total <= 0:
        raise ValueError("at least one weight must be positive")
    point = rng.random() * total
    index = bisect.bisect_right(cumulative, point)
    if index >= len(items):  # guard against floating-point edge at total
        index = len(items) - 1
    return items[index]


@dataclass
class Histogram:
    """A relative histogram over explicit bin edges.

    ``edges`` are the ``n + 1`` boundaries of ``n`` bins; samples outside
    the outer edges are accumulated into ``underflow`` / ``overflow`` so
    no observation is silently dropped — the paper's figures likewise
    show open-ended first/last bins.
    """

    edges: Sequence[float]
    counts: list[int] = field(default_factory=list)
    underflow: int = 0
    overflow: int = 0

    def __post_init__(self) -> None:
        if len(self.edges) < 2:
            raise ValueError("a histogram needs at least two bin edges")
        if any(b >= a for a, b in zip(self.edges[1:], self.edges[:-1])):
            raise ValueError("bin edges must be strictly increasing")
        if not self.counts:
            self.counts = [0] * (len(self.edges) - 1)
        elif len(self.counts) != len(self.edges) - 1:
            raise ValueError("counts length must be len(edges) - 1")

    def add(self, value: float) -> None:
        """Record one observation."""
        if value < self.edges[0]:
            self.underflow += 1
            return
        if not value < self.edges[-1]:  # NaN too: no bin holds it
            self.overflow += 1
            return
        index = bisect.bisect_right(self.edges, value) - 1
        self.counts[index] += 1

    def extend(self, values: Iterable[float]) -> None:
        """Record many observations."""
        for value in values:
            self.add(value)

    def add_sorted(self, values: Sequence[float]) -> None:
        """Record observations given in ascending order, none of them NaN:
        one bisect per edge (the values below edge ``i`` are ``values[:p_i]``)."""
        positions = [bisect.bisect_left(values, edge) for edge in self.edges]
        self.underflow += positions[0]
        self.overflow += len(values) - positions[-1]
        counts = self.counts
        for index in range(len(counts)):
            counts[index] += positions[index + 1] - positions[index]

    @property
    def total(self) -> int:
        """Total number of observations, including under/overflow."""
        return sum(self.counts) + self.underflow + self.overflow

    def fractions(self) -> list[float]:
        """Per-bin relative frequencies (under/overflow included in the norm)."""
        total = self.total
        if total == 0:
            return [0.0] * len(self.counts)
        return [count / total for count in self.counts]

    def merge(self, other: "Histogram") -> None:
        """Add ``other``'s bins in; its edges must be these edges."""
        if list(other.edges) != list(self.edges):
            raise ValueError(
                f"histogram edges differ: {list(other.edges)} != {list(self.edges)}"
            )
        self.underflow += other.underflow
        self.overflow += other.overflow
        for index, count in enumerate(other.counts):
            self.counts[index] += count

    def as_dict(self) -> dict:
        """JSON-serializable representation (for artifact export)."""
        return {
            "edges": list(self.edges),
            "counts": list(self.counts),
            "underflow": self.underflow,
            "overflow": self.overflow,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Histogram":
        """Inverse of :meth:`as_dict`."""
        return cls(
            edges=list(data["edges"]),
            counts=list(data["counts"]),
            underflow=int(data.get("underflow", 0)),
            overflow=int(data.get("overflow", 0)),
        )


def add_counts(target: dict, source: Mapping | None) -> None:
    """Add the counter map ``source`` (``None``: empty) into ``target``."""
    for key, count in (source or {}).items():
        target[key] = target.get(key, 0) + int(count)


class CounterState:
    """For a record of commutative counters: its ``int`` and
    :class:`Histogram` attributes are its mergeable state.

    ``state()`` is the JSON-able dict of every attribute; ``merge(state)``
    adds the counters of such a dict in and leaves every other attribute
    (a label) alone.  Keys the dict lacks count as zero, so loading is
    merging into a fresh instance.
    """

    def state(self) -> dict:
        return {
            name: value.as_dict() if isinstance(value, Histogram) else value
            for name, value in vars(self).items()
        }

    def merge(self, state: Mapping) -> None:
        for name, mine in list(vars(self).items()):
            theirs = state.get(name)
            if theirs is None:
                continue
            if isinstance(mine, Histogram):
                mine.merge(Histogram.from_dict(theirs))
            elif isinstance(mine, int):
                setattr(self, name, mine + int(theirs))
