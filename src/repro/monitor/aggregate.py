"""Windowed aggregation for the streaming monitor.

A long-running monitoring plane cannot keep per-sample data: it
publishes *windowed* statistics and forgets the raw samples.  Two
pieces implement that here:

* :class:`~repro._util.histogram.LogHistogram` (re-exported here for
  back-compat) — a fixed-bin log-scale histogram (constant memory,
  exact count/mean/min/max, approximate percentiles with a relative
  error bounded by the bin ratio — ~±3.7 % at its 32 bins per
  decade).  This is the standard telemetry trick (Prometheus /
  HdrHistogram style) for streaming RTT percentiles; the telemetry
  plane (:mod:`repro.telemetry`) uses the same class for its metric
  histograms.
* :class:`WindowAggregator` — tumbling windows over *stream* time, each
  accumulating flow/packet/sample counters plus a histogram; an
  optional sliding view merges the last ``slide_windows`` tumbling
  windows (pane-based sliding windows, no sample replay).

All state is O(bins + active flow keys per window); nothing grows with
stream length.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from repro._util.histogram import LogHistogram

__all__ = [
    "LogHistogram",
    "WindowConfig",
    "WindowSnapshot",
    "WindowAggregator",
]


@dataclass(frozen=True)
class WindowConfig:
    """Window geometry of the aggregation layer."""

    window_ms: float = 1_000.0
    #: Sliding view = merge of the last N tumbling windows; 1 disables
    #: the sliding block in snapshots (pure tumbling).
    slide_windows: int = 1

    def __post_init__(self) -> None:
        if self.window_ms <= 0:
            raise ValueError("window_ms must be positive")
        if self.slide_windows < 1:
            raise ValueError("slide_windows must be >= 1")


class _WindowState:
    """Mutable accumulator for one open tumbling window."""

    __slots__ = (
        "index",
        "start_ms",
        "end_ms",
        "datagrams",
        "packets",
        "parse_errors",
        "flows_created",
        "flows_evicted",
        "flows_expired",
        "overflow_drops",
        "flow_keys",
        "samples",
    )

    def __init__(self, index: int, start_ms: float, end_ms: float, samples):
        self.index = index
        self.start_ms = start_ms
        self.end_ms = end_ms
        self.datagrams = 0
        self.packets = 0
        self.parse_errors = 0
        self.flows_created = 0
        self.flows_evicted = 0
        self.flows_expired = 0
        self.overflow_drops = 0
        self.flow_keys: set[str] = set()
        self.samples = samples


@dataclass(frozen=True)
class WindowSnapshot:
    """One closed window, ready for JSONL export."""

    index: int
    start_ms: float
    end_ms: float
    datagrams: int
    packets: int
    parse_errors: int
    flows: dict
    samples: dict
    table: dict
    sliding: dict | None = None

    def as_dict(self) -> dict:
        data = {
            "index": self.index,
            "start_ms": round(self.start_ms, 3),
            "end_ms": round(self.end_ms, 3),
            "datagrams": self.datagrams,
            "packets": self.packets,
            "parse_errors": self.parse_errors,
            "flows": self.flows,
            "samples": self.samples,
            "table": self.table,
        }
        if self.sliding is not None:
            data["sliding"] = self.sliding
        return data


class WindowAggregator:
    """Tumbling (and optionally sliding) windows over stream time.

    The caller feeds monotonically non-decreasing event times; windows
    are aligned to multiples of ``window_ms`` starting at the first
    event.  :meth:`roll` closes every window that ends at or before the
    given time and returns the snapshots; windows with no traffic at
    all are skipped rather than emitted as empty lines (an idle tap
    publishes nothing, like a real exporter between scrapes).
    """

    def __init__(self, config: WindowConfig | None = None):
        self.config = config or WindowConfig()
        self.lifetime = LogHistogram()
        self.windows_emitted = 0
        self._current: _WindowState | None = None
        self._recent: deque[_WindowState] = deque(
            maxlen=self.config.slide_windows
        )
        self._next_index = 0

    # -- recording ------------------------------------------------------

    def window_for(self, time_ms: float) -> _WindowState:
        """The open window containing ``time_ms`` (creating it lazily)."""
        current = self._current
        if current is None or time_ms >= current.end_ms:
            width = self.config.window_ms
            index = int(time_ms // width)
            current = _WindowState(
                index=index,
                start_ms=index * width,
                end_ms=(index + 1) * width,
                samples=LogHistogram(),
            )
            self._current = current
        return current

    def record_sample(self, time_ms: float, rtt_ms: float) -> None:
        """One spin RTT sample retired from the flow table."""
        self.window_for(time_ms).samples.add(rtt_ms)
        self.lifetime.add(rtt_ms)

    # -- window lifecycle ----------------------------------------------

    def roll(self, time_ms: float, table_health: dict) -> list[WindowSnapshot]:
        """Close windows ending at or before ``time_ms``.

        ``table_health`` is attached to each closed snapshot — gauges
        read at close time (the pipeline passes the flow table's
        current counters).
        """
        current = self._current
        if current is None or time_ms < current.end_ms:
            return []
        return [self._close(table_health)]

    def flush(self, table_health: dict) -> list[WindowSnapshot]:
        """Close the trailing partial window at end of stream."""
        if self._current is None:
            return []
        return [self._close(table_health)]

    def _close(self, table_health: dict) -> WindowSnapshot:
        window = self._current
        self._current = None
        self._recent.append(window)
        self.windows_emitted += 1
        sliding = None
        if self.config.slide_windows > 1:
            sliding = self._sliding_summary()
        return WindowSnapshot(
            index=window.index,
            start_ms=window.start_ms,
            end_ms=window.end_ms,
            datagrams=window.datagrams,
            packets=window.packets,
            parse_errors=window.parse_errors,
            flows={
                "distinct": len(window.flow_keys),
                "created": window.flows_created,
                "evicted": window.flows_evicted,
                "expired": window.flows_expired,
                "overflow_drops": window.overflow_drops,
            },
            samples=window.samples.summary(),
            table=table_health,
            sliding=sliding,
        )

    def _sliding_summary(self) -> dict:
        """Merge of the last ``slide_windows`` closed windows."""
        merged = LogHistogram()
        datagrams = packets = 0
        flow_keys: set[str] = set()
        for window in self._recent:
            merged.merge(window.samples)
            datagrams += window.datagrams
            packets += window.packets
            flow_keys |= window.flow_keys
        return {
            "windows": len(self._recent),
            "span_ms": round(
                self._recent[-1].end_ms - self._recent[0].start_ms, 3
            ),
            "datagrams": datagrams,
            "packets": packets,
            "flows_distinct": len(flow_keys),
            "samples": merged.summary(),
        }
