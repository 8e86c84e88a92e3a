"""The streaming monitoring pipeline: tap stream in, metrics out.

:class:`MonitorPipeline` is the on-path service loop: every
server-to-client datagram is demultiplexed by a bounded
:class:`~repro.core.flow_table.SpinFlowTable`, spin-RTT samples are
retired *immediately* into the windowed aggregation layer (a flow is
one O(1) :class:`~repro.core.flow_table.FlowRecord` slot, no observer
object and no per-sample storage anywhere), and every closed window is
published through the ``on_snapshot`` callback.  Memory is bounded by
``max_flows`` plus one open window — independent of how long the
stream runs.

The packet path ends in the table: ``process`` *is*
``SpinFlowTable.on_server_datagram``, which updates the slot, retires
samples into ``aggregator.record_sample``, fills the open window's flow
set and calls back here once per window, not per datagram
(``scripts/check_determinism_lint.py``, ``monitor_packet_path``).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Iterable

from repro.core.flow_resolver import FlowKeyResolver
from repro.core.flow_table import FlowRecord, SpinFlowTable, check_table_shape
from repro.monitor.aggregate import WindowAggregator, WindowConfig, WindowSnapshot
from repro.monitor.traffic import TapDatagram
from repro.telemetry import Telemetry

__all__ = ["MonitorConfig", "MonitorPipeline", "MonitorSummary"]


@dataclass(frozen=True)
class MonitorConfig:
    """Sizing of the monitoring plane (flow table + windows)."""

    short_dcid_length: int = 8
    max_flows: int = 10_000
    idle_timeout_ms: float = 30_000.0
    overflow_policy: str = "evict-lru"
    window: WindowConfig = field(default_factory=WindowConfig)
    #: Attach a :class:`~repro.core.flow_resolver.FlowKeyResolver`:
    #: flow keys survive NAT rebinds / CID rotations and non-QUIC
    #: datagrams are classified.  Off by default — the resolver-less
    #: pipeline emits byte-identical snapshots to pre-migration builds.
    track_migration: bool = False
    #: With tracking on, whether unknown CIDs may be linked to live
    #: flows via 4-tuple continuity; ``False`` is the degraded control
    #: arm (``analyze --section migration`` compares the two).
    cid_linkage: bool = True

    def __post_init__(self) -> None:
        check_table_shape(self.max_flows, self.idle_timeout_ms, self.overflow_policy)


@dataclass
class MonitorSummary:
    """Final run summary (the last JSONL line of a monitor run)."""

    duration_ms: float
    windows: int
    datagrams: int
    packets: int
    short_header_packets: int
    parse_errors: int
    flows_created: int
    flows_evicted: int
    flows_expired: int
    flows_active_at_end: int
    overflow_drops: int
    peak_flows: int
    spin_flows: int
    samples: dict
    #: Migration/classification counters; present only when the run
    #: tracked migration (keeps legacy summaries byte-identical).
    migration: dict | None = None

    def as_dict(self) -> dict:
        if self.migration is not None:
            return {**self._base_dict(), "migration": self.migration}
        return self._base_dict()

    def _base_dict(self) -> dict:
        return {
            "duration_ms": round(self.duration_ms, 3),
            "windows": self.windows,
            "datagrams": self.datagrams,
            "packets": self.packets,
            "short_header_packets": self.short_header_packets,
            "parse_errors": self.parse_errors,
            "flows": {
                "created": self.flows_created,
                "evicted": self.flows_evicted,
                "expired": self.flows_expired,
                "active_at_end": self.flows_active_at_end,
                "overflow_drops": self.overflow_drops,
                "peak": self.peak_flows,
                "spinning": self.spin_flows,
            },
            "samples": self.samples,
        }


class MonitorPipeline:
    """Feeds a tapped datagram stream through bounded per-flow state.

    ``on_snapshot`` receives each closed :class:`WindowSnapshot` as the
    stream time passes its end — during processing, not at the end of
    the run, which is what makes this a *streaming* service rather than
    a batch replay.

    ``process(time_ms, data, tuple4=None)`` ingests one tapped
    server-to-client datagram; it is the flow table's bound entry point,
    so a datagram costs no call in this class.
    """

    def __init__(
        self,
        config: MonitorConfig | None = None,
        on_snapshot: Callable[[WindowSnapshot], None] | None = None,
        telemetry=None,
    ):
        self.config = config or MonitorConfig()
        self.on_snapshot = on_snapshot
        #: :class:`repro.telemetry.Telemetry` bundle (``None``: off).  The
        #: run is one ``monitor`` row, open from here to ``finish()``, with
        #: a ``window:<i>`` child per published window, on *stream* time.
        #: ``process`` makes no telemetry call: ``finish()`` copies the flow
        #: table's and resolver's counts and the lifetime RTT histogram out.
        self.telemetry = Telemetry.resolve(telemetry)
        self._span = self.telemetry.tracer.span("monitor")
        self.aggregator = WindowAggregator(self.config.window)
        self.resolver = (
            FlowKeyResolver(cid_linkage=self.config.cid_linkage)
            if self.config.track_migration
            else None
        )
        self.table = SpinFlowTable(
            short_dcid_length=self.config.short_dcid_length,
            max_flows=self.config.max_flows,
            idle_timeout_ms=self.config.idle_timeout_ms,
            overflow_policy=self.config.overflow_policy,
            retain_retired=False,
            on_retire=self._on_retire,
            resolver=self.resolver,
            on_sample=self.aggregator.record_sample,
            on_window=self._open_window,
        )
        self.process = self.table.on_server_datagram
        self._spin_flows_retired = 0
        #: The aggregator's open window and the table's counters as they
        #: stood when it opened (see ``_open_window``).
        self._window = None
        self._stats_at_open = None

    # -- ingestion ------------------------------------------------------

    def process_stream(self, stream: Iterable[TapDatagram]) -> MonitorSummary:
        """Consume an entire tap stream and return the final summary."""
        process = self.process
        with self._span:  # a stream that raises leaves no ``monitor`` row open
            for tap in stream:
                process(tap.time_ms, tap.data, getattr(tap, "tuple4", None))
            return self.finish()

    def finish(self) -> MonitorSummary:
        """Flush the trailing window and compute the run summary."""
        if self._window is not None:
            self._close_window()
        stats = self.table.stats
        spin_flows = self._spin_flows_retired + sum(
            1 for flow in self.table.flows.values() if flow.spins
        )
        summary = MonitorSummary(
            duration_ms=self.table.last_time_ms,
            windows=self.aggregator.windows_emitted,
            datagrams=stats.datagrams,
            packets=stats.packets,
            short_header_packets=stats.short_header_packets,
            parse_errors=stats.parse_errors,
            flows_created=stats.flows_created,
            flows_evicted=stats.flows_evicted,
            flows_expired=stats.flows_expired,
            flows_active_at_end=len(self.table.flows),
            overflow_drops=stats.overflow_drops,
            peak_flows=stats.peak_flows,
            spin_flows=spin_flows,
            samples=self.aggregator.lifetime.summary(),
            migration=(
                self.resolver.counters() if self.resolver is not None else None
            ),
        )
        registry = self.telemetry.registry
        for name, count in stats.as_dict().items():
            if name != "peak_flows":
                registry.counter(f"flow_table.{name}").inc(count)
        registry.gauge("flow_table.active_flows").set(len(self.table.flows))
        registry.gauge("flow_table.peak_flows", agg="max").set_max(stats.peak_flows)
        registry.histogram("monitor.rtt_ms").absorb(self.aggregator.lifetime)
        registry.counter("monitor.spin_flows").inc(spin_flows)
        self._span.annotate(
            windows=summary.windows,
            datagrams=summary.datagrams,
            flows_created=summary.flows_created,
            spin_flows=spin_flows,
            samples=summary.samples.get("count", 0),
        )
        if self.resolver is not None:
            resolver = self.resolver
            registry.counter("monitor.flows_migrated").inc(resolver.flows_migrated)
            registry.counter("monitor.flows_split").inc(resolver.flows_split)
            registry.counter("monitor.rebinds_seen").inc(resolver.rebinds_seen)
            for transport, count in (
                ("quic", resolver.quic_datagrams),
                ("tcp", resolver.tcp_datagrams),
                ("unparseable", resolver.unparseable_datagrams),
            ):
                registry.counter(
                    "monitor.transport_datagrams", transport=transport
                ).inc(count)
            self._span.annotate(
                flows_migrated=resolver.flows_migrated,
                flows_split=resolver.flows_split,
                rebinds_seen=resolver.rebinds_seen,
            )
        self._span.end(summary.duration_ms)
        return summary

    def _open_window(self, time_ms: float) -> tuple[set, float]:
        """Close the window ``time_ms`` has passed, open the one it is in.

        The table's ``on_window`` hook: called before the datagram at
        ``time_ms`` is counted, it hands the table the new window's flow
        set and end.  The table's counters move only inside ``process``,
        so a window's share of them is the difference between one copy
        of ``stats`` taken here and ``stats`` when the window closes —
        nothing is read or built per datagram.
        """
        if self._window is not None:
            self._close_window(time_ms)
        window = self._window = self.aggregator.window_for(time_ms)
        self._stats_at_open = replace(self.table.stats)
        return window.flow_keys, window.end_ms

    def _close_window(self, time_ms: float | None = None) -> None:
        """Settle the open window's counters and publish it.

        ``time_ms`` is the stream time that passed the window's end;
        ``None`` closes the trailing window at end of stream.
        """
        window = self._window
        opened = self._stats_at_open
        stats = self.table.stats
        window.datagrams += stats.datagrams - opened.datagrams
        window.packets += stats.packets - opened.packets
        window.parse_errors += stats.parse_errors - opened.parse_errors
        window.flows_created += stats.flows_created - opened.flows_created
        window.flows_evicted += stats.flows_evicted - opened.flows_evicted
        window.flows_expired += stats.flows_expired - opened.flows_expired
        window.overflow_drops += stats.overflow_drops - opened.overflow_drops
        self._window = None
        health = self._table_health()
        if time_ms is None:
            closed = self.aggregator.flush(health)
        else:
            closed = self.aggregator.roll(time_ms, health)
        for snapshot in closed:
            self._publish(snapshot)

    def _publish(self, snapshot: WindowSnapshot) -> None:
        """Deliver one closed window: callback + telemetry."""
        if self.on_snapshot is not None:
            self.on_snapshot(snapshot)
        self.telemetry.registry.counter("monitor.windows_closed").inc()
        self.telemetry.tracer.event(
            f"window:{snapshot.index}",
            time_ms=snapshot.end_ms,
            datagrams=snapshot.datagrams,
            samples=snapshot.samples.get("count", 0),
        )

    def _on_retire(self, flow: FlowRecord, reason: str) -> None:
        if flow.spins:
            self._spin_flows_retired += 1

    def _table_health(self) -> dict:
        """Gauges + cumulative counters at this instant."""
        stats = self.table.stats
        health = {
            "active_flows": len(self.table.flows),
            "peak_flows": stats.peak_flows,
            "flows_created": stats.flows_created,
            "flows_evicted": stats.flows_evicted,
            "flows_expired": stats.flows_expired,
            "overflow_drops": stats.overflow_drops,
            "parse_errors": stats.parse_errors,
            "idle_sweeps": stats.idle_sweeps,
        }
        if self.resolver is not None:
            # Only-when-present: resolver-less window snapshots stay
            # byte-identical to pre-migration builds.
            health["migration"] = self.resolver.counters()
        return health
