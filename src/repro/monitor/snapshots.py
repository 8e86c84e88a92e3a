"""Snapshot export: periodic JSONL metrics + final run summary.

Schema (one JSON object per line, ``sort_keys`` for stable diffs):

* ``{"type": "window", "schema": 1, ...}`` — one line per closed
  aggregation window, written *while the stream is being consumed*:
  window geometry (``index``/``start_ms``/``end_ms``), traffic counters
  (``datagrams``/``packets``/``parse_errors``), per-window flow counts
  (``flows``: distinct/created/evicted/expired/overflow_drops),
  streaming RTT statistics (``samples``: count/mean/min/max/p50/p90/p99
  in ms), table health gauges at close time (``table``), and — when
  sliding windows are enabled — a ``sliding`` block merging the last N
  windows.
* ``{"type": "summary", "schema": 1, ...}`` — the final line: totals
  for the whole run (see
  :class:`repro.monitor.pipeline.MonitorSummary`).

Migration-tracking runs add a ``migration`` block (resolver counters
plus the generator's injected ground truth) to the summary and to each
window's ``table`` health dict; resolver-less runs emit byte-identical
output to pre-migration builds.

Everything is keyed to *simulated stream time*; no wall-clock values
appear, so two runs with the same seed produce byte-identical files —
the property ``repro monitor``'s determinism guarantee rests on.
"""

from __future__ import annotations

import dataclasses
import json
import sys
from typing import IO

from repro.monitor.aggregate import WindowSnapshot
from repro.monitor.pipeline import MonitorConfig, MonitorPipeline, MonitorSummary
from repro.monitor.traffic import TrafficConfig, TrafficMux
from repro.telemetry import Telemetry

__all__ = ["SCHEMA_VERSION", "SnapshotWriter", "run_monitor"]

SCHEMA_VERSION = 1


class SnapshotWriter:
    """Writes window snapshots and the run summary as JSONL."""

    def __init__(self, stream: IO[str]):
        self._stream = stream
        self.lines_written = 0

    def write_window(self, snapshot: WindowSnapshot) -> None:
        self._write({"type": "window", **snapshot.as_dict()})

    def write_summary(self, summary: MonitorSummary) -> None:
        self._write({"type": "summary", **summary.as_dict()})

    def _write(self, payload: dict) -> None:
        payload["schema"] = SCHEMA_VERSION
        self._stream.write(json.dumps(payload, sort_keys=True) + "\n")
        self.lines_written += 1


def run_monitor(
    traffic: TrafficConfig,
    monitor: MonitorConfig | None = None,
    out: IO[str] | None = None,
    verbose: bool = False,
    telemetry=None,
    faults=None,
) -> MonitorSummary:
    """Run the full monitoring service once: mux → pipeline → snapshots.

    Generates the interleaved tap stream for ``traffic``, feeds it
    through a :class:`MonitorPipeline` sized by ``monitor``, and writes
    window snapshots plus the final summary to ``out`` (omitted when
    ``out`` is ``None``).  Returns the summary.  ``telemetry``
    optionally threads a :class:`repro.telemetry.Telemetry` bundle
    through the traffic generator, the flow table, and the pipeline.

    ``faults`` optionally takes a :class:`repro.faults.FaultPlan`; a
    ``corrupt-datagram`` spec truncates the drawn fraction of tap
    datagrams mid-flight (seeded from the traffic seed, so runs stay
    byte-identical).  The flow table counts the damage as
    ``parse_errors`` instead of crashing — the malformed-packet policy
    an on-path monitor needs.
    """
    writer = SnapshotWriter(out) if out is not None else None
    mixed_transport = traffic.migration_active or traffic.tcp_flows > 0
    if mixed_transport and monitor is not None and not monitor.track_migration:
        # Injected chaos without a resolver would silently shatter
        # flows; tracking is an output-side addition (extra counters),
        # so auto-enabling cannot perturb the non-chaos byte streams.
        monitor = dataclasses.replace(monitor, track_migration=True)
    elif mixed_transport and monitor is None:
        monitor = MonitorConfig(track_migration=True)
    telemetry = Telemetry.resolve(telemetry)
    pipeline = MonitorPipeline(
        monitor,
        on_snapshot=writer.write_window if writer else None,
        telemetry=telemetry,
    )
    mux = TrafficMux(traffic, metrics=telemetry.registry)
    stream = mux.stream()
    if faults is not None and not faults.is_empty:
        from repro._util.rng import derive_rng
        from repro.faults.spec import FaultKind, corrupt_datagram_stream

        spec = faults.spec(FaultKind.CORRUPT_DATAGRAM)
        if spec is not None and spec.probability > 0.0:
            stream = corrupt_datagram_stream(
                stream,
                spec.probability,
                derive_rng(traffic.seed, "monitor", "faults"),
            )
    summary = pipeline.process_stream(stream)
    if summary.migration is not None and mixed_transport:
        # Ground truth from the generator side, so snapshot consumers
        # can compare observed counters against what was injected.
        summary.migration["injected"] = mux.injected_summary()
    if writer is not None:
        writer.write_summary(summary)
    if verbose:
        samples = summary.samples
        p50 = samples.get("p50_ms")
        print(
            f"monitored {summary.flows_created} flows / "
            f"{summary.datagrams} datagrams over "
            f"{summary.duration_ms / 1000.0:.1f} s of stream time: "
            f"{samples.get('count', 0)} RTT samples"
            + (f", p50 {p50:.1f} ms" if p50 is not None else "")
            + f", {summary.windows} windows, peak {summary.peak_flows} flows",
            file=sys.stderr,
        )
        if summary.migration is not None:
            migration = summary.migration
            mix = migration.get("transport_mix", {})
            print(
                f"migration: {migration.get('flows_migrated', 0)} migrated, "
                f"{migration.get('rebinds_seen', 0)} rebinds, "
                f"{migration.get('flows_split', 0)} split; transport mix "
                f"quic={mix.get('quic', 0)} tcp={mix.get('tcp', 0)} "
                f"unparseable={mix.get('unparseable', 0)}",
                file=sys.stderr,
            )
    return summary
