"""The per-run telemetry bundle: one registry plus one tracer.

:class:`Telemetry` is what gets threaded through the subsystems: the
scanner, the monitor pipeline, the service plane and the CLI all accept
an optional ``telemetry`` argument and, when given, report into its
:class:`~repro.telemetry.metrics.MetricsRegistry` and
:class:`~repro.telemetry.trace.Tracer`.  ``None`` means telemetry is
off and the instrumented code paths pay a single ``is None`` check.

:meth:`Telemetry.save` writes the telemetry directory::

    DIR/trace.jsonl    deterministic trace rows (byte-identical per seed)
    DIR/diag.jsonl     sharding-dependent rows (per-shard, API requests)
    DIR/metrics.json   registry snapshot (lossless reload for summarize)
    DIR/metrics.prom   Prometheus text exposition snapshot

which ``repro telemetry summarize DIR`` reads back.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.telemetry.export import (
    DIAG_FILENAME,
    PROM_FILENAME,
    SNAPSHOT_FILENAME,
    TRACE_FILENAME,
    registry_to_prometheus,
    write_trace_jsonl,
)
from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.trace import Tracer

__all__ = ["Telemetry"]


class Telemetry:
    """Registry + tracer for one run (or one worker shard)."""

    def __init__(self) -> None:
        self.registry = MetricsRegistry()
        self.tracer = Tracer()
        #: Optional :class:`repro.obs.profile.PhaseProfiler`; ``None``
        #: (the default) keeps profiling at zero cost.
        self.profiler = None

    def absorb_shard(self, registry: MetricsRegistry, records, diag_records) -> None:
        """Fold one worker shard's telemetry into this bundle.

        Must be called in shard order: registry merges are lossless and
        order-insensitive for counters/histograms, but trace rows are
        concatenated, and shard order is what makes the concatenation
        equal the sequential emission order.
        """
        self.registry.merge(registry)
        self.tracer.absorb(records, diag_records)

    def save(self, out_dir: str | Path) -> dict[str, Path]:
        """Write the telemetry directory; returns the written paths."""
        directory = Path(out_dir)
        directory.mkdir(parents=True, exist_ok=True)
        paths = {
            "trace": directory / TRACE_FILENAME,
            "diag": directory / DIAG_FILENAME,
            "snapshot": directory / SNAPSHOT_FILENAME,
            "prom": directory / PROM_FILENAME,
        }
        tracer = self.tracer
        with open(paths["trace"], "w", encoding="utf-8") as stream:
            write_trace_jsonl(tracer.records, tracer.trace_id, stream)
        with open(paths["diag"], "w", encoding="utf-8") as stream:
            write_trace_jsonl(tracer.diag_records, tracer.trace_id, stream)
        paths["snapshot"].write_text(
            json.dumps(self.registry.snapshot(), indent=2, sort_keys=True)
            + "\n",
            encoding="utf-8",
        )
        paths["prom"].write_text(
            registry_to_prometheus(self.registry), encoding="utf-8"
        )
        return paths
