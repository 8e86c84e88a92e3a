"""Deterministic tracing + metrics plane across scan, monitor, service.

The paper's methodology is instrumentation all the way down — the
authors extended zgrab2/quic-go with qlog capture because a 200M-domain
measurement you cannot observe is a measurement you cannot trust, and
the on-path operator use case is precisely about *exporting* passive
RTT metrics.  This package is the reproduction's equivalent: a
zero-dependency instrumentation plane every subsystem reports into,
and the only place that knows the trace row format.

* :mod:`repro.telemetry.metrics` — counters, gauges, log-bucket
  histograms in a :class:`MetricsRegistry` with labeled series and
  lossless deterministic merge (parallel-scan worker registries fold
  into exactly the sequential registry);
* :mod:`repro.telemetry.trace` — the one trace model: a row is
  ``(path, start_ms, end_ms, attrs)`` on the *simulated* clock, a span
  is a row with a causal path and derived ids, never wall-clock and
  never random, so equal seeds yield byte-identical traces;
* :mod:`repro.telemetry.export` — the trace row codec, Prometheus
  text-format snapshots, and the human ``render_summary``;
* :mod:`repro.telemetry.runtime` — the :class:`Telemetry` bundle the
  CLI threads through ``--telemetry-out DIR`` and reads back via
  ``repro telemetry summarize DIR``.

:mod:`repro.obs` consumes what this package records: the phase
profiler (carried on the bundle as ``.profiler``), the SLO health
engine over metrics snapshots, and the ``repro top`` console.
"""

from repro.telemetry.export import (
    DIAG_FILENAME,
    PROM_FILENAME,
    SNAPSHOT_FILENAME,
    TRACE_FILENAME,
    read_trace,
    registry_to_prometheus,
    render_summary,
    stage_latency_table,
    trace_rows,
    write_trace_jsonl,
)
from repro.telemetry.metrics import (
    Counter,
    Gauge,
    HistogramMetric,
    MetricsRegistry,
)
from repro.telemetry.runtime import Telemetry, resolve_registry
from repro.telemetry.trace import (
    OpenSpan,
    TraceRecord,
    Tracer,
    span_id_for,
    trace_id_for,
)

__all__ = [
    "Counter",
    "DIAG_FILENAME",
    "Gauge",
    "HistogramMetric",
    "MetricsRegistry",
    "OpenSpan",
    "PROM_FILENAME",
    "SNAPSHOT_FILENAME",
    "TRACE_FILENAME",
    "Telemetry",
    "TraceRecord",
    "Tracer",
    "read_trace",
    "registry_to_prometheus",
    "render_summary",
    "resolve_registry",
    "span_id_for",
    "stage_latency_table",
    "trace_id_for",
    "trace_rows",
    "write_trace_jsonl",
]
