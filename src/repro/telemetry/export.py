"""Telemetry exporters: the trace row codec, Prometheus text, the summary.

Three formats, one invariant — every byte is a deterministic function
of the recorded data:

* ``trace.jsonl`` / ``diag.jsonl`` — one JSON object per trace row,
  ``sort_keys``: ``step`` (write order, the global order), ``trace``,
  ``span`` and ``parent`` (derived ids), ``name``, ``path``,
  ``start_ms``/``end_ms`` (simulated; equal for a point event) and
  ``attrs``.  :func:`trace_rows` is the only place that shape is built;
  ``/v1/spans`` serves the same rows.
* ``metrics.prom`` — Prometheus text exposition: counters as
  ``_total``, gauges plain, histograms as summaries (quantile series
  plus ``_sum``/``_count``), all series sorted by key.
* :func:`render_summary` — the human-readable digest behind
  ``repro telemetry summarize``.
"""

from __future__ import annotations

import json
from typing import IO, Sequence

from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.trace import TraceRecord, span_id_for

__all__ = [
    "DIAG_FILENAME",
    "PROM_FILENAME",
    "SNAPSHOT_FILENAME",
    "TRACE_FILENAME",
    "read_trace",
    "registry_to_prometheus",
    "render_summary",
    "stage_latency_table",
    "trace_rows",
    "write_trace_jsonl",
]

TRACE_FILENAME = "trace.jsonl"
DIAG_FILENAME = "diag.jsonl"
PROM_FILENAME = "metrics.prom"
SNAPSHOT_FILENAME = "metrics.json"

#: Quantiles exported for every histogram series.
_QUANTILES = (50.0, 90.0, 99.0)

#: Trace id used when no campaign/scan identity was ever attached.
UNKNOWN_TRACE_ID = "0" * 16


def trace_rows(
    records: Sequence[TraceRecord], trace_id: str | None
) -> list[dict]:
    """Export-shape dicts (ids derived, steps assigned) for ``records``."""
    resolved = trace_id or UNKNOWN_TRACE_ID
    rows = []
    for step, record in enumerate(records):
        path = record.path
        rows.append(
            {
                "step": step,
                "trace": resolved,
                "span": span_id_for(resolved, path),
                "parent": span_id_for(resolved, path[:-1]) if len(path) > 1 else None,
                "name": path[-1],
                "path": "/".join(path),
                "start_ms": round(record.start_ms, 6),
                "end_ms": round(record.end_ms, 6),
                "attrs": record.attrs,
            }
        )
    return rows


def write_trace_jsonl(
    records: Sequence[TraceRecord], trace_id: str | None, stream: IO[str]
) -> int:
    """Write ``records`` as JSONL; returns the number of lines written."""
    rows = trace_rows(records, trace_id)
    for row in rows:
        stream.write(json.dumps(row, sort_keys=True) + "\n")  # jsonl-ok: the trace codec
    return len(rows)


_ROW_FIELD_TYPES = (
    ("name", str),
    ("path", str),
    ("start_ms", (int, float)),
    ("end_ms", (int, float)),
)


def _parse_row(line: str) -> dict | None:
    """``line`` as a trace row, or ``None`` when it is not one."""
    try:
        row = json.loads(line)
    except json.JSONDecodeError:
        return None
    if isinstance(row, dict) and all(
        isinstance(row.get(field), kind) for field, kind in _ROW_FIELD_TYPES
    ):
        return row
    return None


def read_trace(stream: IO[str]) -> tuple[list[dict], int]:
    """Load a trace JSONL stream: ``(rows, lines skipped)``.

    The file is outside input (another build wrote it, or a crash cut
    it short): a line that is not JSON, not an object, or lacks a field
    the renderer reads is counted and skipped, never raised.
    """
    rows, skipped = [], 0
    for line in stream:
        if line.strip():
            row = _parse_row(line)
            if row is None:
                skipped += 1
            else:
                rows.append(row)
    return rows, skipped


def _prom_name(name: str) -> str:
    return "repro_" + name.replace(".", "_").replace("-", "_")


def _prom_value(value: float) -> str:
    if isinstance(value, bool):  # pragma: no cover - defensive
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    return repr(value)


def _prom_labels(items, extra: tuple[tuple[str, str], ...] = ()) -> str:
    merged = tuple(items) + extra
    if not merged:
        return ""
    rendered = ",".join(f'{key}="{value}"' for key, value in merged)
    return "{" + rendered + "}"


def registry_to_prometheus(registry: MetricsRegistry) -> str:
    """Render the registry in Prometheus text exposition format."""
    lines: list[str] = []
    typed: set[str] = set()
    for series in registry.series():
        if series.kind == "counter":
            name = _prom_name(series.name) + "_total"
            if name not in typed:
                typed.add(name)
                lines.append(f"# TYPE {name} counter")
            lines.append(
                f"{name}{_prom_labels(series.labels)} {_prom_value(series.value)}"
            )
        elif series.kind == "gauge":
            name = _prom_name(series.name)
            if name not in typed:
                typed.add(name)
                lines.append(f"# TYPE {name} gauge")
            lines.append(
                f"{name}{_prom_labels(series.labels)} {_prom_value(series.value)}"
            )
        else:  # histogram -> Prometheus summary
            name = _prom_name(series.name)
            if name not in typed:
                typed.add(name)
                lines.append(f"# TYPE {name} summary")
            hist = series.hist
            for q in _QUANTILES:
                value = hist.percentile(q)
                if value is None:
                    continue
                labels = _prom_labels(
                    series.labels, (("quantile", repr(q / 100.0)),)
                )
                lines.append(f"{name}{labels} {_prom_value(value)}")
            lines.append(
                f"{name}_sum{_prom_labels(series.labels)} "
                f"{_prom_value(hist.total)}"
            )
            lines.append(
                f"{name}_count{_prom_labels(series.labels)} {hist.count}"
            )
    return "\n".join(lines) + ("\n" if lines else "")


def _percentile(sorted_values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile over an already-sorted sequence."""
    rank = max(0, min(len(sorted_values) - 1, int(q / 100.0 * len(sorted_values))))
    return sorted_values[rank]


def stage_latency_table(rows: Sequence[dict]) -> list[dict]:
    """Per-stage duration percentiles from trace rows.

    A *stage* is the row name up to its first ``:`` (``domain``,
    ``scan``, ``spool``, ...).  Stages whose rows carry no duration
    (orchestration markers, point events) report counts only.
    """
    by_stage: dict[str, list[float]] = {}
    for row in rows:
        stage = str(row.get("name", "")).partition(":")[0]
        duration = float(row.get("end_ms", 0.0)) - float(row.get("start_ms", 0.0))
        by_stage.setdefault(stage, []).append(duration)
    table = []
    for stage in sorted(by_stage):
        durations = sorted(by_stage[stage])
        entry = {"stage": stage, "count": len(durations)}
        if durations[-1] > 0.0:
            entry.update(
                p50_ms=round(_percentile(durations, 50.0), 3),
                p90_ms=round(_percentile(durations, 90.0), 3),
                p99_ms=round(_percentile(durations, 99.0), 3),
                max_ms=round(durations[-1], 3),
            )
        table.append(entry)
    return table


def render_summary(snapshot: dict, rows: Sequence[dict] | None = None) -> str:
    """Human-readable digest of a registry snapshot (+ optional trace).

    Takes the :meth:`MetricsRegistry.snapshot` dict (or the same loaded
    back from ``metrics.json``) and rows as :func:`read_trace` /
    :func:`trace_rows` return them, so it works on live bundles and on
    saved telemetry directories alike.  The trace renders as a tree
    that collapses sibling rows of the same *stage* (one ``domain x800``
    line for a scan) followed by each timed stage's duration
    percentiles.
    """
    lines: list[str] = []
    if rows:
        lines.append(f"trace: {len(rows)} rows (trace {rows[0].get('trace')})")
        collapsed: dict[tuple[str, ...], int] = {}
        for row in rows:
            path = tuple(
                segment.partition(":")[0] for segment in row["path"].split("/")
            )
            collapsed[path] = collapsed.get(path, 0) + 1
        for path in sorted(collapsed):
            count = collapsed[path]
            suffix = f" x{count}" if count > 1 else ""
            lines.append(f"{'  ' * len(path)}{path[-1]}{suffix}")
        timed = [entry for entry in stage_latency_table(rows) if "p50_ms" in entry]
        if timed:
            lines.append("stage latency (simulated ms):")
            for entry in timed:
                lines.append(
                    f"  {entry['stage']:16s} count={entry['count']}"
                    f" p50={entry['p50_ms']:g}"
                    f" p90={entry['p90_ms']:g}"
                    f" p99={entry['p99_ms']:g}"
                    f" max={entry['max_ms']:g}"
                )
    elif rows is not None:
        lines.append("trace: (no rows)")
    counters = snapshot.get("counters", {})
    if counters:
        lines.append("counters:")
        for series_id, value in counters.items():
            lines.append(f"  {series_id:44s} {value}")
    gauges = snapshot.get("gauges", {})
    if gauges:
        lines.append("gauges:")
        for series_id, value in gauges.items():
            lines.append(f"  {series_id:44s} {value:g}")
    histograms = snapshot.get("histograms", {})
    if histograms:
        lines.append("histograms:")
        for series_id, summary in histograms.items():
            if summary.get("count", 0) == 0:
                lines.append(f"  {series_id:44s} (empty)")
                continue
            lines.append(
                f"  {series_id:44s} count={summary['count']}"
                f" mean={summary['mean_ms']:g}"
                f" p50={summary['p50_ms']:g}"
                f" p90={summary['p90_ms']:g}"
                f" p99={summary['p99_ms']:g}"
            )
    if not lines:
        lines.append("(no telemetry recorded)")
    return "\n".join(lines)
