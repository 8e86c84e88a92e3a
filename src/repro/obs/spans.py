"""Causal spans: trace-id/span-id parentage on the simulated clock.

A *span* is one named step of the measurement pipeline — a weekly scan,
one scanned domain, a spool submission, an index fold — recorded with
its causal position, not just its name.  The design goal is the same
one the trace plane already enforces: the span log of a seeded campaign
must be a **pure function of the seed**, byte-identical at any worker
count, which rules out the two things distributed tracers normally
lean on (wall-clock timestamps and random span ids).

Both are replaced by derivation:

* **Identity is the causal path.**  Every span carries a ``path`` — the
  tuple of span names from the campaign root down to itself, e.g.
  ``("campaign", "scan:cw19-2023", "domain:example.com")``.  The span
  id is a digest of ``(trace_id, path)`` and the parent id is the
  digest of ``path[:-1]``, so parentage needs no shared mutable state:
  a worker process can emit spans without ever knowing the campaign's
  ids.  A re-run of the same logical step reuses its id — exactly the
  idempotence the spool ledger gives artifacts, and what makes
  crash-resumed campaigns produce duplicate-free span logs.
* **Time is simulated.**  ``start_ms``/``end_ms`` are the traced unit's
  simulated clock (a scanned domain's event cascade); orchestration
  spans that have no simulator carry zero timestamps and express their
  cost through attributes (records, bytes, weeks).

Like trace events, spans come in a deterministic stream and a ``diag``
stream: anything whose *existence* depends on sharding (per-shard
spans, API request spans) goes to diag so it can never contaminate the
reproducibility contract.  DESIGN.md Sec. 12 discusses the split.

Nesting is lexical: :meth:`SpanLog.span` pushes the name onto a stack
and pops it when the span ends, so spans opened inside an open span
become its children.  Worker shards record into a fresh empty log;
:meth:`SpanLog.absorb` prefixes the absorbed records with the parent's
*currently open* path, which is how a shard's ``domain:*`` spans end up
parented under the campaign's ``scan:<week>`` span.
"""

from __future__ import annotations

import hashlib
import json
import threading
from typing import IO, Iterable, NamedTuple, Sequence

__all__ = [
    "ObsSpan",
    "SPANS_DIAG_FILENAME",
    "SPANS_FILENAME",
    "SpanLog",
    "SpanRecord",
    "read_spans",
    "render_span_summary",
    "span_id_for",
    "span_rows",
    "trace_id_for",
    "write_spans_jsonl",
]

SPANS_FILENAME = "spans.jsonl"
SPANS_DIAG_FILENAME = "spans_diag.jsonl"

#: Trace id used when no campaign/scan identity was ever attached.
UNKNOWN_TRACE_ID = "0" * 16


def trace_id_for(*parts: object) -> str:
    """Deterministic trace id from a campaign/scan identity tuple."""
    canonical = "\x1f".join(str(part) for part in parts)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


def span_id_for(trace_id: str, path: Sequence[str]) -> str:
    """Deterministic span id: digest of the causal path within a trace."""
    canonical = trace_id + "|" + "/".join(path)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


class SpanRecord(NamedTuple):
    """One finished span: causal path, simulated interval, attributes."""

    path: tuple[str, ...]
    start_ms: float
    end_ms: float
    attrs: dict

    @property
    def duration_ms(self) -> float:
        return self.end_ms - self.start_ms

    @property
    def name(self) -> str:
        return self.path[-1]

    @property
    def stage(self) -> str:
        """The span's stage: the name up to the first ``:`` qualifier."""
        name = self.path[-1]
        head, _, _ = name.partition(":")
        return head


class ObsSpan:
    """An open span; records itself into the log when ended.

    Usable imperatively (``span = log.span(...); ...; span.end(t)``) or
    as a context manager.  Ending is idempotent; the first call wins.
    """

    __slots__ = ("_log", "path", "start_ms", "attrs", "_diag", "_ended")

    def __init__(
        self,
        log: "SpanLog",
        path: tuple[str, ...],
        start_ms: float,
        attrs: dict,
        diag: bool,
    ):
        self._log = log
        self.path = path
        self.start_ms = start_ms
        self.attrs = attrs
        self._diag = diag
        self._ended = False

    def annotate(self, **attrs: object) -> None:
        """Attach attributes before the span ends."""
        self.attrs.update(attrs)

    def end(self, time_ms: float | None = None) -> None:
        """Close the span at simulated ``time_ms`` (default: start)."""
        if self._ended:
            return
        self._ended = True
        end_ms = self.start_ms if time_ms is None else time_ms
        self._log._finish(self, end_ms)

    def abandon(self) -> None:
        """Close the span without a record: its step failed.

        Leaves the log as if the span had never been opened, so a retry
        of the step opens the same span at the same causal path.
        """
        if not self._ended:
            self._ended = True
            self._log._pop(self)

    def __enter__(self) -> "ObsSpan":
        return self

    def __exit__(self, *exc_info) -> None:
        self.end()


class SpanLog:
    """Collects span records; emission order is the export order.

    The order contract mirrors the tracer's: spans are appended when
    they *end*, per-domain spans are emitted in population order, and
    worker shards are absorbed in shard order — so equal seeds yield
    byte-identical span files at any worker count.
    """

    def __init__(self) -> None:
        self.records: list[SpanRecord] = []
        self.diag_records: list[SpanRecord] = []
        #: Campaign/scan identity; set once by whoever owns the root
        #: span (the daemon, or the scanner for standalone scans).
        self.trace_id: str | None = None
        self._stack: list[str] = []
        self._diag_counted: dict[tuple, SpanRecord] = {}
        self._diag_lock = threading.Lock()

    def span(
        self,
        name: str,
        start_ms: float = 0.0,
        diag: bool = False,
        **attrs: object,
    ) -> ObsSpan:
        """Open a child span of the innermost open span."""
        self._stack.append(name)
        return ObsSpan(self, tuple(self._stack), start_ms, dict(attrs), diag)

    def _pop(self, span: ObsSpan) -> None:
        # Spans close lexically (context managers / paired end calls),
        # so the innermost open name is the one being popped.
        if self._stack and self._stack[-1] == span.path[-1]:
            self._stack.pop()

    def _finish(self, span: ObsSpan, end_ms: float) -> None:
        self._pop(span)
        record = SpanRecord(span.path, span.start_ms, end_ms, span.attrs)
        (self.diag_records if span._diag else self.records).append(record)

    def record_diag(self, name: str, **attrs: object) -> None:
        """Count a flat diag span without touching the nesting stack.

        For spans recorded from server threads (API requests): one
        record per distinct ``(name, attrs)`` carrying a ``count``, so a
        long-lived server's diag stream is bounded by what it serves,
        not by how often — and no stack access, so concurrent recording
        can never corrupt the deterministic stream.  Timestamps are zero
        — request latency is wall-clock and belongs in the
        ``api.request_ms`` histogram, not in a span file.
        """
        key = (name, *sorted(attrs.items()))
        with self._diag_lock:
            record = self._diag_counted.get(key)
            if record is None:
                record = SpanRecord((name,), 0.0, 0.0, dict(attrs, count=0))
                self._diag_counted[key] = record
                self.diag_records.append(record)
            record.attrs["count"] += 1

    def absorb(
        self,
        records: Iterable[SpanRecord],
        diag_records: Iterable[SpanRecord] = (),
    ) -> None:
        """Fold a shard's span records in, re-rooted under the open path.

        Shard logs are recorded relative to the shard (workers know
        nothing about the campaign); prefixing with the absorbing log's
        currently open stack restores the full causal path.  Must be
        called in shard order — that is what makes the merged log equal
        the sequential emission order.
        """
        prefix = tuple(self._stack)
        for record in records:
            self.records.append(record._replace(path=prefix + record.path))
        for record in diag_records:
            self.diag_records.append(record._replace(path=prefix + record.path))


def span_rows(
    records: Sequence[SpanRecord], trace_id: str | None
) -> list[dict]:
    """Export-shape dicts (ids assigned) for ``records``."""
    resolved = trace_id or UNKNOWN_TRACE_ID
    rows = []
    for step, record in enumerate(records):
        parent = (
            span_id_for(resolved, record.path[:-1])
            if len(record.path) > 1
            else None
        )
        rows.append(
            {
                "step": step,
                "trace": resolved,
                "span": span_id_for(resolved, record.path),
                "parent": parent,
                "name": record.name,
                "path": "/".join(record.path),
                "start_ms": round(record.start_ms, 6),
                "end_ms": round(record.end_ms, 6),
                "attrs": record.attrs,
            }
        )
    return rows


def write_spans_jsonl(
    records: Sequence[SpanRecord], trace_id: str | None, stream: IO[str]
) -> int:
    """Write the span log as JSONL; returns the line count."""
    count = 0
    for row in span_rows(records, trace_id):
        stream.write(json.dumps(row, sort_keys=True) + "\n")  # jsonl-ok: the span codec
        count += 1
    return count


def read_spans(stream: IO[str]) -> list[dict]:
    """Load a spans JSONL stream back into row dicts."""
    return [json.loads(line) for line in stream if line.strip()]


# ----------------------------------------------------------------------
# Rendering: span tree + per-stage latency percentiles (the summarize
# and console backends).
# ----------------------------------------------------------------------


def _percentile(sorted_values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile over an already-sorted sequence."""
    if not sorted_values:
        return 0.0
    rank = max(0, min(len(sorted_values) - 1, int(q / 100.0 * len(sorted_values))))
    return sorted_values[rank]


def stage_latency_table(rows: Sequence[dict]) -> list[dict]:
    """Per-stage duration percentiles from span rows.

    A *stage* is the span name up to its first ``:`` (``domain``,
    ``scan``, ``spool``, ...).  Stages whose spans carry no duration
    (orchestration markers) report counts only.
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


def render_span_summary(rows: Sequence[dict]) -> str:
    """Human-readable digest of a span log: tree + stage percentiles.

    The tree collapses sibling spans of the same *stage* (one line for
    a thousand ``domain:*`` spans) so campaign logs stay readable; the
    latency table below gives each stage's duration percentiles.
    """
    if not rows:
        return "spans: (none recorded)"
    lines = [f"spans: {len(rows)} records (trace {rows[0].get('trace')})"]
    # Aggregate by the stage-collapsed path, preserving first-seen order
    # of each aggregate so the tree reads in pipeline order.
    aggregates: dict[tuple[str, ...], int] = {}
    for row in rows:
        path = tuple(
            segment.partition(":")[0] for segment in str(row["path"]).split("/")
        )
        aggregates[path] = aggregates.get(path, 0) + 1
    for path in sorted(aggregates):
        indent = "  " * len(path)
        count = aggregates[path]
        suffix = f" x{count}" if count > 1 else ""
        lines.append(f"{indent}{path[-1]}{suffix}")
    table = stage_latency_table(rows)
    timed = [entry for entry in table if "p50_ms" in entry]
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
    return "\n".join(lines)
