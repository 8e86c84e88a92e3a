"""The one trace model: a span is a trace row with a causal path.

A :class:`Tracer` records what each pipeline step did as
:class:`TraceRecord`\\ s — ``(path, start_ms, end_ms, attrs)`` — which
:mod:`repro.telemetry.export` writes one per line.  A *span* is a step
with extent (a weekly scan, one scanned domain, a spool submission, an
index fold); a point *event* is a row whose start equals its end.  The
log of a seeded run must be a **pure function of the seed**,
byte-identical at any worker count, which rules out the two things
distributed tracers lean on — wall-clock timestamps and random ids.
Both are replaced by derivation:

* **Identity is the causal path.**  ``path`` is the tuple of row names
  from the root down to the row itself, e.g. ``("campaign",
  "scan:cw19-2023", "domain:example.com", "connection:0")``.  The span
  id is a digest of ``(trace_id, path)`` and the parent id the digest of
  ``path[:-1]``, so parentage needs no shared state: a worker process
  emits rows without knowing the campaign's ids, and a re-run of the
  same logical step re-derives the same id — which is what keeps a
  crash-resumed campaign's log duplicate-free.
* **Time is simulated.**  ``start_ms``/``end_ms`` are the traced unit's
  simulated clock (a scanned domain's event cascade, the monitor's
  stream time), local to that unit; steps without a simulator carry
  zeros and express cost through attributes (records, bytes, weeks).
  Row order — shown as ``step`` in the export — is the global order.

Nesting is lexical: :meth:`Tracer.span` pushes its name on one stack and
the handle pops it when it closes, so rows recorded meanwhile are its
children.  Worker shards record into a fresh tracer and
:meth:`Tracer.absorb` prefixes their rows with the absorbing tracer's
open path.

Rows come in two lists.  ``records`` is part of the reproducibility
contract.  ``diag_records`` holds rows whose *existence* depends on
sharding or on the environment (per-shard rows, API requests): still
free of wall-clock values, but written to a separate file so they can
never contaminate the deterministic one.
"""

from __future__ import annotations

import hashlib
import threading
from typing import Iterable, NamedTuple, Sequence

__all__ = ["OpenSpan", "TraceRecord", "Tracer", "span_id_for", "trace_id_for"]


def trace_id_for(*parts: object) -> str:
    """Deterministic trace id from a campaign/scan identity tuple."""
    canonical = "\x1f".join(str(part) for part in parts)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


def span_id_for(trace_id: str, path: Sequence[str]) -> str:
    """Deterministic span id: digest of the causal path within a trace."""
    canonical = trace_id + "|" + "/".join(path)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


class TraceRecord(NamedTuple):
    """One trace row: causal path, simulated interval, attributes."""

    path: tuple[str, ...]
    start_ms: float
    end_ms: float
    attrs: dict


class OpenSpan:
    """An open span; becomes one :class:`TraceRecord` when it ends.

    As a context manager it ends on a clean exit and is abandoned when
    an exception passes through it, so a failed step never leaves its
    name on the tracer's stack::

        with tracer.span("domain:example.com") as span:
            ...
            span.annotate(connections=2)
            span.end(sim_end_ms)

    Closing is idempotent; the first ``end`` or ``abandon`` wins.
    """

    __slots__ = ("_tracer", "path", "start_ms", "attrs", "_diag", "_open")

    def __init__(
        self,
        tracer: "Tracer",
        path: tuple[str, ...],
        start_ms: float,
        attrs: dict,
        diag: bool,
    ):
        self._tracer = tracer
        self.path = path
        self.start_ms = start_ms
        self.attrs = attrs
        self._diag = diag
        self._open = True

    def annotate(self, **attrs: object) -> None:
        """Attach attributes before the span ends."""
        self.attrs.update(attrs)

    def end(self, time_ms: float | None = None) -> None:
        """Record the span, ending at simulated ``time_ms`` (default: start)."""
        if self._close():
            end_ms = self.start_ms if time_ms is None else time_ms
            record = TraceRecord(self.path, self.start_ms, end_ms, self.attrs)
            tracer = self._tracer
            (tracer.diag_records if self._diag else tracer.records).append(record)

    def abandon(self) -> None:
        """Close the span without a row: its step failed.

        A retry of the step then opens the same span at the same path.
        Rows its children already recorded stay — they describe work
        that was done (and, for a checkpointed scan, kept).
        """
        self._close()

    def _close(self) -> bool:
        if not self._open:
            return False
        self._open = False
        # Back to the depth this span was opened at, whatever was left
        # open inside it.
        del self._tracer._stack[len(self.path) - 1:]
        return True

    def __enter__(self) -> "OpenSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            self.end()
        else:
            self.abandon()


class Tracer:
    """Collects trace rows; emission order is the export order.

    Rows are appended when they *end*, per-domain rows are emitted in
    population order, and worker shards are absorbed in shard order —
    so equal seeds yield byte-identical files at any worker count.
    """

    def __init__(self) -> None:
        self.records: list[TraceRecord] = []
        self.diag_records: list[TraceRecord] = []
        #: Campaign/scan identity; set once by whoever owns the root
        #: span (the daemon, or the scanner for standalone scans).
        self.trace_id: str | None = None
        self._stack: list[str] = []
        self._counted: dict[tuple, TraceRecord] = {}
        self._count_lock = threading.Lock()

    def span(
        self,
        name: str,
        start_ms: float = 0.0,
        diag: bool = False,
        **attrs: object,
    ) -> OpenSpan:
        """Open a child span of the innermost open span."""
        self._stack.append(name)
        return OpenSpan(self, tuple(self._stack), start_ms, attrs, diag)

    def event(
        self,
        name: str,
        time_ms: float = 0.0,
        diag: bool = False,
        **attrs: object,
    ) -> None:
        """Record a zero-length child of the innermost open span."""
        self.span(name, time_ms, diag, **attrs).end()

    def count(self, name: str, **attrs: object) -> None:
        """Count a flat diag row without touching the nesting stack.

        For rows recorded from server threads (API requests): one row
        per distinct ``(name, attrs)`` carrying a ``count``, so a
        long-lived server's diag list is bounded by what it serves, not
        by how often — and no stack access, so concurrent recording can
        never corrupt the deterministic rows.  Timestamps are zero —
        request latency is wall-clock and belongs in the
        ``api.request_ms`` histogram, not in a trace file.
        """
        key = (name, *sorted(attrs.items()))
        with self._count_lock:
            record = self._counted.get(key)
            if record is None:
                record = TraceRecord((name,), 0.0, 0.0, dict(attrs, count=0))
                self._counted[key] = record
                self.diag_records.append(record)
            record.attrs["count"] += 1

    def absorb(
        self,
        records: Iterable[TraceRecord],
        diag_records: Iterable[TraceRecord] = (),
    ) -> None:
        """Fold a shard's rows in, re-rooted under the open path.

        Shard rows are recorded relative to the shard (workers know
        nothing about the campaign); prefixing with this tracer's open
        stack restores the full causal path.  Must be called in shard
        order — that is what makes the merged log equal the sequential
        emission order.
        """
        prefix = tuple(self._stack)
        self.records.extend(
            record._replace(path=prefix + record.path) for record in records
        )
        self.diag_records.extend(
            record._replace(path=prefix + record.path) for record in diag_records
        )
