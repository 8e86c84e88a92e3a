"""Artifact store front door: connection records read from ``cbr``.

``repro`` persists connection records in one format, the columnar
binary ``cbr`` store of :mod:`repro.artifacts.cbr`.  The JSON-lines
schema of :mod:`repro.analysis.artifacts` (paper Appendix B) is an
export (``repro convert X.cbr X.jsonl``) that nothing here reads back.
:func:`open_record_batches` yields an artifact's decoded record
batches; :func:`open_query_source` is the same door with a predicate:
one open, then the footer's chunk plan — or, when the footer cannot be
read, the sequential scan, counted.  Under ``errors="count"`` no kind of
damage to a file raises out of either; it is counted in
``corrupt_chunks``, and a file that is not cbr at all (a JSONL export,
say) is one bad head.

Batches (:class:`~repro.artifacts.cbr.RecordBatch`: the records as
parallel columns, built into :class:`~repro.web.scanner.ConnectionRecord`
objects only for whoever iterates one) are the unit of streaming
everywhere: one cbr chunk.  Memory stays bounded by the chunk size,
never the artifact size.
"""

from __future__ import annotations

import sys
from contextlib import contextmanager
from typing import IO, Iterator

from repro.artifacts.cbr import (
    CbrFormatError,
    CbrIndexedReader,
    CbrReader,
    RecordBatch,
)
from repro.web.scanner import ConnectionRecord

__all__ = [
    "CbrFormatError",
    "RecordBatch",
    "RecordBatchSource",
    "open_query_source",
    "open_record_batches",
]


class RecordBatchSource:
    """A decoded artifact stream: its reader's counts + its batches."""

    __slots__ = ("_reader", "_batches")

    def __init__(self, reader, batches: Iterator[RecordBatch]) -> None:
        self._reader = reader
        self._batches = batches

    @property
    def records_read(self) -> int:
        """Records in the batches yielded so far."""
        return self._reader.records_read

    @property
    def corrupt_chunks(self) -> int:
        """What the reader skipped so far (a tear at the stream tail
        shows once the batches are exhausted)."""
        return self._reader.corrupt_chunks

    def batches(self) -> Iterator[RecordBatch]:
        return self._batches

    def records(self) -> Iterator[ConnectionRecord]:
        for batch in self._batches:
            yield from batch


@contextmanager
def _open(path: str) -> Iterator[IO[bytes]]:
    """Open ``path`` (``-`` = stdin) once, as a binary stream."""
    if path == "-":
        yield sys.stdin.buffer
        return
    with open(path, "rb") as stream:
        yield stream


def _sequential_source(stream: IO[bytes], errors: str, *want_edges: bool) -> RecordBatchSource:
    reader = CbrReader(stream, errors=errors)
    return RecordBatchSource(reader, reader.record_batches(*want_edges))


@contextmanager
def open_record_batches(
    path: str,
    want_edges_received: bool = True,
    want_edges_sorted: bool = True,
    errors: str = "raise",
) -> Iterator[RecordBatchSource]:
    """Open a cbr artifact by path (``-`` = stdin) for a sequential read.

    The projection flags apply to the records a batch builds;
    ``errors="count"`` makes the reader tolerant of damage (skipped and
    counted in ``corrupt_chunks``).  Yields a :class:`RecordBatchSource`.
    """
    with _open(path) as stream:
        yield _sequential_source(stream, errors, want_edges_received, want_edges_sorted)


@contextmanager
def open_query_source(
    path: str,
    predicate=None,
    stats=None,
    want_edges_received: bool = True,
    want_edges_sorted: bool = True,
    errors: str = "count",
) -> Iterator[RecordBatchSource]:
    """Open a cbr artifact for a *filtered* read with predicate pushdown.

    On a seekable file with a readable footer, the chunk plan comes
    from :func:`repro.analysis.query.plan_chunks` — zone-pruned chunks
    are never inflated — and ``stats`` (a
    :class:`~repro.analysis.query.QueryStats`, created on demand) gets
    the ``chunks_total`` / ``chunks_selected`` counts.  Everything else
    degrades to the sequential full scan of
    :func:`open_record_batches` with ``chunks_pruned = 0``: stdin,
    footer-less cbr (schema 1 has no zones but still plans a full scan),
    and — counted in ``stats.footer_fallbacks`` — files whose footer is
    unreadable: torn off, damaged, of another shape, or not cbr at all.

    Batches still contain the *unfiltered* rows of the selected chunks;
    residual filtering stays with the consumer (``AnalysisEngine.run``
    or :func:`repro.analysis.query.filter_batch`) so the pruned path is
    byte-identical to brute force by construction.
    """
    from repro.analysis.query import QueryStats, plan_chunks

    if stats is None:
        stats = QueryStats()
    want_edges = (want_edges_received, want_edges_sorted)
    with _open(path) as stream:
        if predicate is not None and path != "-":
            try:
                indexed = CbrIndexedReader(stream, errors=errors)
            except CbrFormatError:
                stats.footer_fallbacks += 1
                stream.seek(0)
            else:
                ordinals, total = plan_chunks(
                    indexed.footer, predicate, indexed.domain_index_lookup
                )
                stats.chunks_total = total
                stats.chunks_selected = len(ordinals)
                yield RecordBatchSource(indexed, indexed.read_chunks(ordinals, *want_edges))
                return
        yield _sequential_source(stream, errors, *want_edges)
