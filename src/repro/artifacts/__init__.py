"""Artifact store front door: one API over the jsonl and cbr formats.

``repro`` persists connection records in two formats — the
human-greppable JSON-lines schema of :mod:`repro.analysis.artifacts`
(paper Appendix B) and the columnar binary ``cbr`` format of
:mod:`repro.artifacts.cbr`.  Consumers should not care which one a file
is: :func:`open_record_batches` sniffs the magic bytes and yields
decoded record batches either way, and :func:`write_records` picks the
encoder from an explicit format or the file extension.

Batches (:class:`~repro.artifacts.cbr.RecordBatch`: the records as
parallel columns, built into :class:`~repro.web.scanner.ConnectionRecord`
objects only for whoever iterates one) are the unit of streaming
everywhere: one cbr chunk, or up to ``DEFAULT_BATCH_RECORDS`` JSONL
lines.  Memory stays bounded by the batch size, never the artifact size.
"""

from __future__ import annotations

import io
import sys
from contextlib import contextmanager
from pathlib import Path
from typing import IO, Iterable, Iterator

from repro.analysis.artifacts import (
    ArtifactFormatError,
    export_records,
    read_records,
)
from repro.artifacts.cbr import (
    CBR_MAGIC,
    CbrFormatError,
    CbrReader,
    CbrWriter,
    KIND_DOMAINS,
    KIND_RECORDS,
    RecordBatch,
    concat_frames,
    write_records_cbr,
)
from repro.web.scanner import ConnectionRecord

__all__ = [
    "ArtifactFormatError",
    "CbrFormatError",
    "DEFAULT_BATCH_RECORDS",
    "FORMAT_CBR",
    "FORMAT_JSONL",
    "RecordBatch",
    "RecordBatchSource",
    "detect_format",
    "open_query_source",
    "open_record_batches",
    "resolve_write_format",
    "write_records",
]

FORMAT_JSONL = "jsonl"
FORMAT_CBR = "cbr"

#: JSONL batching granularity; cbr batches follow the chunk size instead.
DEFAULT_BATCH_RECORDS = 1024


def detect_format(head: bytes) -> str:
    """Classify a stream from its first bytes (cbr magic vs. text)."""
    return FORMAT_CBR if head[: len(CBR_MAGIC)] == CBR_MAGIC else FORMAT_JSONL


def resolve_write_format(path: str, requested: str = "auto") -> str:
    """Resolve ``--artifact-format``: ``auto`` keys off the extension.

    ``.cbr`` selects the columnar binary format; anything else (and the
    stdout sentinel ``-``) keeps the JSONL schema for compatibility.
    """
    if requested in (FORMAT_JSONL, FORMAT_CBR):
        return requested
    if requested != "auto":
        raise ValueError(f"unknown artifact format {requested!r}")
    return FORMAT_CBR if path != "-" and path.endswith(".cbr") else FORMAT_JSONL


class RecordBatchSource:
    """A decoded artifact stream: format + iterator of record batches.

    ``stats`` is populated by :func:`open_query_source` with the query
    planner's :class:`~repro.analysis.query.QueryStats`; plain
    :func:`open_record_batches` sources leave it ``None``.
    """

    __slots__ = (
        "format", "_batches", "records_read", "corrupt_chunks", "_cbr", "stats",
    )

    def __init__(self, format: str, batches: Iterator[RecordBatch],
                 cbr_reader=None, stats=None) -> None:
        self.format = format
        self._batches = batches
        self._cbr = cbr_reader
        self.records_read = 0
        self.corrupt_chunks = 0
        self.stats = stats

    def batches(self) -> Iterator[RecordBatch]:
        for batch in self._batches:
            self.records_read += len(batch)
            if self._cbr is not None:
                self.corrupt_chunks = self._cbr.corrupt_chunks
            yield batch
        # A tear at the stream tail is detected when the reader fails to
        # pull the *next* chunk, i.e. after the last batch was yielded.
        if self._cbr is not None:
            self.corrupt_chunks = self._cbr.corrupt_chunks

    def records(self) -> Iterator[ConnectionRecord]:
        for batch in self.batches():
            yield from batch


def _jsonl_batches(stream: IO[str], batch_records: int) -> Iterator[RecordBatch]:
    batch: list[ConnectionRecord] = []
    for record in read_records(stream):
        batch.append(record)
        if len(batch) >= batch_records:
            yield RecordBatch.from_records(batch)
            batch = []
    if batch:
        yield RecordBatch.from_records(batch)


@contextmanager
def open_record_batches(
    path: str,
    want_edges_received: bool = True,
    want_edges_sorted: bool = True,
    errors: str = "raise",
    batch_records: int = DEFAULT_BATCH_RECORDS,
) -> Iterator[RecordBatchSource]:
    """Open an artifact by path (``-`` = stdin) with format auto-detect.

    The projection flags apply to the records a cbr batch builds (JSONL
    lines always carry everything); ``errors="count"`` makes the cbr
    reader tolerant of damaged chunks.  Yields a :class:`RecordBatchSource`.
    """
    if path == "-":
        raw: IO[bytes] = sys.stdin.buffer
        close_raw = False
    else:
        raw = open(path, "rb")
        close_raw = True
    try:
        buffered = raw if isinstance(raw, io.BufferedReader) else io.BufferedReader(raw)
        head = buffered.peek(len(CBR_MAGIC))
        if detect_format(head) == FORMAT_CBR:
            reader = CbrReader(buffered, errors=errors)
            yield RecordBatchSource(
                FORMAT_CBR,
                reader.record_batches(
                    want_edges_received=want_edges_received,
                    want_edges_sorted=want_edges_sorted,
                ),
                cbr_reader=reader,
            )
        else:
            text = io.TextIOWrapper(buffered, encoding="utf-8")
            try:
                yield RecordBatchSource(
                    FORMAT_JSONL, _jsonl_batches(text, batch_records)
                )
            finally:
                text.detach()
    finally:
        if close_raw:
            raw.close()


@contextmanager
def open_query_source(
    path: str,
    predicate=None,
    stats=None,
    want_edges_received: bool = True,
    want_edges_sorted: bool = True,
    errors: str = "count",
    batch_records: int = DEFAULT_BATCH_RECORDS,
) -> Iterator[RecordBatchSource]:
    """Open an artifact for a *filtered* read with predicate pushdown.

    On a seekable cbr file with a readable footer, the chunk plan comes
    from :func:`repro.analysis.query.plan_chunks` — zone-pruned chunks
    are never inflated — and ``stats`` (a
    :class:`~repro.analysis.query.QueryStats`, created on demand) gets
    the ``chunks_total`` / ``chunks_selected`` counts.  Everything else
    degrades to the sequential full scan of
    :func:`open_record_batches` with ``chunks_pruned = 0``: stdin, JSONL
    datasets, footer-less cbr (schema 1 has no zones but still plans a
    full scan), and — the tolerant-reader mirror — cbr files whose
    trailer is torn or missing, which previously raised in any
    footer-dependent path.

    Batches still contain the *unfiltered* rows of the selected chunks;
    residual filtering stays with the consumer (``AnalysisEngine.run``
    or :func:`repro.analysis.query.filter_batch`) so the pruned path is
    byte-identical to brute force by construction.
    """
    from repro.analysis.query import QueryStats, plan_chunks
    from repro.artifacts.cbr import CbrIndexedReader

    if stats is None:
        stats = QueryStats()
    if predicate is not None and path != "-":
        stream = open(path, "rb")
        try:
            indexed = None
            if detect_format(stream.read(len(CBR_MAGIC))) == FORMAT_CBR:
                try:
                    indexed = CbrIndexedReader(stream, errors=errors)
                except CbrFormatError:
                    indexed = None  # torn trailer: sequential fallback
            if indexed is not None:
                ordinals, total = plan_chunks(
                    indexed.footer, predicate, indexed.domain_index_lookup
                )
                stats.chunks_total = total
                stats.chunks_selected = len(ordinals)
                yield RecordBatchSource(
                    FORMAT_CBR,
                    indexed.read_chunks(
                        ordinals,
                        want_edges_received=want_edges_received,
                        want_edges_sorted=want_edges_sorted,
                    ),
                    cbr_reader=indexed,
                    stats=stats,
                )
                return
        finally:
            stream.close()
    with open_record_batches(
        path,
        want_edges_received=want_edges_received,
        want_edges_sorted=want_edges_sorted,
        errors=errors,
        batch_records=batch_records,
    ) as source:
        source.stats = stats
        yield source


def write_records(
    records: Iterable[ConnectionRecord],
    path: str,
    format: str = "auto",
    chunk_records: int = DEFAULT_BATCH_RECORDS,
) -> int:
    """Write an artifact file in the resolved format; returns the count.

    ``-`` writes JSONL to stdout (cbr to stdout is refused: binary on a
    terminal helps nobody — pipe to a ``.cbr`` path instead).
    """
    resolved = resolve_write_format(path, format)
    if path == "-":
        if resolved == FORMAT_CBR:
            raise ValueError("cbr output requires a file path, not stdout")
        return export_records(records, sys.stdout)
    if resolved == FORMAT_CBR:
        with open(path, "wb") as stream:
            return write_records_cbr(records, stream, chunk_records=chunk_records)
    with open(path, "w", encoding="utf-8") as stream:
        return export_records(records, stream)
