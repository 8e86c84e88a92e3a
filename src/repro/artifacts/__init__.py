"""Artifact store front door: one API over the jsonl and cbr formats.

``repro`` persists connection records in two formats — the
human-greppable JSON-lines schema of :mod:`repro.analysis.artifacts`
(paper Appendix B) and the columnar binary ``cbr`` format of
:mod:`repro.artifacts.cbr`.  Consumers should not care which one a file
is: :func:`open_record_batches` sniffs the magic bytes and yields
decoded record batches either way, and :func:`write_records` picks the
encoder from an explicit format or the file extension.
:func:`open_query_source` is the same door with a predicate: one open,
one sniff, then the footer's chunk plan — or, when the footer cannot be
read, the sequential scan, counted.  Under ``errors="count"`` no kind of
damage to a file raises out of either; it is counted in
``corrupt_chunks``.

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
    CbrIndexedReader,
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

    __slots__ = ("format", "_reader", "_batches", "records_read", "stats")

    def __init__(self, format: str, reader, batches: Iterator[RecordBatch],
                 stats=None) -> None:
        self.format = format
        self._reader = reader
        self._batches = batches
        self.records_read = 0
        self.stats = stats

    @property
    def corrupt_chunks(self) -> int:
        """What the reader skipped so far (a tear at the stream tail
        shows once the batches are exhausted)."""
        return self._reader.corrupt_chunks

    def batches(self) -> Iterator[RecordBatch]:
        for batch in self._batches:
            self.records_read += len(batch)
            yield batch

    def records(self) -> Iterator[ConnectionRecord]:
        for batch in self.batches():
            yield from batch


class _JsonlReader:
    """JSONL lines as batches of ``DEFAULT_BATCH_RECORDS`` records, with
    the cbr readers' ``errors=``: under ``"count"`` the first unreadable
    line is counted like a torn chunk and ends the read."""

    def __init__(self, stream: IO[bytes], errors: str) -> None:
        self._stream = stream
        self._errors = errors
        self.corrupt_chunks = 0

    def record_batches(self) -> Iterator[RecordBatch]:
        batch: list[ConnectionRecord] = []
        try:
            for record in read_records(map(bytes.decode, self._stream)):
                batch.append(record)
                if len(batch) >= DEFAULT_BATCH_RECORDS:
                    yield RecordBatch.from_records(batch)
                    batch = []
        except ValueError:  # ArtifactFormatError, UnicodeDecodeError
            if self._errors == "raise":
                raise
            self.corrupt_chunks += 1
        if batch:
            yield RecordBatch.from_records(batch)


@contextmanager
def _open_sniffed(path: str) -> Iterator[tuple[IO[bytes], str]]:
    """Open ``path`` (``-`` = stdin) once: the stream and its format."""
    raw: IO[bytes] = sys.stdin.buffer if path == "-" else open(path, "rb")
    try:
        stream = raw if isinstance(raw, io.BufferedReader) else io.BufferedReader(raw)
        yield stream, detect_format(stream.peek(len(CBR_MAGIC)))
    finally:
        if path != "-":
            raw.close()


def _sequential_source(stream: IO[bytes], format: str, errors: str,
                       *want_edges: bool) -> RecordBatchSource:
    if format == FORMAT_CBR:
        reader = CbrReader(stream, errors=errors)
        return RecordBatchSource(format, reader, reader.record_batches(*want_edges))
    reader = _JsonlReader(stream, errors)  # JSONL lines always carry everything
    return RecordBatchSource(format, reader, reader.record_batches())


@contextmanager
def open_record_batches(
    path: str,
    want_edges_received: bool = True,
    want_edges_sorted: bool = True,
    errors: str = "raise",
) -> Iterator[RecordBatchSource]:
    """Open an artifact by path (``-`` = stdin) with format auto-detect.

    The projection flags apply to the records a cbr batch builds;
    ``errors="count"`` makes the reader tolerant of damage (skipped and
    counted in ``corrupt_chunks``).  Yields a :class:`RecordBatchSource`.
    """
    with _open_sniffed(path) as (stream, format):
        yield _sequential_source(
            stream, format, errors, want_edges_received, want_edges_sorted
        )


@contextmanager
def open_query_source(
    path: str,
    predicate=None,
    stats=None,
    want_edges_received: bool = True,
    want_edges_sorted: bool = True,
    errors: str = "count",
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
    full scan), and — counted in ``stats.footer_fallbacks`` — cbr files
    whose footer is unreadable: torn off, damaged, or of another shape.

    Batches still contain the *unfiltered* rows of the selected chunks;
    residual filtering stays with the consumer (``AnalysisEngine.run``
    or :func:`repro.analysis.query.filter_batch`) so the pruned path is
    byte-identical to brute force by construction.
    """
    from repro.analysis.query import QueryStats, plan_chunks

    if stats is None:
        stats = QueryStats()
    want_edges = (want_edges_received, want_edges_sorted)
    with _open_sniffed(path) as (stream, format):
        if predicate is not None and path != "-" and format == FORMAT_CBR:
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
                yield RecordBatchSource(
                    format, indexed, indexed.read_chunks(ordinals, *want_edges), stats
                )
                return
        source = _sequential_source(stream, format, errors, *want_edges)
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
