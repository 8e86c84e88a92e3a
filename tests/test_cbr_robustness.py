"""Damage inside a CRC-valid chunk is counted by the reader, never raised
— and never raised later.

Records are built from a decoded chunk only when somebody iterates it,
so everything that could make building one fail has to fail in the
column decode, where the reader can count it.  Chunk payloads are
mutated *after* decompression and re-framed with a fresh CRC (so the
damage reaches the column decoder instead of the CRC check), then read
through all three readers: each mutated chunk is either counted in
``corrupt_chunks`` or yields a batch whose records, row subsets,
all-section fold and re-encoding complete.
"""

from __future__ import annotations

import io
import zlib
from dataclasses import replace

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis.engine import AnalysisEngine, build_record_folds
from repro.analysis.query import Eq, QueryStats, parse_where
from repro.artifacts import open_query_source, open_record_batches
from repro.artifacts import cbr
from repro.artifacts.cbr import (
    CBR_MAGIC,
    CbrFormatError,
    CbrIndexedReader,
    CbrReader,
    CbrWriter,
    concat_frames,
    read_footer,
    write_records_cbr,
)
from repro.core.classify import SpinBehaviour
from repro.core.observer import SpinEdge, SpinObservation
from repro.faults import CheckpointError, results_from_cbr_payload
from repro.faults.taxonomy import FailureKind
from repro.internet.asdb import IpAddr, build_default_asdb
from repro.internet.population import DomainRecord
from repro.service import SpoolStore, WeekIndexer
from repro.service.summary import WeekSummary
from repro.web.scanner import ConnectionRecord, DomainScanResult

ASDB = build_default_asdb()
_HEAD = len(CBR_MAGIC) + 1


def source_records() -> list[ConnectionRecord]:
    """Four records touching every column kind (no ``www.`` hosts, so the
    host index column is full; a failure, a header-less and a v6 one)."""
    records = []
    for i in range(4):
        edges = [SpinEdge(10.0 * i + 40.0 * j, 3 * j + 1, bool(j % 2)) for j in range(i + 1)]
        rtts = [b.time_ms - a.time_ms for a, b in zip(edges, edges[1:])]
        records.append(
            ConnectionRecord(
                domain=f"dom{i}.example",
                host=f"cdn{i}.example",
                ip=IpAddr(value=0x0A000001 + i, version=4) if i else IpAddr(value=1 << 100, version=6),
                ip_version=4 if i else 6,
                provider_name="cloudflare" if i % 2 else "google",
                server_header="LiteSpeed" if i else None,
                status=200 if i else None,
                success=bool(i),
                behaviour=SpinBehaviour.SPIN if i > 1 else SpinBehaviour.ALL_ZERO,
                observation=SpinObservation(
                    packets_seen=8 + i,
                    values_seen={False, True} if i > 1 else {False},
                    edges_received=edges,
                    edges_sorted=list(edges),
                    rtts_received_ms=rtts,
                    rtts_sorted_ms=list(rtts) if i != 3 else [39.0, 41.0, 40.0],
                ),
                stack_rtts_ms=[35.0 + i] * i,
                negotiated_version=1 if i else None,
                failure=None if i else FailureKind.HANDSHAKE_TIMEOUT,
                week="cw20-2023" if i != 2 else None,
            )
        )
    return records


def raw_chunk() -> bytes:
    """The decompressed payload of the source records' single chunk."""
    buffer = io.BytesIO()
    write_records_cbr(source_records(), buffer)
    data = buffer.getvalue()
    assert data[_HEAD] == cbr._FRAME_CHUNK
    payload_len, _crc, _n, _kind = cbr._CHUNK_HEADER.unpack_from(data, _HEAD + 1)
    start = _HEAD + 1 + cbr._CHUNK_HEADER.size
    return zlib.decompress(data[start : start + payload_len])


RAW = raw_chunk()
N = len(source_records())


def reframe(raw: bytes) -> bytes:
    """A whole artifact around one chunk payload: fresh CRC, true length,
    and a footer that points at it (no zone maps: nothing is pruned)."""
    payload = zlib.compress(raw, 6)
    out = bytearray(CBR_MAGIC + bytes([2]))
    offset = len(out)
    out.append(cbr._FRAME_CHUNK)
    out += cbr._CHUNK_HEADER.pack(len(payload), zlib.crc32(payload), N, cbr.KIND_RECORDS)
    out += payload
    footer = {
        "schema": cbr.FOOTER_SCHEMA, "records": N, "kind": cbr.KIND_RECORDS,
        "chunks": [[offset, len(payload), N, cbr.KIND_RECORDS]],
    }
    cbr._write_footer(out.extend, len(out), footer)
    return bytes(out)


def survives(batch) -> dict:
    """Everything a consumer does with a batch, none of it raising;
    returns the all-section results of the batch and half its rows."""
    records = list(batch)
    assert len(records) == len(batch)
    half = batch.take(range(0, len(batch), 2))
    assert list(half) == records[::2]
    results = AnalysisEngine(build_record_folds("all", asdb=ASDB)).run([batch, half])
    summary = WeekSummary("cw20-2023", ASDB)
    summary.update(batch)
    summary.to_json()
    for where in ("week == cw20-2023", "edges between 1 and 3 and t between 0 and 50"):
        parse_where(where).select(batch, range(len(batch)))
    write_records_cbr(records, io.BytesIO())
    return results


def _sequential(data: bytes, path, errors: str):
    reader = CbrReader(io.BytesIO(data), errors=errors)
    return reader, list(reader.record_batches())


def _indexed(data: bytes, path, errors: str):
    reader = CbrIndexedReader(io.BytesIO(data), errors=errors)
    return reader, list(reader.read_chunks([0], want_edges_received=False))


def _query_source(data: bytes, path, errors: str):
    path.write_bytes(data)
    with open_query_source(
        str(path), parse_where("success == true"), errors=errors
    ) as source:
        return source, list(source.batches())


#: ``(data, scratch path, errors) -> (reader or source, its batches)``;
#: damage may surface only inside these calls, while batches are pulled.
READERS = (_sequential, _indexed, _query_source)


@st.composite
def mutations(draw):
    """A damaged copy of the raw chunk: overwritten, flipped, inserted
    and deleted bytes, or a truncation."""
    raw = bytearray(RAW)
    for _ in range(draw(st.integers(1, 4))):
        at = draw(st.integers(0, len(raw) - 1))
        kind = draw(st.sampled_from(["set", "flip", "insert", "delete", "truncate"]))
        if kind == "set":
            raw[at] = draw(st.integers(0, 255))
        elif kind == "flip":
            raw[at] ^= 1 << draw(st.integers(0, 7))
        elif kind == "insert":
            raw[at:at] = draw(st.binary(min_size=1, max_size=4))
        elif kind == "delete":
            del raw[at : at + draw(st.integers(1, 4))]
        elif len(raw) > 2:
            del raw[max(1, at) :]
        if len(raw) < 2:
            break
    return bytes(raw)


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("robust") / "mutated.cbr"


class TestMutatedChunks:
    def test_the_untouched_chunk_reads_back(self, scratch):
        for read in READERS:
            reader, batches = read(reframe(RAW), scratch, "raise")
            assert reader.corrupt_chunks == 0
            (batch,) = batches
            assert len(batch) == N
            survives(batch)
        assert _strict_sequential(None, reframe(RAW)) == source_records()

    def test_non_finite_and_absurd_values_fold_without_raising(self, tmp_path):
        """What a flipped bit can leave in a column that still decodes."""
        nan, inf = float("nan"), float("inf")
        records = source_records()
        spinning = records[3]
        weird = []
        for times, stack, rtts in [
            ((0.0, nan, 80.0, 120.0), [35.0], None),
            ((0.0, inf, 80.0, inf), [35.0], None),
            ((0.0, 40.0, 80.0, 120.0), [nan], None),
            ((0.0, 40.0, 80.0, 120.0), [inf, inf], None),
            ((1e308, -1e308, 1e308, -1e308), [1e308, 1e308], None),
            # Sound samples beside damaged edge times: only the variants
            # that filter on the times have nothing to compare.
            ((0.0, inf, 80.0, inf), [35.0], [40.0, 40.0, 40.0]),
            # A sum that is positive and finite, and a mean that is not:
            # ``5e-324 / 2`` underflows to zero (spin series, then stack).
            ((0.0, 40.0, 80.0, 120.0), [35.0], [5e-324, 0.0]),
            ((0.0, 40.0, 80.0, 120.0), [5e-324, 0.0], None),
        ]:
            edges = [SpinEdge(t, 3 * j + 1, bool(j % 2)) for j, t in enumerate(times)]
            if rtts is None:
                rtts = [b.time_ms - a.time_ms for a, b in zip(edges, edges[1:])]
            weird.append(replace(
                spinning, stack_rtts_ms=stack, week="cw20-20230000000000000000",
                observation=replace(
                    spinning.observation, edges_received=edges, edges_sorted=edges,
                    rtts_received_ms=rtts, rtts_sorted_ms=rtts,
                ),
            ))
        buffer = io.BytesIO()
        write_records_cbr(weird, buffer)
        buffer.seek(0)
        (batch,) = CbrReader(buffer).record_batches()
        results = survives(batch)
        # A series whose sum is NaN or infinite has no mean to compare:
        # the connection is excluded like a zero-sum one (lost, for a
        # filter variant), never counted and then found in no share.
        # ``survives`` folds the batch and every other row of it: the
        # last record is counted once, the damaged ones never.
        study = results["accuracy"]
        for series in (study.spin_received, study.spin_sorted):
            assert series.connections == series.overestimating == 1
        for series in (
            study.spin_received, study.spin_sorted,
            study.grease_received, study.grease_sorted,
        ):
            assert series.abs_histogram.total == series.connections
            assert series.ratio_histogram.total == series.connections
            assert series.overestimating + series.underestimating <= series.connections
            assert series.abs_histogram.overflow == series.ratio_histogram.overflow == 0
        outcomes = results["filters"].outcomes()
        assert [outcome.connections for outcome in outcomes] == [1, 1, 0, 0]
        assert [outcome.connections_lost for outcome in outcomes] == [0, 0, 1, 1]
        # The week indexer folds the same artifact: a week that raised
        # here could never be folded.
        (tmp_path / "weird.cbr").write_bytes(buffer.getvalue())
        spool = SpoolStore(tmp_path / "spool")
        spool.submit_file(tmp_path / "weird.cbr")
        indexer = WeekIndexer(tmp_path / "index", asdb=ASDB)
        assert len(indexer.fold_pending(spool)) == 1
        assert indexer.load_combined().connections_spinning == len(weird)

    @settings(max_examples=400, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(mutations())
    def test_counted_or_sound(self, scratch, raw):
        data = reframe(raw)
        for read in READERS:
            reader, batches = read(data, scratch, "count")
            assert reader.corrupt_chunks + len(batches) == 1
            for batch in batches:
                survives(batch)

    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(mutations())
    def test_strict_readers_raise_while_reading_or_never(self, scratch, raw):
        data = reframe(raw)
        for read in READERS:
            try:
                _, batches = read(data, scratch, "raise")
            except CbrFormatError:
                continue
            for batch in batches:
                survives(batch)


# ----------------------------------------------------------------------
# One hand-made case per eager check.
# ----------------------------------------------------------------------


def column_offsets() -> dict[str, int]:
    """Where each validated column's first value byte sits in ``RAW``."""
    buf = RAW
    n, pos = cbr._read_uv(buf, 1)
    strings, pos = cbr._decode_strings(buf, pos)
    assert n == N and len(strings) < 0x60
    at = {"domain": pos + 1}
    pos += 1 + n                                   # domain index: tag + n bytes
    pos += 1                                       # www bits (n <= 8)
    at["host"] = pos + 1
    pos += 1 + n                                   # host index (no www host)
    pos += 1 + 16 + 4 * (n - 1)                    # v6 bits, one v6 + three v4
    pos += 1 + n                                   # ip versions
    at["provider"] = pos + 1
    pos += 1 + n
    at["header"] = pos + 1
    pos += 1 + n
    pos += 1 + n + 1                               # statuses (< 256), success bits
    at["behaviour"] = pos + 1
    pos += 1 + n
    at["mask"] = pos
    # The tail of a KIND_RECORDS payload: versions, failures, weeks.
    at["week"] = len(buf) - n
    at["failure"] = len(buf) - 2 * n - 1
    return at


OFFSETS = column_offsets()


def patched(column: str, row: int, value: int) -> bytes:
    raw = bytearray(RAW)
    raw[OFFSETS[column] + row] = value
    return bytes(raw)


def test_offsets_point_at_the_columns():
    """Patching a *valid* other value in changes exactly that field."""
    records = source_records()
    for column, row, value, field, expected in [
        ("domain", 1, RAW[OFFSETS["domain"]], "domain", records[0].domain),
        ("host", 1, RAW[OFFSETS["host"]], "host", records[0].host),
        ("provider", 0, RAW[OFFSETS["provider"] + 1], "provider_name", "cloudflare"),
        ("header", 0, RAW[OFFSETS["header"] + 1], "server_header", "LiteSpeed"),
        ("behaviour", 0, RAW[OFFSETS["behaviour"] + 2], "behaviour", SpinBehaviour.SPIN),
        ("failure", 1, RAW[OFFSETS["failure"]], "failure", FailureKind.HANDSHAKE_TIMEOUT),
        ("week", 2, RAW[OFFSETS["week"]], "week", "cw20-2023"),
    ]:
        (batch,) = CbrReader(io.BytesIO(reframe(patched(column, row, value)))).record_batches()
        changed = records[row]
        assert getattr(batch[row], field) == expected, column
        assert getattr(changed, field) != expected, column
    (batch,) = CbrReader(io.BytesIO(reframe(patched("mask", 0, 3)))).record_batches()
    assert batch[0].observation.values_seen == {False, True}


@pytest.mark.parametrize(
    "column, value",
    [
        ("domain", 0x70), ("host", 0x70), ("provider", 0x70), ("header", 0x70),
        ("failure", 0x70), ("week", 0x70),
        ("mask", 4),
        # A string that exists but names no behaviour / no failure kind.
        ("behaviour", RAW[OFFSETS["domain"]]),
        ("failure", RAW[OFFSETS["domain"]] + 1),
    ],
)
def test_each_eager_check_is_counted_by_every_reader(column, value, scratch):
    data = reframe(patched(column, 3 if column != "failure" else 1, value))
    for read in READERS:
        reader, batches = read(data, scratch, "count")
        assert (reader.corrupt_chunks, batches) == (1, []), column
        with pytest.raises(CbrFormatError):
            read(data, scratch, "raise")


def test_short_columns_fail_in_the_decode():
    """A count the payload cannot back is refused, not zip-truncated."""
    with pytest.raises(CbrFormatError):
        cbr._read_bits(b"\x01", 0, 16)
    with pytest.raises(CbrFormatError):
        cbr._read_uv_column(b"\x00\x01\x02", 0, 5)
    raw = bytearray(RAW)
    raw[1] = 0x7F  # the chunk's own record count
    reader = CbrReader(io.BytesIO(reframe(bytes(raw))), errors="count")
    assert list(reader.record_batches()) == []
    assert reader.corrupt_chunks == 1


# ----------------------------------------------------------------------
# Damage to the container itself: head, frame headers, CRCs, the 0x03
# index, footer, trailer.  Exhaustive, not sampled: every byte offset of
# one small archive per shape, three ways.
# ----------------------------------------------------------------------

TARGETS = [
    DomainRecord(name=record.domain, zone="example", in_toplist=False, in_czds=True)
    for record in source_records()
]


def archive(**writer_options) -> bytes:
    """The source records in two chunks, as the given writer lays them out."""
    buffer = io.BytesIO()
    writer = CbrWriter(buffer, chunk_records=2, **writer_options)
    if writer_options.get("kind") == cbr.KIND_DOMAINS:
        for target, record in zip(TARGETS, source_records()):
            writer.write_domain_result(DomainScanResult(
                domain=target, resolved=True, quic_support=True,
                resolved_ip=record.ip, connections=[record],
            ))
    else:
        writer.write_records(source_records())
    writer.close()
    return buffer.getvalue()


#: shape -> (container bytes, the records a reader of it yields)
ARCHIVES = {
    "records-v2": (archive(), source_records()),
    "domains-shard": (archive(kind=cbr.KIND_DOMAINS), source_records()),
    "compat-v1": (
        archive(compat_v1=True), [replace(r, week=None) for r in source_records()]
    ),
}


def container_mutations(data: bytes):
    for at in range(len(data)):
        for mask in (0xFF, 0x01):
            damaged = bytearray(data)
            damaged[at] ^= mask
            yield f"xor 0x{mask:02x} at {at}", bytes(damaged)
        yield f"cut at {at}", data[:at]


def in_order_subset(got: list, originals: list) -> bool:
    remaining = iter(originals)
    return all(any(record == original for original in remaining) for record in got)


def _front_door(path, data):
    with open_record_batches(str(path), errors="count") as source:
        return list(source.records())


def _where_week(path, data, predicate=parse_where("week == cw20-2023")):
    with open_query_source(str(path), predicate) as source:
        return list(source.records())


def _where_domain(path, data):
    return _where_week(path, data, Eq("domain", TARGETS[1].name))


def _fold_pending(path, data):
    spool = SpoolStore(path.with_name(path.name + ".spool"))
    spool.submit_bytes(data)
    WeekIndexer(path.with_name(path.name + ".index"), asdb=ASDB).fold_pending(spool)
    return []


def _results(data, strict: bool):
    results = results_from_cbr_payload(data, TARGETS, strict=strict)
    return [] if results is None else [c for r in results for c in r.connections]


def _rescanned_or_loaded(path, data):
    return _results(data, strict=False)


def _strict_sequential(path, data):
    reader = CbrReader(io.BytesIO(data))
    return [record for batch in reader.record_batches() for record in batch]


def _strict_indexed(path, data):
    reader = CbrIndexedReader(io.BytesIO(data))
    reader.domain_index_lookup(TARGETS[0].name)
    chunks = range(len(reader.footer["chunks"]))
    return [record for batch in reader.read_chunks(chunks) for record in batch]


def _concat(path, data):
    out = io.BytesIO()
    concat_frames([io.BytesIO(data)], out)
    return _strict_sequential(path, out.getvalue())


def _ipc_payload(path, data):
    return _results(data, strict=True)


#: Never raise; every record they return is an original, in order.
TOLERANT = (_front_door, _where_week, _where_domain, _fold_pending, _rescanned_or_loaded)
#: Raise :class:`CbrFormatError` while reading, or read sound records
#: (a strict IPC payload of the wrong domain count is a CheckpointError).
STRICT = (_strict_sequential, _strict_indexed, _concat, _ipc_payload)


class TestMutatedContainer:
    @pytest.mark.parametrize("shape", ARCHIVES)
    def test_counted_or_sound(self, shape, tmp_path):
        """The oracle of ``TestMutatedChunks.test_counted_or_sound`` at
        every byte of the container: xor 0xFF, xor 0x01, truncate here."""
        data, originals = ARCHIVES[shape]
        path = tmp_path / "pristine.cbr"
        path.write_bytes(data)
        for surface in (_front_door, _strict_sequential, _strict_indexed, _concat):
            assert surface(path, data) == originals, surface
        if shape == "domains-shard":
            assert _ipc_payload(path, data) == originals
        escapes = []
        for number, (label, damaged) in enumerate(container_mutations(data)):
            path = tmp_path / f"{number}.cbr"
            path.write_bytes(damaged)
            for surface in TOLERANT + STRICT:
                try:
                    got = surface(path, damaged)
                except (CbrFormatError, CheckpointError) as error:
                    allowed = surface in STRICT and (
                        isinstance(error, CbrFormatError) or surface is _ipc_payload
                    )
                    if not allowed:
                        escapes.append((label, surface.__name__, repr(error)))
                except Exception as error:  # the finding, not swallowed: reported below
                    escapes.append((label, surface.__name__, repr(error)))
                else:
                    if not in_order_subset(got, originals):
                        escapes.append((label, surface.__name__, "foreign records"))
        assert not escapes, (len(escapes), escapes[:10])


def footer_offset(data: bytes) -> int:
    return cbr._TRAILER.unpack(data[-cbr._TRAILER.size :])[0]


def refooted(footer) -> bytes:
    """The records-v2 archive with ``footer`` (any JSON) in place of its own."""
    data, _ = ARCHIVES["records-v2"]
    out = bytearray(data[: footer_offset(data)])
    cbr._write_footer(out.extend, len(out), footer)
    return bytes(out)


def _zone(footer: dict, **keys) -> dict:
    return {**footer, "zones": [{**footer["zones"][0], **keys}]}


FOOTER_DAMAGE = {
    "a-list": lambda f: [f],
    "chunks-null": lambda f: {**f, "chunks": None},
    "three-field-entry": lambda f: {**f, "chunks": [f["chunks"][0][:3]]},
    "negative-offset": lambda f: {**f, "chunks": [[-5, 10, 2, 0]]},
    "length-past-the-file": lambda f: {**f, "chunks": [[5, 1 << 70, 2, 0]]},
    "bool-count": lambda f: {**f, "chunks": [[5, 10, True, 0]]},
    "string-offset": lambda f: {**f, "chunks": [["5", 10, 2, 0]]},
    "zones-a-dict": lambda f: {**f, "zones": {"w": None}},
    "zone-a-number": lambda f: {**f, "zones": [7]},
    "one-element-w": lambda f: _zone(f, w=[1]),
    "t-of-strings": lambda f: _zone(f, t=["a", "b"]),
    "p-a-string": lambda f: _zone(f, p="cloudflare"),
    "e-of-strings": lambda f: _zone(f, e=["many"]),
    "bloom-not-hex": lambda f: _zone(f, d="xyz"),
    "bloom-blank": lambda f: _zone(f, d="  "),
    "index-a-list": lambda f: {**f, "domain_index": [5, 4]},
    "index-negative-at": lambda f: {**f, "domain_index": {"at": -1, "rows": 4}},
    "index-past-the-file": lambda f: {**f, "domain_index": {"at": 5, "rows": 1 << 40}},
}


class TestFooterValidation:
    """The footer is the one part no CRC covers: ``read_footer`` checks
    what it returns, so the planner and the readers index into it blind."""

    def test_the_writers_own_footer_passes(self):
        for data, _ in ARCHIVES.values():
            assert len(read_footer(io.BytesIO(data))["chunks"]) == 2
        footer = read_footer(io.BytesIO(ARCHIVES["records-v2"][0]))
        assert read_footer(io.BytesIO(refooted(footer))) == footer

    @pytest.mark.parametrize("damage", FOOTER_DAMAGE)
    def test_another_shape_is_a_format_error(self, damage, scratch):
        data, originals = ARCHIVES["records-v2"]
        damaged = refooted(FOOTER_DAMAGE[damage](read_footer(io.BytesIO(data))))
        with pytest.raises(CbrFormatError):
            read_footer(io.BytesIO(damaged))
        with pytest.raises(CbrFormatError):
            CbrIndexedReader(io.BytesIO(damaged), errors="count")
        # ... and the planner's caller takes the sequential way round it.
        scratch.write_bytes(damaged)
        stats = QueryStats()
        with open_query_source(
            str(scratch), parse_where("week == cw20-2023"), stats=stats
        ) as source:
            assert list(source.records()) == originals
        assert (stats.footer_fallbacks, source.corrupt_chunks) == (1, 0)

    def test_a_footer_that_does_not_inflate_or_parse(self):
        data, _ = ARCHIVES["records-v2"]
        flipped = bytearray(data)
        flipped[-cbr._TRAILER.size - 8] ^= 0xFF  # inside the zlib stream
        not_json = bytearray(data[: footer_offset(data)])
        payload = zlib.compress(b"{not json")
        not_json += bytes([cbr._FRAME_FOOTER]) + cbr._FOOTER_HEADER.pack(len(payload))
        not_json += payload + cbr._TRAILER.pack(footer_offset(data), cbr._END_MAGIC)
        for damaged in (bytes(flipped), bytes(not_json)):
            with pytest.raises(CbrFormatError):
                read_footer(io.BytesIO(damaged))
            assert _strict_sequential(None, damaged) == source_records()


@pytest.mark.parametrize("size", range(len(CBR_MAGIC) + 1))
def test_a_head_cut_short_is_a_format_error_in_every_reader(size):
    """``b"CBR1"`` alone used to be an IndexError in all three head checks
    — which a ``--checkpoint-dir`` resume does not catch."""
    head = ARCHIVES["domains-shard"][0][:size]
    for strict in (CbrReader, CbrIndexedReader):
        with pytest.raises(CbrFormatError):
            strict(io.BytesIO(head))
    with pytest.raises(CbrFormatError):
        concat_frames([io.BytesIO(head)], io.BytesIO())
    tolerant = CbrReader(io.BytesIO(head), errors="count")
    assert list(tolerant.record_batches()) == []
    assert tolerant.corrupt_chunks == 1
    assert results_from_cbr_payload(head, TARGETS) is None  # re-scan
    with pytest.raises(CbrFormatError):
        results_from_cbr_payload(head, TARGETS, strict=True)
