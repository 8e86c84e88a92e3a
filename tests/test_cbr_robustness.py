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
from repro.analysis.query import parse_where
from repro.artifacts import open_query_source
from repro.artifacts import cbr
from repro.artifacts.cbr import (
    CBR_MAGIC,
    CbrFormatError,
    CbrIndexedReader,
    CbrReader,
    write_records_cbr,
)
from repro.core.classify import SpinBehaviour
from repro.core.observer import SpinEdge, SpinObservation
from repro.faults.taxonomy import FailureKind
from repro.internet.asdb import IpAddr, build_default_asdb
from repro.service import SpoolStore, WeekIndexer
from repro.service.summary import WeekSummary
from repro.web.scanner import ConnectionRecord

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
        assert list(CbrReader(io.BytesIO(reframe(RAW))).iter_records()) == source_records()

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
