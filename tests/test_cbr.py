"""The columnar binary artifact format (cbr).

The format's contract is *bit-identical* round trips: every
:class:`~repro.web.scanner.ConnectionRecord` a scan produces must come
back equal after encode + decode, the encoding itself must be
deterministic (same records -> same bytes), and damage must degrade the
way the tolerant qlog reader does — one counted error per bad chunk,
never a crash, never silently wrong records.
"""

from __future__ import annotations

import io
import json
from dataclasses import replace

import pytest

from conftest import make_connection_record, make_observation
from jsonl_reader import load_records
from repro.analysis.artifacts import export_records, record_to_dict
from repro.analysis.engine import AnalysisEngine, build_record_folds
from repro.analysis.report import render_analysis_sections
from repro.artifacts import open_record_batches
from repro.artifacts.cbr import (
    CBR_MAGIC,
    CbrFormatError,
    CbrIndexedReader,
    CbrReader,
    CbrWriter,
    FOOTER_SCHEMA,
    KIND_DOMAINS,
    bloom_might_contain,
    concat_frames,
    read_footer,
    week_serial,
    write_records_cbr,
)
from repro.cli import main
from repro.faults.taxonomy import FailureKind
from repro.web.scanner import ScanConfig, Scanner


def encode(records, chunk_records: int = 128) -> bytes:
    buffer = io.BytesIO()
    write_records_cbr(records, buffer, chunk_records=chunk_records)
    return buffer.getvalue()


def decode(payload: bytes, **kwargs) -> list:
    reader = CbrReader(io.BytesIO(payload), **kwargs)
    return [record for batch in reader.record_batches() for record in batch]


def artifact_view(records) -> list:
    """Records as the plain artifact schema persists them.

    Sampled qlog documents are a checkpoint-shard extra: neither the
    JSONL schema (paper Appendix B) nor a ``KIND_RECORDS`` cbr file
    carries them, so round trips compare against qlog-stripped records.
    """
    return [replace(r, qlog=None) for r in records]


@pytest.fixture(scope="module")
def scan_records(tiny_population):
    dataset = Scanner(tiny_population, ScanConfig(qlog_sample_rate=0.2)).scan(
        week_label="cw20-2023", ip_version=4, domains=tiny_population.domains[:600]
    )
    return list(dataset.connection_records())


class TestRoundTrip:
    def test_scan_records_bit_identical(self, scan_records):
        assert len(scan_records) > 50
        assert any(r.qlog is not None for r in scan_records)
        decoded = decode(encode(scan_records))
        assert decoded == artifact_view(scan_records)

    def test_encoding_is_deterministic(self, scan_records):
        first = encode(scan_records)
        second = encode(decode(first))
        assert first == second

    def test_empty_artifact(self):
        payload = encode([])
        assert decode(payload) == []
        footer = read_footer(io.BytesIO(payload))
        assert footer["records"] == 0
        assert footer["chunks"] == []

    def test_record_without_edges(self):
        """A one-packet connection has no edges and no RTT samples."""
        record = make_connection_record(packets=[(0.0, 0, False)])
        assert record.observation.edges_received == []
        assert decode(encode([record])) == [record]

    def test_unicode_domains(self):
        records = [
            make_connection_record(domain="bücher.example"),
            make_connection_record(domain="例え.テスト"),
        ]
        decoded = decode(encode(records))
        assert decoded == records
        assert decoded[0].host == "www.bücher.example"

    def test_failure_kind_present_and_absent(self):
        failed = make_connection_record()
        failed.success = False
        failed.status = None
        failed.failure = FailureKind.HANDSHAKE_TIMEOUT
        clean = make_connection_record()
        decoded = decode(encode([failed, clean]))
        assert decoded == [failed, clean]
        assert decoded[0].failure is FailureKind.HANDSHAKE_TIMEOUT
        assert decoded[1].failure is None

    def test_chunk_boundaries_do_not_matter(self, scan_records):
        small = decode(encode(scan_records, chunk_records=7))
        assert small == artifact_view(scan_records)


class TestProjection:
    def test_skipping_edges_keeps_rtts_exact(self, scan_records):
        reader = CbrReader(io.BytesIO(encode(scan_records)))
        projected = [
            record
            for batch in reader.record_batches(
                want_edges_received=False, want_edges_sorted=False
            )
            for record in batch
        ]
        assert len(projected) == len(scan_records)
        for got, want in zip(projected, scan_records):
            assert got.observation.edges_received == []
            assert got.observation.edges_sorted == []
            assert got.observation.rtts_received_ms == want.observation.rtts_received_ms
            assert got.observation.rtts_sorted_ms == want.observation.rtts_sorted_ms
            assert got.observation.values_seen == want.observation.values_seen


class TestCorruption:
    def test_truncated_stream_counts_one_error(self, scan_records):
        payload = encode(scan_records, chunk_records=32)
        reader = CbrReader(io.BytesIO(payload[: len(payload) // 2]), errors="count")
        decoded = [record for batch in reader.record_batches() for record in batch]
        assert reader.corrupt_chunks == 1
        assert 0 < len(decoded) < len(scan_records)
        assert decoded == artifact_view(scan_records[: len(decoded)])

    def test_crc_mismatch_skips_only_that_chunk(self, scan_records):
        payload = bytearray(encode(scan_records, chunk_records=32))
        # Flip one byte inside the first chunk's compressed payload; the
        # chunk header starts right after magic+version and frame byte.
        payload[len(CBR_MAGIC) + 1 + 1 + 13 + 20] ^= 0xFF
        reader = CbrReader(io.BytesIO(bytes(payload)), errors="count")
        decoded = [record for batch in reader.record_batches() for record in batch]
        assert reader.corrupt_chunks == 1
        assert decoded == artifact_view(scan_records[32:])

    def test_raise_mode_raises(self, scan_records):
        payload = encode(scan_records)
        with pytest.raises(CbrFormatError):
            decode(payload[: len(payload) // 2])

    def test_bad_magic_rejected(self):
        with pytest.raises(CbrFormatError):
            CbrReader(io.BytesIO(b"not a cbr file at all"))

    def test_domain_batches_rejects_record_artifact(self, scan_records):
        reader = CbrReader(io.BytesIO(encode(scan_records[:5])))
        with pytest.raises(CbrFormatError):
            list(reader.domain_batches())

    def test_footer_of_truncated_artifact(self, scan_records):
        payload = encode(scan_records)
        with pytest.raises(CbrFormatError):
            read_footer(io.BytesIO(payload[:-4]))


class TestConcatFrames:
    def test_concat_equals_concatenated_records(self, scan_records):
        half = len(scan_records) // 2
        first = encode(scan_records[:half], chunk_records=16)
        second = encode(scan_records[half:], chunk_records=16)
        out = io.BytesIO()
        chunks, records = concat_frames([io.BytesIO(first), io.BytesIO(second)], out)
        assert records == len(scan_records)
        assert chunks > 2
        assert decode(out.getvalue()) == artifact_view(scan_records)
        footer = read_footer(io.BytesIO(out.getvalue()))
        assert footer["records"] == len(scan_records)

    def test_concat_accepts_paths(self, scan_records, tmp_path):
        # The CLI merge path hands shard *paths*, not open streams.
        half = len(scan_records) // 2
        shard_a = tmp_path / "shard-00000.cbr"
        shard_b = tmp_path / "shard-00001.cbr"
        shard_a.write_bytes(encode(scan_records[:half], chunk_records=16))
        shard_b.write_bytes(encode(scan_records[half:], chunk_records=16))
        out = io.BytesIO()
        _, records = concat_frames([str(shard_a), shard_b], out)
        assert records == len(scan_records)
        assert decode(out.getvalue()) == artifact_view(scan_records)

    def test_concat_rejects_damaged_source(self, scan_records):
        payload = bytearray(encode(scan_records[:10]))
        # Flip a byte inside the first chunk's compressed payload.
        payload[len(CBR_MAGIC) + 1 + 1 + 13 + 20] ^= 0xFF
        with pytest.raises(CbrFormatError):
            concat_frames([io.BytesIO(bytes(payload))], io.BytesIO())


def export(records) -> str:
    buffer = io.StringIO()
    export_records(records, buffer)
    return buffer.getvalue()


class TestFrontDoor:
    def test_both_formats_decode_identically(self, scan_records, tmp_path):
        """The front door reads back exactly the in-memory records, and
        the JSONL export is one ``record_to_dict`` line per record."""
        cbr_path = tmp_path / "art.cbr"
        cbr_path.write_bytes(encode(scan_records))
        with open_record_batches(str(cbr_path)) as source:
            from_cbr = list(source.records())
        assert from_cbr == artifact_view(scan_records)
        lines = export(from_cbr).splitlines()
        assert [json.loads(line) for line in lines] == [
            record_to_dict(record) for record in scan_records
        ]

    def test_cbr_to_stdout_refused(self, scan_records, tmp_path):
        cbr_path = tmp_path / "art.cbr"
        cbr_path.write_bytes(encode(scan_records))
        with pytest.raises(SystemExit, match="^repro: error: .*repro convert"):
            main(["convert", str(cbr_path), "-"])

    def test_artifact_is_much_smaller(self, scan_records):
        exported = export(scan_records).encode("utf-8")
        ratio = len(exported) / len(encode(scan_records))
        assert ratio >= 4.0, f"cbr only {ratio:.1f}x smaller than the JSONL export"
        assert load_records(io.StringIO(exported.decode("utf-8"))) == artifact_view(
            scan_records
        )


class TestDomainChunks:
    @pytest.fixture(scope="class")
    def domain_dataset(self, tiny_population):
        return Scanner(tiny_population, ScanConfig(qlog_sample_rate=0.25)).scan(
            week_label="cw20-2023", ip_version=4, domains=tiny_population.domains[:300]
        )

    @staticmethod
    def encode_domains(dataset, chunk_records: int = 64) -> bytes:
        buffer = io.BytesIO()
        writer = CbrWriter(buffer, kind=KIND_DOMAINS, chunk_records=chunk_records)
        for result in dataset.results:
            writer.write_domain_result(result)
        writer.close()
        return buffer.getvalue()

    def test_domain_round_trip_preserves_qlog(self, domain_dataset):
        """Checkpoint shards must round trip *everything* — including
        sampled qlog documents, which plain artifacts drop."""
        assert any(r.qlog is not None for r in domain_dataset.connection_records())
        reader = CbrReader(io.BytesIO(self.encode_domains(domain_dataset)))
        decoded = [d for batch in reader.domain_batches() for d in batch]
        assert [d.name for d in decoded] == [
            r.domain.name for r in domain_dataset.results
        ]
        for got, want in zip(decoded, domain_dataset.results):
            assert got.resolved == want.resolved
            assert got.quic_support == want.quic_support
            assert got.resolved_ip == want.resolved_ip
            assert got.failure == want.failure
            assert got.connections == want.connections

    def test_domain_chunks_also_read_as_records(self, domain_dataset):
        """record_batches on a KIND_DOMAINS file yields the flat records,
        so ``repro analyze`` accepts merged checkpoint artifacts."""
        decoded = decode(self.encode_domains(domain_dataset))
        assert decoded == artifact_view(domain_dataset.connection_records())


class TestCliIdentity:
    @pytest.fixture(scope="class")
    def artifact_pair(self, tmp_path_factory):
        directory = tmp_path_factory.mktemp("cli-cbr")
        cbr_path = directory / "dataset.cbr"
        jsonl_path = directory / "dataset.jsonl"
        base = ["scan", "--czds", "400", "--toplist", "80", "--seed", "33"]
        assert main(base + ["--out", str(cbr_path)]) == 0
        assert main(["convert", str(cbr_path), str(jsonl_path)]) == 0
        return jsonl_path, cbr_path

    def test_analyze_output_identical_across_formats(self, artifact_pair, capsys):
        """``repro analyze`` over the cbr artifact prints what the engine
        makes of the records its JSONL export holds."""
        jsonl_path, cbr_path = artifact_pair
        capsys.readouterr()
        assert main(["analyze", str(cbr_path)]) == 0
        from_cbr = capsys.readouterr().out
        with open(jsonl_path, encoding="utf-8") as stream:
            exported = load_records(stream)
        results = AnalysisEngine(build_record_folds("all")).run([exported])
        assert "AS organizations" in from_cbr
        assert from_cbr == render_analysis_sections(results, "all") + "\n"

    def test_convert_round_trip_bytes(self, artifact_pair, tmp_path, capsys):
        jsonl_path, cbr_path = artifact_pair
        with open_record_batches(str(cbr_path)) as source:
            records = list(source.records())
        assert jsonl_path.read_text(encoding="utf-8") == export(records)
        again = tmp_path / "again.cbr"
        assert main(["convert", str(cbr_path), str(again)]) == 0
        assert again.read_bytes() == cbr_path.read_bytes()
        capsys.readouterr()


def encode_v1(records, chunk_records: int = 128) -> bytes:
    """A true footer-schema-1 artifact, as written before zone maps."""
    buffer = io.BytesIO()
    writer = CbrWriter(buffer, chunk_records=chunk_records, compat_v1=True)
    writer.write_records(records)
    writer.close()
    return buffer.getvalue()


class TestZoneMaps:
    def test_footer_carries_one_zone_per_chunk(self, scan_records):
        footer = read_footer(io.BytesIO(encode(scan_records, chunk_records=16)))
        assert footer["schema"] == FOOTER_SCHEMA
        zones = footer["zones"]
        assert len(zones) == len(footer["chunks"])
        for zone in zones:
            assert set(zone) == {"w", "t", "p", "f", "b", "e", "d"}
        # Every record of this scan is week-stamped, so every envelope
        # is the single scanned week.
        serial = week_serial("cw20-2023")
        assert all(zone["w"] == [serial, serial] for zone in zones)

    def test_bloom_has_no_false_negatives(self, scan_records):
        footer = read_footer(io.BytesIO(encode(scan_records, chunk_records=16)))
        zones = footer["zones"]
        for ordinal, chunk_records in enumerate(
            _chunk_slices(scan_records, 16)
        ):
            bloom = zones[ordinal]["d"]
            for record in chunk_records:
                assert bloom_might_contain(bloom, record.domain)

    def test_domain_index_finds_every_domain(self, scan_records):
        payload = encode(scan_records, chunk_records=16)
        reader = CbrIndexedReader(io.BytesIO(payload))
        # One row per distinct (domain, chunk) pair.
        assert reader.footer["domain_index"]["rows"] == len(
            {
                (record.domain, ordinal)
                for ordinal, chunk_records in enumerate(
                    _chunk_slices(scan_records, 16)
                )
                for record in chunk_records
            }
        )
        for ordinal, chunk_records in enumerate(
            _chunk_slices(scan_records, 16)
        ):
            for record in chunk_records:
                assert ordinal in reader.domain_index_lookup(record.domain)

    def test_domain_index_definitive_miss(self, scan_records):
        payload = encode(scan_records, chunk_records=16)
        reader = CbrIndexedReader(io.BytesIO(payload))
        assert reader.domain_index_lookup("never-scanned.example") == []

    def test_week_column_round_trips(self, scan_records):
        decoded = decode(encode(scan_records))
        assert all(r.week == "cw20-2023" for r in decoded)
        weekless = [replace(r, qlog=None, week=None) for r in scan_records[:5]]
        assert decode(encode(weekless)) == weekless

    def test_indexed_reader_reads_exact_ordinals(self, scan_records):
        payload = encode(scan_records, chunk_records=16)
        reader = CbrIndexedReader(io.BytesIO(payload))
        batches = list(reader.read_chunks([1, 3]))
        assert batches[0] == artifact_view(scan_records[16:32])
        assert batches[1] == artifact_view(scan_records[48:64])

    def test_indexed_reader_rejects_torn_trailer(self, scan_records):
        payload = encode(scan_records)
        with pytest.raises(CbrFormatError):
            CbrIndexedReader(io.BytesIO(payload[:-4]))


def _chunk_slices(records, size):
    for start in range(0, len(records), size):
        yield records[start : start + size]


class TestFooterV1Compat:
    """Artifacts written before zone maps must keep working unchanged."""

    def test_v1_file_reads_and_round_trips(self, scan_records):
        payload = encode_v1(scan_records)
        assert payload[len(CBR_MAGIC)] == 1
        # v1 chunks have no week column, so the stamp does not survive.
        assert decode(payload) == [
            replace(r, qlog=None, week=None) for r in scan_records
        ]
        footer = read_footer(io.BytesIO(payload))
        assert footer["schema"] == 1
        assert "zones" not in footer
        assert "domain_index" not in footer

    def test_v1_file_analyzes(self, scan_records, tmp_path, capsys):
        path = tmp_path / "legacy.cbr"
        path.write_bytes(encode_v1(scan_records))
        assert main(["analyze", str(path), "--section", "versions"]) == 0
        assert "QUIC v1" in capsys.readouterr().out

    def test_v1_files_merge(self, scan_records):
        half = len(scan_records) // 2
        out = io.BytesIO()
        chunks, records = concat_frames(
            [
                io.BytesIO(encode_v1(scan_records[:half], chunk_records=16)),
                io.BytesIO(encode_v1(scan_records[half:], chunk_records=16)),
            ],
            out,
        )
        assert records == len(scan_records)
        assert decode(out.getvalue()) == [
            replace(r, qlog=None, week=None) for r in scan_records
        ]
        footer = read_footer(io.BytesIO(out.getvalue()))
        # Pre-zone-map sources merge cleanly: null zone entries (never
        # pruned) and no incomplete domain index.
        assert footer["zones"] == [None] * chunks
        assert "domain_index" not in footer


class TestConcatZoneCarry:
    def test_concat_carries_source_zones(self, scan_records):
        half = len(scan_records) // 2
        first = encode(scan_records[:half], chunk_records=16)
        second = encode(scan_records[half:], chunk_records=16)
        out = io.BytesIO()
        concat_frames([io.BytesIO(first), io.BytesIO(second)], out)
        merged = read_footer(io.BytesIO(out.getvalue()))
        zones_a = read_footer(io.BytesIO(first))["zones"]
        zones_b = read_footer(io.BytesIO(second))["zones"]
        assert merged["zones"] == zones_a + zones_b

    def test_concat_rebases_domain_index_ordinals(self, scan_records):
        half = len(scan_records) // 2
        first = encode(scan_records[:half], chunk_records=16)
        second = encode(scan_records[half:], chunk_records=16)
        out = io.BytesIO()
        concat_frames([io.BytesIO(first), io.BytesIO(second)], out)
        reader = CbrIndexedReader(io.BytesIO(out.getvalue()))
        base = len(read_footer(io.BytesIO(first))["chunks"])
        for ordinal, chunk_records in enumerate(
            _chunk_slices(artifact_view(scan_records[half:]), 16)
        ):
            for record in chunk_records:
                assert base + ordinal in reader.domain_index_lookup(
                    record.domain
                )

    def test_concat_mixed_versions_drops_index_keeps_zones(self, scan_records):
        half = len(scan_records) // 2
        first = encode(scan_records[:half], chunk_records=16)
        second = encode_v1(scan_records[half:], chunk_records=16)
        out = io.BytesIO()
        chunks, _ = concat_frames([io.BytesIO(first), io.BytesIO(second)], out)
        merged = read_footer(io.BytesIO(out.getvalue()))
        zones_a = read_footer(io.BytesIO(first))["zones"]
        assert merged["zones"] == zones_a + [None] * (chunks - len(zones_a))
        # One index-less source would make point lookups silently
        # incomplete, so the merged footer must not claim an index.
        assert "domain_index" not in merged
        assert decode(out.getvalue()) == artifact_view(scan_records[:half]) + [
            replace(r, qlog=None, week=None) for r in scan_records[half:]
        ]


class TestTolerantAnalyze:
    def test_truncated_cbr_reported_not_fatal(self, scan_records, tmp_path, capsys):
        # Small chunks guarantee the tear lands mid-chunk with intact
        # chunks before it.
        payload = encode(scan_records, chunk_records=32)
        torn = tmp_path / "torn.cbr"
        torn.write_bytes(payload[: int(len(payload) * 0.6)])
        assert main(["analyze", str(torn), "--section", "versions"]) == 0
        captured = capsys.readouterr()
        assert "1 corrupt chunks skipped" in captured.err
        assert "QUIC v1" in captured.out
