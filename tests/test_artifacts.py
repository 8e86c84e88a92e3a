"""The Appendix B JSONL export, read back by the tests' own reader."""

import io

import pytest

from conftest import make_connection_record
from jsonl_reader import ArtifactFormatError, load_records, record_from_dict
from repro.analysis.accuracy import accuracy_study
from repro.analysis.engine import AnalysisEngine, build_record_folds
from repro.analysis.artifacts import export_records, record_to_dict
from repro.artifacts import open_record_batches
from repro.artifacts.cbr import write_records_cbr
from repro.core.classify import SpinBehaviour
from repro.core.metrics import compare_means
from repro.web.scanner import ScanConfig, Scanner


def sample_records():
    spin = make_connection_record(
        packets=[(0.0, 0, False), (40.0, 1, True), (80.0, 2, False), (120.0, 3, True)],
        stack_rtts=[38.0, 39.5],
    )
    spin.negotiated_version = 1
    zero = make_connection_record(
        spin_rtts=[], stack_rtts=[20.0], behaviour=SpinBehaviour.ALL_ZERO
    )
    zero.observation.values_seen = {False}
    return [spin, zero]


class TestRoundTrip:
    def test_jsonl_roundtrip_preserves_analysis(self):
        records = sample_records()
        buffer = io.StringIO()
        assert export_records(records, buffer) == 2
        buffer.seek(0)
        loaded = load_records(buffer)
        assert len(loaded) == 2

        before = accuracy_study(records)
        after = accuracy_study(loaded)
        assert before.spin_received.connections == 1  # the one spinning record
        assert before == after
        assert compare_means(
            loaded[0].observation.rtts_received_ms, loaded[0].stack_rtts_ms
        ).ratio == pytest.approx(
            compare_means(
                records[0].observation.rtts_received_ms, records[0].stack_rtts_ms
            ).ratio
        )

    def test_fields_preserved(self):
        record = sample_records()[0]
        clone = record_from_dict(record_to_dict(record))
        assert clone.domain == record.domain
        assert clone.ip == record.ip
        assert clone.behaviour == record.behaviour
        assert clone.negotiated_version == 1
        assert clone.observation.rtts_received_ms == record.observation.rtts_received_ms
        assert clone.observation.edges_received == record.observation.edges_received
        assert clone.stack_rtts_ms == record.stack_rtts_ms

    def test_values_seen_roundtrip(self):
        record = sample_records()[1]
        clone = record_from_dict(record_to_dict(record))
        assert clone.observation.values_seen == {False}
        assert clone.observation.all_zero

    def test_ipv6_address_roundtrip(self):
        record = make_connection_record()
        record.ip = type(record.ip)(value=0x2A024780 << 96, version=6)
        record.ip_version = 6
        clone = record_from_dict(record_to_dict(record))
        assert clone.ip.version == 6
        assert str(clone.ip) == str(record.ip)


class TestFormatsAgree:
    """The cbr artifact and the JSONL export hold the same records (the
    gates of the retired analyze-throughput benchmark that need no clock)."""

    @pytest.fixture(scope="class")
    def artifact_pair(self, tiny_population, tmp_path_factory):
        scanner = Scanner(tiny_population, ScanConfig())
        records = []
        for probe in range(2):
            dataset = scanner.scan(
                week_label="cw20-2023", ip_version=4,
                domains=tiny_population.domains[:600], probe=probe,
            )
            records.extend(dataset.connection_records())
        directory = tmp_path_factory.mktemp("formats")
        jsonl_path, cbr_path = directory / "scan.jsonl", directory / "scan.cbr"
        with open(jsonl_path, "w", encoding="utf-8") as stream:
            assert export_records(records, stream) == len(records)
        with open(cbr_path, "wb") as stream:
            assert write_records_cbr(records, stream) == len(records)
        return records, jsonl_path, cbr_path

    def test_equal_section_results(self, artifact_pair):
        records, jsonl_path, cbr_path = artifact_pair
        assert len(records) > 100
        expected = AnalysisEngine(build_record_folds("all")).run([records])
        engine = AnalysisEngine(build_record_folds("all"))
        with open_record_batches(
            str(cbr_path),
            want_edges_received=engine.needs_edges_received,
            want_edges_sorted=engine.needs_edges_sorted,
        ) as source:
            assert engine.run(source.batches()) == expected
            assert source.records_read == len(records)
        with open(jsonl_path, encoding="utf-8") as stream:
            exported = load_records(stream)
        engine = AnalysisEngine(build_record_folds("all"))
        assert engine.run([exported]) == expected

    def test_cbr_is_at_least_4x_smaller(self, artifact_pair):
        _, jsonl_path, cbr_path = artifact_pair
        assert jsonl_path.stat().st_size >= 4.0 * cbr_path.stat().st_size


class TestErrorHandling:
    def test_unsupported_schema(self):
        data = record_to_dict(sample_records()[0])
        data["schema"] = 99
        with pytest.raises(ArtifactFormatError):
            record_from_dict(data)

    def test_missing_field(self):
        data = record_to_dict(sample_records()[0])
        del data["stack_rtts_ms"]
        with pytest.raises(ArtifactFormatError):
            record_from_dict(data)

    def test_invalid_json_line(self):
        with pytest.raises(ArtifactFormatError):
            load_records(io.StringIO("{not json}\n"))

    def test_blank_lines_skipped(self):
        buffer = io.StringIO()
        export_records(sample_records(), buffer)
        text = "\n" + buffer.getvalue() + "\n\n"
        assert len(load_records(io.StringIO(text))) == 2
