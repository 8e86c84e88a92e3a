"""Predicate-pushdown query planning over zone-mapped cbr artifacts.

The planner's contract is *pruning never changes results*: for any
predicate, running over the zone-pruned chunk set plus the residual
filter must be byte-identical to brute force (decode everything, filter
in memory).  Seeded random predicates probe that equivalence, and the
degraded paths — bloom false positives, footer-less files, torn
trailers, empty artifacts, unicode domains — must stay full scans, not
wrong answers.
"""

from __future__ import annotations

import io
import json
import random
from dataclasses import replace

import pytest

from conftest import archive_week_label, make_archive_week, make_connection_record
from jsonl_reader import load_records
from repro.analysis.engine import AnalysisEngine, build_record_folds
from repro.analysis.query import (
    And,
    Between,
    Eq,
    In,
    Present,
    QueryError,
    QueryStats,
    filter_batch,
    parse_where,
    plan_chunks,
)
from repro.analysis.report import render_analysis_sections
from repro.artifacts import open_query_source
from repro.artifacts.cbr import (
    RecordBatch,
    read_footer,
    week_serial,
    write_records_cbr,
)
from repro.cli import main
from repro.core.classify import SpinBehaviour
from repro.faults.taxonomy import FailureKind

CHUNK = 8

WEEKS = ["cw20-2023", "cw21-2023", "cw22-2023", "cw23-2023"]
PROVIDERS = ["cloudflare", "google", "hostinger", "other-hosting"]


def build_records(count: int = 96) -> list:
    """A deterministic multi-week, multi-provider record population."""
    rng = random.Random(4242)
    records = []
    for i in range(count):
        week = WEEKS[min(i * len(WEEKS) // count, len(WEEKS) - 1)]
        provider = PROVIDERS[i % len(PROVIDERS)]
        behaviour = (
            SpinBehaviour.SPIN if i % 3 else SpinBehaviour.ALL_ZERO
        )
        packets = None
        spin_rtts = None
        if behaviour is SpinBehaviour.SPIN:
            base = 100.0 * (i + 1)
            packets = [
                (base + 25.0 * j, j, bool(j % 2)) for j in range(rng.randrange(2, 7))
            ]
        else:
            spin_rtts = []
        record = make_connection_record(
            domain=f"dom{i:04d}.example",
            provider=provider,
            behaviour=behaviour,
            packets=packets,
            spin_rtts=spin_rtts,
        )
        record.week = week
        if i % 11 == 0:
            record.success = False
            record.status = None
            record.failure = (
                FailureKind.HANDSHAKE_TIMEOUT if i % 2 else FailureKind.CONNECTION_RESET
            )
        records.append(record)
    records[7] = replace(records[7], domain="bücher.example")
    records[31] = replace(records[31], domain="例え.テスト")
    return records


@pytest.fixture(scope="module")
def records():
    return build_records()


@pytest.fixture(scope="module")
def artifact(records, tmp_path_factory):
    path = tmp_path_factory.mktemp("query") / "dataset.cbr"
    with open(path, "wb") as stream:
        write_records_cbr(records, stream, chunk_records=CHUNK)
    return path


def brute_force(records, predicate):
    """Record by record: ``select`` over a batch of that one row."""
    return [
        r for r in records if predicate.select(RecordBatch.from_records([r]), (0,))
    ]


def query(path, predicate):
    """The full pushdown pipeline: plan, decode survivors, filter."""
    stats = QueryStats()
    with open_query_source(str(path), predicate, stats=stats) as source:
        matched = [
            record
            for batch in source.batches()
            for record in filter_batch(batch, predicate, stats)
        ]
    return matched, stats


def random_predicate(rng, records):
    kind = rng.randrange(7)
    if kind == 0:
        return Eq("domain", rng.choice(records).domain)
    if kind == 1:
        return In("provider", rng.sample(PROVIDERS, rng.randrange(1, 3)))
    if kind == 2:
        low, high = sorted(rng.sample(range(len(WEEKS)), 2))
        return Between("week", WEEKS[low], WEEKS[high])
    if kind == 3:
        return Present("failure")
    if kind == 4:
        return Eq("behaviour", rng.choice(["spin", "all_zero"]))
    if kind == 5:
        return Between("edges", rng.randrange(0, 3), rng.randrange(3, 8))
    return And(
        [random_predicate(rng, records), random_predicate(rng, records)]
    )


class TestPruningCorrectness:
    def test_seeded_random_predicates_byte_identical(self, records, artifact):
        """Pruned output must equal brute force — bytes, not just sets."""
        rng = random.Random(20230520)
        for _ in range(60):
            predicate = random_predicate(rng, records)
            matched, stats = query(artifact, predicate)
            expected = brute_force(records, predicate)
            assert matched == expected, repr(predicate)
            got = io.BytesIO()
            want = io.BytesIO()
            write_records_cbr(matched, got)
            write_records_cbr(expected, want)
            assert got.getvalue() == want.getvalue(), repr(predicate)
            assert stats.records_matched == len(expected)
            assert stats.chunks_selected <= stats.chunks_total

    def test_bloom_false_positives_never_drop_records(self, records, artifact):
        """Every stored domain must come back complete — the bloom and
        the domain index may only ever *add* chunks, never hide one."""
        for record in records:
            matched, _ = query(artifact, Eq("domain", record.domain))
            assert matched == brute_force(records, Eq("domain", record.domain))

    def test_absent_domain_matches_nothing(self, artifact):
        matched, stats = query(artifact, Eq("domain", "nosuch.example"))
        assert matched == []
        # The complete domain index answers a miss without decoding
        # anything (modulo 40-bit hash collisions).
        assert stats.chunks_selected <= 1

    def test_unicode_domains(self, records, artifact):
        for name in ("bücher.example", "例え.テスト"):
            matched, _ = query(artifact, Eq("domain", name))
            assert [r.domain for r in matched] == [name]

    def test_selective_week_predicate_prunes(self, records, artifact):
        predicate = Eq("week", WEEKS[-1])
        matched, stats = query(artifact, predicate)
        assert matched == brute_force(records, predicate)
        assert 0 < stats.chunks_selected < stats.chunks_total
        assert stats.chunks_pruned > 0

    def test_empty_artifact(self, tmp_path):
        path = tmp_path / "empty.cbr"
        with open(path, "wb") as stream:
            write_records_cbr([], stream)
        matched, stats = query(path, Eq("provider", "cloudflare"))
        assert matched == []
        assert stats.chunks_total == 0


class TestArchivePushdown:
    """A 26-week archive written week by week, as a shard merge does:
    selective reads must inflate a sliver of it and still equal brute
    force over the whole (the gates of the retired pushdown benchmark)."""

    MAX_CHUNK_FRACTION = 0.05

    @pytest.fixture(scope="class")
    def archive(self, tmp_path_factory):
        by_week = [make_archive_week(offset, 512) for offset in range(26)]
        path = tmp_path_factory.mktemp("archive") / "archive.cbr"
        with open(path, "wb") as stream:
            write_records_cbr(
                [r for week in by_week for r in week], stream, chunk_records=256
            )
        return path, by_week

    def test_where_week_inflates_under_5_percent_and_equals_brute_force(self, archive):
        path, by_week = archive
        for offset in (0, 13, 25):
            predicate = parse_where(f"week == {archive_week_label(offset)}")
            stats = QueryStats()
            engine = AnalysisEngine(build_record_folds("all"))
            with open_query_source(str(path), predicate, stats=stats) as source:
                results = engine.run(source.batches(), predicate=predicate, stats=stats)
            brute = AnalysisEngine(build_record_folds("all")).run([by_week[offset]])
            assert results == brute
            assert stats.records_matched == len(by_week[offset])
            assert stats.chunks_selected / stats.chunks_total < self.MAX_CHUNK_FRACTION

    def test_point_lookup_inflates_under_5_percent_and_equals_brute_force(self, archive):
        path, by_week = archive
        for wanted in (by_week[0][0], by_week[12][300], by_week[25][-1]):
            matched, stats = query(path, Eq("domain", wanted.domain))
            got, want = io.BytesIO(), io.BytesIO()
            write_records_cbr(matched, got)
            write_records_cbr([wanted], want)
            assert got.getvalue() == want.getvalue()
            assert stats.chunks_selected / stats.chunks_total < self.MAX_CHUNK_FRACTION


class TestDegradedPaths:
    def test_torn_trailer_falls_back_to_full_scan(self, records, artifact):
        """The bugfix: a footer-less file is a full scan, not a crash."""
        torn = artifact.with_name("torn.cbr")
        payload = artifact.read_bytes()
        torn.write_bytes(payload[: int(len(payload) * 0.8)])
        predicate = Eq("provider", "cloudflare")
        stats = QueryStats()
        with open_query_source(str(torn), predicate, stats=stats) as source:
            matched = [
                record
                for batch in source.batches()
                for record in filter_batch(batch, predicate, stats)
            ]
            survivors = source.records_read
        assert stats.chunks_pruned == 0
        assert 0 < survivors <= len(records)
        assert matched == brute_force(records[:survivors], predicate)

    def test_v1_footer_plans_full_scan(self, records, tmp_path):
        from repro.artifacts.cbr import CbrWriter

        path = tmp_path / "legacy.cbr"
        with open(path, "wb") as stream:
            writer = CbrWriter(stream, chunk_records=CHUNK, compat_v1=True)
            writer.write_records(records)
            writer.close()
        predicate = Eq("provider", "cloudflare")
        matched, stats = query(path, predicate)
        assert stats.chunks_total == stats.chunks_selected > 0
        assert [r.domain for r in matched] == [
            r.domain for r in brute_force(records, predicate)
        ]


class TestPlanner:
    def test_week_envelope_pruning(self, artifact):
        footer = read_footer(io.BytesIO(artifact.read_bytes()))
        ordinals, total = plan_chunks(footer, Eq("week", WEEKS[0]))
        assert total == len(footer["chunks"])
        assert 0 < len(ordinals) < total
        serial = week_serial(WEEKS[0])
        for ordinal in ordinals:
            low, high = footer["zones"][ordinal]["w"]
            assert low <= serial <= high

    def test_unbounded_fields_never_prune(self, artifact):
        footer = read_footer(io.BytesIO(artifact.read_bytes()))
        ordinals, total = plan_chunks(footer, Eq("status", 200))
        assert ordinals == list(range(total))

    def test_conjunction_prunes_union(self, artifact):
        footer = read_footer(io.BytesIO(artifact.read_bytes()))
        week_ordinals, _ = plan_chunks(footer, Eq("week", WEEKS[0]))
        both_ordinals, _ = plan_chunks(
            footer, And([Eq("week", WEEKS[0]), Eq("provider", "cloudflare")])
        )
        assert set(both_ordinals) <= set(week_ordinals)

    def test_null_zone_entries_are_kept(self):
        footer = {
            "chunks": [[0, 0, 0, 0], [1, 0, 0, 0]],
            "zones": [None, {"w": None, "p": ["google"]}],
        }
        ordinals, total = plan_chunks(footer, Eq("provider", "cloudflare"))
        assert ordinals == [0] and total == 2


class TestParseWhere:
    def test_grammar(self):
        predicate = parse_where(
            "week between cw20-2023 and cw21-2023 and provider in "
            "cloudflare, google and failure present"
        )
        assert isinstance(predicate, And)
        assert predicate.fields() == {"week", "provider", "failure"}

    def test_single_clause(self):
        predicate = parse_where("domain == a.example")
        assert predicate == Eq("domain", "a.example")
        assert predicate.point_domains() == {"a.example"}

    def test_numeric_coercion(self):
        assert parse_where("edges between 2 5") == Between("edges", 2, 5)
        assert parse_where("status = 200") == Eq("status", 200)
        assert parse_where("success == true") == Eq("success", True)

    @pytest.mark.parametrize(
        "text",
        [
            "",
            "frobnicate == 1",
            "provider",
            "provider ~= x",
            "provider == x and",
            "week == notaweek",
            "edges == many",
            "provider == x or domain == y",
            "behaviour between a b",
        ],
    )
    def test_rejects(self, text):
        with pytest.raises(QueryError):
            parse_where(text)


def exported_records(path) -> list:
    """The records of a ``repro convert``ed JSONL export."""
    with open(path, encoding="utf-8") as stream:
        return load_records(stream)


class TestCliQuery:
    @pytest.fixture(scope="class")
    def artifact_pair(self, tmp_path_factory):
        directory = tmp_path_factory.mktemp("cli-query")
        jsonl_path = directory / "dataset.jsonl"
        cbr_path = directory / "dataset.cbr"
        base = ["scan", "--czds", "400", "--toplist", "80", "--seed", "33"]
        assert main(base + ["--out", str(cbr_path)]) == 0
        assert main(["convert", str(cbr_path), str(jsonl_path)]) == 0
        return jsonl_path, cbr_path

    def test_query_domain_output_is_artifact_lines(self, artifact_pair, capsys):
        """Point-lookup output must be the export's lines for that domain."""
        jsonl_path, cbr_path = artifact_pair
        lines = jsonl_path.read_text(encoding="utf-8").splitlines()
        name = json.loads(lines[len(lines) // 2])["domain"]
        assert main(["query", "domain", name, str(cbr_path)]) == 0
        captured = capsys.readouterr()
        expected = [
            line for line in lines if json.loads(line)["domain"] == name
        ]
        assert captured.out.splitlines() == expected
        # The plan line is opt-in: silent by default, stderr with --verbose.
        assert "query plan:" not in captured.err
        assert main(["query", "domain", name, str(cbr_path), "--verbose"]) == 0
        captured = capsys.readouterr()
        assert captured.out.splitlines() == expected
        assert "query plan:" in captured.err

    def test_analyze_where_identical_across_formats(self, artifact_pair, capsys):
        """``analyze --where`` over the cbr artifact prints what the engine
        makes of the matching records of its JSONL export."""
        jsonl_path, cbr_path = artifact_pair
        where = ["--where", "provider == cloudflare", "--section", "versions"]
        assert main(["analyze", str(cbr_path)] + where) == 0
        from_cbr = capsys.readouterr().out
        kept = [
            record for record in exported_records(jsonl_path)
            if record.provider_name == "cloudflare"
        ]
        results = AnalysisEngine(build_record_folds("versions")).run([kept])
        assert from_cbr == render_analysis_sections(results, "versions") + "\n"

    def test_analyze_where_equals_prefiltered_dataset(
        self, artifact_pair, tmp_path, capsys
    ):
        """--where on the full artifact == plain analyze of the subset."""
        jsonl_path, cbr_path = artifact_pair
        subset = tmp_path / "subset.cbr"
        kept = [
            record for record in exported_records(jsonl_path)
            if record.provider_name == "cloudflare"
        ]
        with open(subset, "wb") as stream:
            write_records_cbr(kept, stream)
        assert main(["analyze", str(subset), "--section", "failures"]) == 0
        expected = capsys.readouterr().out
        code = main(
            [
                "analyze", str(cbr_path), "--section", "failures",
                "--where", "provider == cloudflare",
            ]
        )
        assert code == 0
        assert capsys.readouterr().out == expected

    def test_an_unreadable_footer_costs_the_plan_not_the_answer(
        self, artifact_pair, tmp_path, capsys
    ):
        """One flipped footer byte: ``analyze`` never needed the footer;
        ``analyze --where`` and ``query domain`` died of ``zlib.error``."""
        jsonl_path, cbr_path = artifact_pair
        damaged = bytearray(cbr_path.read_bytes())
        damaged[-20] ^= 0xFF  # eight bytes before the trailer: footer payload
        flipped = tmp_path / "flipped.cbr"
        flipped.write_bytes(bytes(damaged))
        name = json.loads(jsonl_path.read_text(encoding="utf-8").splitlines()[0])["domain"]
        for command in (
            ["analyze", "--where", "provider == cloudflare", "--section", "versions"],
            ["query", "domain", name],
        ):
            outputs = {}
            for path in (cbr_path, flipped):
                telemetry_dir = tmp_path / f"{command[0]}-{path.stem}"
                assert main(
                    command + [str(path), "--verbose", "--telemetry-out", str(telemetry_dir)]
                ) == 0
                captured = capsys.readouterr()
                counters = json.loads((telemetry_dir / "metrics.json").read_text())["counters"]
                outputs[path] = captured.out
                damaged_footer = path is flipped
                assert ("footer unreadable" in captured.err) == damaged_footer
                assert counters.get("query.footer_fallbacks") == (1 if damaged_footer else None)
                assert "corrupt chunks skipped" not in captured.err
            assert outputs[cbr_path] == outputs[flipped] != ""

    def test_bad_where_is_clean_error(self, artifact_pair):
        _, cbr_path = artifact_pair
        with pytest.raises(SystemExit, match="invalid --where"):
            main(["analyze", str(cbr_path), "--where", "nope == 1"])

    def test_query_telemetry_counters(self, artifact_pair, tmp_path, capsys):
        jsonl_path, cbr_path = artifact_pair
        telemetry_dir = tmp_path / "telemetry"
        name = json.loads(
            jsonl_path.read_text(encoding="utf-8").splitlines()[0]
        )["domain"]
        code = main(
            [
                "query", "domain", name, str(cbr_path),
                "--telemetry-out", str(telemetry_dir),
            ]
        )
        assert code == 0
        capsys.readouterr()
        assert main(["telemetry", "summarize", str(telemetry_dir)]) == 0
        summary = capsys.readouterr().out
        assert "query.chunks_total" in summary
        assert "query.chunks_pruned" in summary
        assert "query.records_scanned" in summary
