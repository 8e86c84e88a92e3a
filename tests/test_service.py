"""The measurement-as-a-service plane (spool, indexer, daemon, API)."""

import dataclasses
import http.client
import http.server
import io
import json
import os
import random
import socket
import sys
import threading
import time
import urllib.error
import urllib.request
from contextlib import contextmanager, redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import indented_week_json, make_archive_week, make_connection_record
from repro.analysis.artifacts import export_records
from repro.analysis.adoption import domain_tables
from repro.analysis.compliance import ComplianceFold, domain_flags, scan_flags
from repro.analysis.report import render_analysis_sections
from repro.artifacts import open_record_batches
from repro.artifacts.cbr import CbrFormatError, read_footer, write_records_cbr
from repro.cli import main
from repro.internet.population import ListGroup, Population
from repro.service import (
    CampaignDaemon,
    Scheduler,
    ServiceConfig,
    ServiceState,
    SpoolStore,
    WeekIndexer,
    build_server,
)
from repro.service import indexer as indexer_module
from repro.service.api import _READY_HANDLERS, WeekUnreadable, _Handler
from repro.service.summary import WeekSummary
from repro.telemetry import Telemetry
from repro.web import parallel as parallel_mod
from repro.web.parallel import ParallelScanConfig
from repro.web.scanner import Scanner

from tables_oracle import reference_tables

CONFIG = ServiceConfig(
    seed=77,
    czds_domains=140,
    toplist_domains=40,
    first_week="cw19-2023",
    last_week="cw20-2023",
)


class SimulatedClock:
    """A scheduler clock where sleeping advances time."""

    def __init__(self) -> None:
        self.now_s = 0.0
        self.sleeps: list[float] = []

    def monotonic(self) -> float:
        return self.now_s

    def sleep(self, seconds: float) -> None:
        self.sleeps.append(seconds)
        self.now_s += seconds


def run_daemon(directory) -> CampaignDaemon:
    daemon = CampaignDaemon(directory, CONFIG)
    daemon.run_once()
    return daemon


def pooled_scanner(daemon: CampaignDaemon) -> Scanner:
    """A real two-worker pool at a chunk that cuts CONFIG into 12
    shards a week, injected as the daemon's scanner."""
    daemon._scanner = Scanner(
        daemon.population,
        parallel=ParallelScanConfig(workers=2, chunk_size=16, force_pool=True),
        telemetry=daemon.telemetry,
    )
    return daemon._scanner


def tree_bytes(directory, skip: str | None = None) -> dict[str, bytes]:
    """Every file under ``directory`` by relative path, but ``skip``'s."""
    return {
        str(path.relative_to(directory)): path.read_bytes()
        for path in sorted(directory.rglob("*"))
        if path.is_file() and (skip is None or skip not in path.parts)
    }


def index_bytes(indexer: WeekIndexer) -> dict[str, bytes]:
    """Every summary file's bytes, plus the ledger's lines — the identity
    probe.  The ledger is an appended log, in the order folds completed,
    so its lines are compared sorted: a line twice, torn or missing
    still differs."""
    files = {
        path.name: path.read_bytes()
        for path in indexer.directory.glob("week-*.json")
    }
    lines = (indexer.directory / "ledger.log").read_bytes().splitlines(keepends=True)
    files["ledger.log"] = b"".join(sorted(lines))
    return files


def week_files(indexer: WeekIndexer) -> dict[str, bytes]:
    return {path.name: path.read_bytes() for path in indexer.directory.glob("week-*.json")}


def tear_the_ledger_line(monkeypatch, cut: int) -> None:
    """Make the next ledger append write ``cut`` bytes of its line, no
    ``\\n``, and crash: the state a crash mid-append leaves."""

    def torn_append(path, line):
        with open(path, "ab") as stream:
            stream.write(line[:cut])
        raise RuntimeError("simulated crash mid-append")

    monkeypatch.setattr(indexer_module, "append_line", torn_append)


class TestSpool:
    def test_submit_is_content_addressed_and_deduped(self, tmp_path):
        spool = SpoolStore(tmp_path / "spool")
        first = spool.submit_bytes(b"payload-a", source="test")
        again = spool.submit_bytes(b"payload-a", source="test-again")
        other = spool.submit_bytes(b"payload-b", source="test")
        assert first.new and not again.new and other.new
        assert first.fingerprint == again.fingerprint != other.fingerprint
        assert len(spool.artifacts()) == 2

    def test_artifacts_survive_a_damaged_manifest(self, tmp_path):
        spool = SpoolStore(tmp_path / "spool")
        entry = spool.submit_bytes(b"payload", source="test")
        spool.manifest_path.write_text("{torn json\n", encoding="utf-8")
        listed = spool.artifacts()
        assert [item.fingerprint for item in listed] == [entry.fingerprint]

    def test_fingerprints_list_the_artifact_names_only(self, tmp_path):
        """One listing, in string order: a submit's ``.tmp`` sibling, a
        hidden file and foreign names stay out; ``artifacts()`` is the
        same list with sizes."""
        spool = SpoolStore(tmp_path / "spool")
        sizes = {
            spool.submit_bytes(b"payload-%d" % index).fingerprint: 9 + (index > 9)
            for index in range(12)
        }
        fingerprints = sorted(sizes)
        for stray in ("abc.cbr.tmp", ".hidden.cbr", "notes.txt", "manifest.jsonl"):
            (spool.artifact_dir / stray).write_bytes(b"x")
        assert spool.fingerprints() == fingerprints
        assert [(e.fingerprint, e.size) for e in spool.artifacts()] == [
            (fingerprint, sizes[fingerprint]) for fingerprint in fingerprints
        ]

    @pytest.mark.parametrize("payload", ["jsonl-export", "five-random-bytes", "empty"])
    def test_submit_file_refuses_what_is_not_cbr(self, payload, tmp_path):
        """Spooled, a non-cbr file would fold as one corrupt chunk and be
        listed as done; the intake refuses it and writes nothing."""
        records = [make_connection_record(domain=f"d{i}.example") for i in range(3)]
        path = tmp_path / "submitted"
        if payload == "jsonl-export":
            with open(path, "w", encoding="utf-8") as stream:
                export_records(records, stream)
        else:
            path.write_bytes(random.Random(5).randbytes(5) if payload != "empty" else b"")
        spool = SpoolStore(tmp_path / "spool")
        with pytest.raises(CbrFormatError):
            spool.submit_file(path)
        assert spool.artifacts() == []
        assert not spool.manifest_path.exists()
        with open(path, "wb") as stream:
            write_records_cbr(records, stream)
        assert spool.submit_file(path).new
        assert len(spool.artifacts()) == 1


class TestIndexerIdempotence:
    @pytest.fixture(scope="class")
    def daemon(self, tmp_path_factory):
        return run_daemon(tmp_path_factory.mktemp("svc"))

    def test_duplicate_fold_is_a_noop(self, daemon):
        before = index_bytes(daemon.indexer)
        assert daemon.indexer.fold_pending(daemon.spool) == []
        assert index_bytes(daemon.indexer) == before

    def test_duplicate_submission_is_a_noop(self, daemon, tmp_path):
        before = index_bytes(daemon.indexer)
        entry = daemon.spool.artifacts()[0]
        copy = tmp_path / "copy.cbr"
        copy.write_bytes(entry.path.read_bytes())
        resubmitted = daemon.spool.submit_file(copy)
        assert not resubmitted.new
        assert daemon.indexer.fold_pending(daemon.spool) == []
        assert index_bytes(daemon.indexer) == before

    def test_shuffled_submission_order_is_byte_identical(
        self, daemon, tmp_path
    ):
        entries = daemon.spool.artifacts()
        assert len(entries) >= 2
        for name, order in (("fwd", entries), ("rev", list(reversed(entries)))):
            spool = SpoolStore(tmp_path / name / "spool")
            indexer = WeekIndexer(tmp_path / name / "index")
            for entry in order:
                spool.submit_bytes(entry.path.read_bytes())
                assert indexer.fold_pending(spool) == [entry.fingerprint]
            assert index_bytes(indexer) == index_bytes(daemon.indexer), name

    def test_crash_mid_fold_then_resume_is_byte_identical(
        self, daemon, tmp_path
    ):
        """Kill the fold of a two-week artifact at every ``fault_hook``
        event in turn, then fold again on the same indexer and
        telemetry: the resumed fold finishes what is missing without
        double-counting what is not, the span stack is back where it
        was, and the trace names each step once, under the right
        parent."""
        spool = SpoolStore(tmp_path / "spool")
        entry = submit(spool, spooled_records(daemon.spool))
        events: list[str] = []
        telemetry = Telemetry()
        reference = WeekIndexer(
            tmp_path / "reference", fault_hook=events.append, telemetry=telemetry
        )
        assert reference.fold_pending(spool) == [entry.fingerprint]
        assert events == ["week-written", "week-written", "ledger-written"]
        reference_paths = sorted(r.path for r in telemetry.tracer.records)
        assert [path[-1].partition(":")[0] for path in reference_paths] == [
            "index", "week", "week",
        ]

        class Crash(RuntimeError):
            pass

        for crash_at, crash_event in enumerate(events):
            seen: list[str] = []

            def crash_once(event):
                seen.append(event)
                if len(seen) == crash_at + 1:
                    raise Crash(event)

            telemetry = Telemetry()
            indexer = WeekIndexer(
                tmp_path / f"crash-{crash_at}",
                fault_hook=crash_once,
                telemetry=telemetry,
            )
            with telemetry.tracer.span("campaign"):
                with pytest.raises(Crash):
                    indexer.fold_pending(spool)
                assert telemetry.tracer._stack == ["campaign"]
                assert (entry.fingerprint in indexer.ledger()) == (
                    crash_event == "ledger-written"
                )
                indexer.fold_pending(spool)
            # Every persistence point passed exactly once over both runs.
            assert seen == events, crash_at
            assert index_bytes(indexer) == index_bytes(reference), crash_at
            *steps, campaign = [r.path for r in telemetry.tracer.records]
            assert campaign == ("campaign",)
            assert sorted(path[1:] for path in steps) == reference_paths, crash_at
            counters = telemetry.registry.snapshot()["counters"]
            assert counters["index.artifacts_folded"] == 1
            assert counters["index.weeks_merged"] == 2

    @pytest.mark.parametrize("cut", [0, 7, 16])
    def test_a_torn_ledger_line_costs_one_recheck_and_counts_once(
        self, daemon, tmp_path, monkeypatch, cut
    ):
        """A crash mid-append of the ledger line (none of it, part of the
        fingerprint, all of it but the ``\\n``) leaves a tail that lists
        nothing.  The restart re-checks the artifact against the week
        files, which hold it already, and appends its line: the week files
        are the uninterrupted fold's, and the ledger lists the artifact."""
        spool = SpoolStore(tmp_path / "spool")
        entry = submit(spool, spooled_records(daemon.spool))
        fingerprint = entry.fingerprint.encode("ascii")
        reference = WeekIndexer(tmp_path / "reference")
        assert reference.fold_pending(spool) == [entry.fingerprint]
        indexer = WeekIndexer(tmp_path / "index")
        tear_the_ledger_line(monkeypatch, cut)
        with pytest.raises(RuntimeError, match="mid-append"):
            indexer.fold_pending(spool)
        monkeypatch.undo()
        assert indexer.ledger_bytes() == fingerprint[:cut]
        assert indexer.ledger() == set()
        assert week_files(indexer) == week_files(reference)
        restarted = WeekIndexer(tmp_path / "index")
        assert restarted.fold_pending(spool) == [entry.fingerprint]
        assert restarted.fold_pending(spool) == []
        assert week_files(restarted) == week_files(reference)
        # The new line starts after the fragment, which it terminates: a
        # fragment names no artifact, and a whole fingerprint torn only
        # of its newline names this one a second time.
        lines = restarted.ledger_bytes().split(b"\n")
        assert lines == [fingerprint[:cut]] * (cut > 0) + [fingerprint, b""]
        assert entry.fingerprint in restarted.ledger()
        for summary in map(restarted.load_week, restarted.weeks()):
            assert summary.artifacts == [entry.fingerprint]

    def test_an_old_layout_index_rechecks_once_and_folds_on(self, scanned, tmp_path):
        """An index the retired ``ledger.json`` layout left — week files
        and a JSON list of fingerprints, no ``ledger.log`` — re-checks
        each spooled artifact against the week files' artifact lists
        once, counts nothing twice, and then folds and serves what a
        fresh index does."""
        cw19, cw20 = scanned["cw19-2023"], scanned["cw20-2023"]
        first = cw19[: len(cw19) // 2] + cw20[: len(cw20) // 2]
        second = cw19[len(cw19) // 2 :] + cw20[len(cw20) // 2 :]
        with serving(tmp_path / "old") as (old, old_base), serving(
            tmp_path / "fresh"
        ) as (fresh, fresh_base):

            def assert_same_answers():
                assert week_files(old.indexer) == week_files(fresh.indexer)
                for path in [*bodies_from_disk(fresh.indexer), f"/v1/domain/{cw19[0].domain}"]:
                    answer = http_get(fresh_base + path)
                    assert answer[0] == 200, path
                    assert http_get(old_base + path) == answer, path

            for state in (old, fresh):
                submit(state.spool, first)
                assert len(state.indexer.fold_pending(state.spool)) == 1
            listed = sorted(old.indexer.ledger())
            (old.indexer.directory / "ledger.log").unlink()
            (old.indexer.directory / "ledger.json").write_text(
                json.dumps({"artifacts": listed}, sort_keys=True) + "\n"
            )
            assert old.indexer.ledger() == set()
            assert_same_answers()
            assert old.indexer.fold_pending(old.spool) == listed  # the re-check
            assert_same_answers()
            for state in (old, fresh):
                submit(state.spool, second)
                assert len(state.indexer.fold_pending(state.spool)) == 1
            assert old.indexer.ledger() == fresh.indexer.ledger()
            assert_same_answers()

    def test_a_damaged_chunk_is_counted_not_lost_silently(self, tmp_path):
        """A chunk that fails its CRC costs its records, and the fold says
        so: the ``index:`` row carries ``corrupt_chunks`` and the
        registry counts it.  A clean fold's row has no such field."""
        stream = io.BytesIO()
        write_records_cbr(make_archive_week(0, 600), stream, chunk_records=256)
        payload = bytearray(stream.getvalue())
        offset, length, n_records, _ = read_footer(stream)["chunks"][1]
        assert n_records == 256
        payload[offset + length // 2] ^= 0xFF
        folds = {}
        for name, data in (("clean", stream.getvalue()), ("damaged", bytes(payload))):
            spool = SpoolStore(tmp_path / name / "spool")
            telemetry = Telemetry()
            indexer = WeekIndexer(tmp_path / name / "index", telemetry=telemetry)
            fingerprint = spool.submit_bytes(data).fingerprint
            assert indexer.fold_pending(spool) == [fingerprint]
            assert fingerprint in indexer.ledger()
            (row,) = [
                r for r in telemetry.tracer.records if r.path == (f"index:{fingerprint}",)
            ]
            counters = telemetry.registry.snapshot()["counters"]
            folds[name] = (
                indexer.load_week("cw10-2023").connections_total,
                row.attrs.get("corrupt_chunks"),
                counters.get("index.chunks_corrupt"),
            )
        assert folds == {"clean": (600, None, None), "damaged": (344, 1, 1)}


class TestWeekFiles:
    """A week file is compact canonical JSON, and a new week's file is
    its delta; an index written with the indented encoding still folds
    on and serves the same bytes."""

    def test_a_new_week_is_its_delta_as_merged_into_nothing(self, scanned, tmp_path):
        spool = SpoolStore(tmp_path / "spool")
        indexer = WeekIndexer(tmp_path / "index")
        entry = submit(spool, scanned["cw19-2023"] + scanned["cw20-2023"])
        deltas, corrupt = indexer._summarize(entry.path, entry.fingerprint)
        assert sorted(deltas) == ["cw19-2023", "cw20-2023"] and corrupt == 0
        assert indexer.fold_pending(spool) == [entry.fingerprint]
        for week, delta in deltas.items():
            merged = WeekSummary(week)
            merged.merge(delta.state())
            written = indexer.week_path(week).read_bytes()
            assert written == merged.to_json().encode("utf-8"), week
            assert written.count(b"\n") == 1
            assert json.loads(written) == json.loads(indented_week_json(merged))

    def test_an_indented_index_folds_on_and_serves_what_a_fresh_one_does(
        self, scanned, tmp_path
    ):
        cw19, cw20 = scanned["cw19-2023"], scanned["cw20-2023"]
        first = cw19[: len(cw19) // 2] + cw20[: len(cw20) // 2]
        second = cw19[len(cw19) // 2 :] + cw20[len(cw20) // 2 :]
        with serving(tmp_path / "old") as (old, old_base), serving(
            tmp_path / "fresh"
        ) as (fresh, fresh_base):

            def fold_both(records):
                for state in (old, fresh):
                    submit(state.spool, records)
                    assert len(state.indexer.fold_pending(state.spool)) == 1

            def assert_same_answers():
                paths = [*bodies_from_disk(fresh.indexer), "/v1/healthz",
                         f"/v1/domain/{cw19[0].domain}", f"/v1/domain/{cw20[-1].domain}"]
                for path in paths:
                    answer = http_get(fresh_base + path)
                    assert answer[0] == 200, path
                    assert http_get(old_base + path) == answer, path

            fold_both(first)
            # The old index as the indented encoder wrote it.
            for week in old.indexer.weeks():
                summary = old.indexer.load_week(week)
                old.indexer.week_path(week).write_text(
                    indented_week_json(summary), encoding="utf-8"
                )
            assert index_bytes(old.indexer) != index_bytes(fresh.indexer)
            assert_same_answers()
            fold_both(second)  # a second artifact into each indented week
            assert old.indexer.weeks() == ["cw19-2023", "cw20-2023"]
            assert index_bytes(old.indexer) == index_bytes(fresh.indexer)  # compact
            assert_same_answers()


class TestDaemon:
    def test_run_once_resumes_from_the_spool_manifest(self, tmp_path):
        daemon = run_daemon(tmp_path / "svc")
        assert daemon.pending_weeks() == []
        again = CampaignDaemon(tmp_path / "svc", CONFIG)
        status = again.run_once()
        assert status["scanned_weeks"] == []
        assert status["folded_artifacts"] == []
        assert status["indexed_weeks"] == ["cw19-2023", "cw20-2023"]

    def test_a_pooled_tick_equals_an_inline_tick(self, tmp_path):
        """Two weeks through one real pool window — week 2's shards run
        while week 1 is spooled — write the inline tick's spool, index
        and trace rows, and the checkpoint files of an inline tick at
        the same chunk."""
        clean_telemetry = Telemetry()
        clean = CampaignDaemon(tmp_path / "clean", CONFIG, telemetry=clean_telemetry)
        clean.run_once()
        chunked = CampaignDaemon(tmp_path / "chunked", CONFIG)
        chunked._scanner = Scanner(
            chunked.population, parallel=ParallelScanConfig(chunk_size=16)
        )
        chunked.run_once()

        telemetry = Telemetry()
        with CampaignDaemon(tmp_path / "pooled", CONFIG, telemetry=telemetry) as daemon:
            scanner = pooled_scanner(daemon)
            assert daemon.run_once()["scanned_weeks"] == ["cw19-2023", "cw20-2023"]
            assert scanner.last_scan_stats["pool"] is True
            assert scanner.last_scan_stats["units"] == 24
        assert tree_bytes(tmp_path / "pooled", skip="checkpoints") == tree_bytes(
            tmp_path / "clean", skip="checkpoints"
        )
        assert tree_bytes(tmp_path / "pooled") == tree_bytes(tmp_path / "chunked")
        paths = [record.path for record in telemetry.tracer.records]
        assert paths == [record.path for record in clean_telemetry.tracer.records]

    @pytest.mark.parametrize(
        "failing, failing_call, pooled",
        [
            pytest.param("spool.submit_bytes", 2, False, id="spool.submit_bytes"),
            pytest.param("scanner.scan_shard", 2, False, id="scanner.scan_shard"),
            pytest.param(
                "spool.submit_bytes", 1, True, id="pooled-first-spool.submit_bytes"
            ),
        ],
    )
    def test_crashed_tick_retries_to_the_uninterrupted_index_and_trace(
        self, tmp_path, monkeypatch, failing, failing_call, pooled
    ):
        """A tick that fails — in the scan, or spooling a week's artifact,
        with a pool also while the next week's shards are queued — leaves
        no span open and no shard running; the next tick on the same
        daemon and telemetry ends at the uninterrupted run's index bytes
        and row paths."""
        clean_telemetry = Telemetry()
        clean = CampaignDaemon(tmp_path / "clean", CONFIG, telemetry=clean_telemetry)
        clean.run_once()

        telemetry = Telemetry()
        daemon = CampaignDaemon(tmp_path / "crashed", CONFIG, telemetry=telemetry)
        if pooled:
            pooled_scanner(daemon)
        submitted = []  # (week, future) of every shard sent to the pool
        pool_for = parallel_mod._pool_for

        class RecordingPool:
            def __init__(self, pool):
                self.pool = pool

            def submit(self, function, task):
                future = self.pool.submit(function, task)
                submitted.append((task[3], future))
                return future

        monkeypatch.setattr(
            parallel_mod, "_pool_for", lambda *args: RecordingPool(pool_for(*args))
        )
        owner, method = failing.split(".")
        real = getattr(getattr(daemon, owner), method)
        calls = []
        queued_at_crash = []

        def fail_the_chosen_call(*args, **kwargs):
            calls.append(args)
            if len(calls) == failing_call:
                queued_at_crash.extend(week for week, _ in submitted)
                raise RuntimeError("simulated crash")
            return real(*args, **kwargs)

        monkeypatch.setattr(getattr(daemon, owner), method, fail_the_chosen_call)
        try:
            with pytest.raises(RuntimeError, match="simulated crash"):
                daemon.run_once()
            assert telemetry.tracer._stack == []
            assert all(future.done() for _, future in submitted)
            if pooled:
                assert "cw20-2023" in queued_at_crash
            assert daemon.run_once()["indexed_weeks"] == ["cw19-2023", "cw20-2023"]
        finally:
            daemon.close()
        assert index_bytes(daemon.indexer) == index_bytes(clean.indexer)
        paths = {record.path for record in telemetry.tracer.records}
        assert paths == {record.path for record in clean_telemetry.tracer.records}
        assert all(len(set(path)) == len(path) for path in paths)

    def test_a_torn_manifest_line_costs_one_rescan(self, tmp_path, monkeypatch):
        """A crash mid-append of the artifact line leaves a torn tail.  The
        restart re-scans the week once, and its scan entry must land on a
        line of its own: glued to the fragment, it would be lost too and
        every later tick would scan the week again."""
        config = dataclasses.replace(CONFIG, first_week="cw20-2023")
        directory = tmp_path / "svc"
        append = SpoolStore._append_manifest

        def crash_mid_append(spool, entry):
            with open(spool.manifest_path, "a", encoding="utf-8") as stream:
                stream.write(json.dumps(entry, sort_keys=True)[:20])
            raise RuntimeError("simulated crash mid-append")

        monkeypatch.setattr(SpoolStore, "_append_manifest", crash_mid_append)
        with pytest.raises(RuntimeError, match="mid-append"):
            CampaignDaemon(directory, config).run_once()
        monkeypatch.setattr(SpoolStore, "_append_manifest", append)
        scanned = [
            CampaignDaemon(directory, config).run_once()["scanned_weeks"]
            for _ in range(3)
        ]
        assert scanned == [["cw20-2023"], [], []]

    def test_a_tick_never_holds_the_domain_list(self, tmp_path, monkeypatch):
        """The daemon reads its population by range: a tick over one
        whose ``domains`` raises writes the same spool bytes."""
        run_daemon(tmp_path / "listed")

        def refuse(population):
            raise AssertionError("the daemon asked for the domain list")

        monkeypatch.setattr(Population, "domains", property(refuse))
        run_daemon(tmp_path / "ranged")
        assert tree_bytes(tmp_path / "ranged" / "spool") == tree_bytes(
            tmp_path / "listed" / "spool"
        )

    def test_fig2_folds_from_the_week_files(self, tmp_path):
        """The ``domains`` flag maps of three consecutive week files give
        the same k-of-n histogram as the driver's scans of those weeks."""
        config = dataclasses.replace(
            CONFIG, czds_domains=400, toplist_domains=60, first_week="cw18-2023"
        )
        daemon = CampaignDaemon(tmp_path / "svc", config)
        daemon.run_once()
        weeks = daemon.indexer.weeks()
        assert weeks == ["cw18-2023", "cw19-2023", "cw20-2023"]
        archived = ComplianceFold(len(weeks))
        archived.update_many(
            json.loads(daemon.indexer.week_bytes(week))["domains"] for week in weeks
        )
        population = daemon.population
        scanned = ComplianceFold(len(weeks))
        scanned.update_many(
            scan_flags(
                Scanner(population),
                list(population.iter_targets()),
                [(week, 0) for week in weeks],
            )
        )
        histogram = archived.finish()
        assert histogram == scanned.finish()
        assert histogram.considered_domains > 0

    @pytest.mark.parametrize("ip_version", [4, 6])
    def test_tables_1_and_3_fold_from_a_week_file(self, tmp_path, ip_version):
        """A week file's ``domains`` map plus the daemon's input list give
        the library route's Tables 1/4 and 3 over the same week."""
        config = dataclasses.replace(
            CONFIG, czds_domains=400, toplist_domains=60, ip_version=ip_version
        )
        daemon = CampaignDaemon(tmp_path / "svc", config)
        daemon.run_once()
        week = daemon.indexer.weeks()[-1]
        population = daemon.population
        archived = domain_tables(
            json.loads(daemon.indexer.week_bytes(week))["domains"], population, ip_version, week
        )
        dataset = Scanner(population).scan(week_label=week, ip_version=ip_version)
        library = domain_tables(domain_flags(dataset.results), population, ip_version, week)
        assert archived == library == reference_tables(dataset, population)
        czds = archived[0].row(ListGroup.CZDS)
        assert czds.domains_resolved > czds.domains_quic > 0

    def test_scheduler_paces_ticks_on_the_simulated_clock(self, tmp_path):
        daemon = CampaignDaemon(
            tmp_path / "svc",
            ServiceConfig(
                seed=5,
                czds_domains=60,
                toplist_domains=0,
                first_week="cw20-2023",
                last_week="cw20-2023",
            ),
        )
        clock = SimulatedClock()
        scheduler = Scheduler(daemon, interval_s=300.0, clock=clock)
        scheduler.run(max_ticks=3)
        assert scheduler.ticks == 3
        assert len(clock.sleeps) == 2  # no sleep after the final tick
        assert all(0.0 <= s <= 300.0 for s in clock.sleeps)
        assert daemon.indexer.weeks() == ["cw20-2023"]

    def test_scheduler_sets_the_throughput_gauge_on_its_clock(self, tmp_path):
        """The gauge is the tick's domains over the tick's time on the
        scheduler's clock; a tick that scans nothing leaves it as it was."""

        class SteppingClock(SimulatedClock):
            def monotonic(self) -> float:
                self.now_s += 2.0
                return self.now_s

        telemetry = Telemetry()
        daemon = CampaignDaemon(
            tmp_path / "svc",
            ServiceConfig(
                seed=5,
                czds_domains=60,
                toplist_domains=0,
                first_week="cw20-2023",
                last_week="cw20-2023",
            ),
            telemetry=telemetry,
        )
        gauge = telemetry.registry.gauge("service.scan_domains_per_s")
        Scheduler(daemon, interval_s=300.0, clock=SteppingClock()).run(max_ticks=1)
        assert daemon.domains_scanned == 60
        assert gauge.value == 60 / 2.0
        gauge.set(7.0)
        Scheduler(daemon, interval_s=300.0, clock=SteppingClock()).run(max_ticks=1)
        assert daemon.domains_scanned == 60
        assert gauge.value == 7.0


@pytest.fixture(scope="module")
def service(tmp_path_factory):
    """A folded service directory plus a live API server."""
    daemon = run_daemon(tmp_path_factory.mktemp("svc-api"))
    state = ServiceState(daemon.spool, daemon.indexer, telemetry=Telemetry())
    server = build_server(state)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    port = server.server_address[1]
    yield daemon, f"http://127.0.0.1:{port}"
    server.shutdown()
    server.server_close()


def entry_records(entry) -> list:
    with open_record_batches(str(entry.path)) as source:
        return list(source.records())


def spooled_records(spool) -> list:
    return [
        record for entry in spool.artifacts() for record in entry_records(entry)
    ]


def http_get(url: "str | urllib.request.Request") -> tuple[int, bytes]:
    try:
        with urllib.request.urlopen(url) as response:
            return response.status, response.read()
    except urllib.error.HTTPError as error:
        return error.code, error.read()


def errored_requests(base: str) -> int:
    counters = json.loads(http_get(f"{base}/v1/metrics")[1])["metrics"]["counters"]
    return counters.get("service.requests_errored", 0)


class TestApi:
    def test_healthz_and_weeks(self, service):
        _, base = service
        status, body = http_get(f"{base}/v1/healthz")
        assert status == 200
        health = json.loads(body)
        assert health["status"] == "ok"
        assert health["weeks"] == ["cw19-2023", "cw20-2023"]
        status, body = http_get(f"{base}/v1/weeks")
        assert json.loads(body)["weeks"] == ["cw19-2023", "cw20-2023"]

    def test_adoption_and_compliance_counters_add_up(self, service):
        _, base = service
        weekly = [
            json.loads(http_get(f"{base}/v1/adoption?week={week}")[1])
            for week in ("cw19-2023", "cw20-2023")
        ]
        merged = json.loads(http_get(f"{base}/v1/adoption")[1])
        assert merged["week"] == "all"
        assert merged["connections_total"] == sum(
            entry["connections_total"] for entry in weekly
        )
        compliance = json.loads(http_get(f"{base}/v1/compliance")[1])
        assert (
            sum(compliance["behaviours"].values())
            == merged["connections_total"]
        )

    def test_analyze_is_byte_identical_to_the_cli(self, service, tmp_path):
        """The tentpole acceptance check: /v1/analyze must serve the same
        bytes ``repro analyze`` prints over the union of the artifacts."""
        daemon, base = service
        union = tmp_path / "union.cbr"
        with open(union, "wb") as stream:
            write_records_cbr(spooled_records(daemon.spool), stream)
        buffer = io.StringIO()
        with redirect_stdout(buffer):
            assert main(["analyze", str(union)]) == 0
        cli_text = buffer.getvalue()
        api_text = json.loads(http_get(f"{base}/v1/analyze")[1])["text"]
        assert api_text + "\n" == cli_text

    def test_analyze_single_week_matches_where_filter(self, service, tmp_path):
        daemon, base = service
        union = tmp_path / "union.cbr"
        with open(union, "wb") as stream:
            write_records_cbr(spooled_records(daemon.spool), stream)
        buffer = io.StringIO()
        with redirect_stdout(buffer):
            assert main(
                [
                    "analyze", str(union), "--section", "versions",
                    "--where", "week == cw19-2023",
                ]
            ) == 0
        cli_text = buffer.getvalue()
        payload = json.loads(
            http_get(f"{base}/v1/analyze?week=cw19-2023&section=versions")[1]
        )
        assert payload["text"] + "\n" == cli_text

    def test_domain_endpoint_matches_repro_query(self, service):
        daemon, base = service
        entry = daemon.spool.artifacts()[0]
        name = entry_records(entry)[0].domain
        buffer = io.StringIO()
        with redirect_stdout(buffer):
            assert main(["query", "domain", name, str(entry.path)]) == 0
        cli_lines = buffer.getvalue().splitlines()
        status, body = http_get(f"{base}/v1/domain/{name}")
        assert status == 200
        api_lines = body.decode("utf-8").splitlines()
        # The API aggregates across every spooled artifact; the CLI saw
        # one file, so its lines must be a subsequence prefix per artifact.
        assert cli_lines
        for line in cli_lines:
            assert line in api_lines

    def test_unknown_endpoint_and_week_are_json_errors(self, service):
        _, base = service
        status, body = http_get(f"{base}/v1/nope")
        assert status == 404 and "error" in json.loads(body)
        status, body = http_get(f"{base}/v1/adoption?week=cw01-1999")
        assert status == 404 and "error" in json.loads(body)
        # No route takes a POST: the HTTP layer refuses it, counted and in JSON.
        errored = errored_requests(base)
        post = urllib.request.Request(
            f"{base}/v1/seeds", data=b'{"domains": ["a.example"]}', method="POST"
        )
        status, body = http_get(post)
        assert status == 501 and "error" in json.loads(body)
        assert errored_requests(base) == errored + 1


@pytest.fixture(scope="module")
def scanned(service):
    """The fixture campaign's records: the same domains in both weeks."""
    daemon, _ = service
    records = spooled_records(daemon.spool)
    by_week = {
        week: [record for record in records if record.week == week]
        for week in ("cw19-2023", "cw20-2023")
    }
    assert all(len(rows) >= 8 for rows in by_week.values())
    return by_week


def submit(spool, records, week=None):
    """Spool ``records`` (re-stamped to ``week`` if given) as one artifact."""
    if week is not None:
        records = [dataclasses.replace(record, week=week) for record in records]
    buffer = io.BytesIO()
    write_records_cbr(records, buffer)
    return spool.submit_bytes(buffer.getvalue(), source="test")


@contextmanager
def serving(directory):
    """An empty service directory behind a live API server."""
    spool = SpoolStore(directory / "spool")
    state = ServiceState(
        spool, WeekIndexer(directory / "index"), telemetry=Telemetry()
    )
    server = build_server(state)
    # A short poll only so that shutdown() returns promptly.
    thread = threading.Thread(target=server.serve_forever, args=(0.02,), daemon=True)
    thread.start()
    try:
        yield state, f"http://127.0.0.1:{server.server_address[1]}"
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=30)


def encoded(payload) -> bytes:
    return (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8")


def bodies_from_disk(indexer: WeekIndexer, unreadable=()) -> dict[str, bytes]:
    """Every summary route's body, computed from freshly loaded summaries
    (but those of the ``unreadable`` weeks, and then of ``all``)."""
    weeks = indexer.weeks()
    expected = {"/v1/weeks": encoded({"weeks": weeks})}
    summaries = {
        week: indexer.load_week(week) for week in weeks if week not in unreadable
    }
    if not unreadable:
        summaries["all"] = indexer.load_combined()
    for week, summary in summaries.items():
        expected[f"/v1/adoption?week={week}"] = encoded(summary.adoption())
        expected[f"/v1/compliance?week={week}"] = encoded(summary.compliance())
        for section in ("all", "versions"):
            text = render_analysis_sections(summary.analysis_results(), section)
            expected[f"/v1/analyze?week={week}&section={section}"] = encoded(
                {"week": week, "section": section, "text": text}
            )
    if not unreadable:
        expected["/v1/adoption"] = expected["/v1/adoption?week=all"]
    return expected


def raw_request(base: str, request: bytes) -> bytes:
    host, port = base.removeprefix("http://").split(":")
    with socket.create_connection((host, int(port)), timeout=30) as connection:
        connection.sendall(request)
        connection.shutdown(socket.SHUT_WR)
        return b"".join(iter(lambda: connection.recv(65536), b""))


class TestApiCache:
    """The read cache's contract: answers are cached per week-file
    content, and no request is answered from a superseded index."""

    def assert_fresh(self, state, base):
        for path, body in bodies_from_disk(state.indexer).items():
            assert http_get(base + path) == (200, body), path
            assert http_get(base + path) == (200, body), f"{path} (cached)"

    def test_every_fold_step_serves_the_bytes_on_disk(self, scanned, tmp_path):
        cw19, cw20 = scanned["cw19-2023"], scanned["cw20-2023"]
        half = len(cw19) // 2
        with serving(tmp_path) as (state, base):
            fold = lambda: state.indexer.fold_pending(state.spool)  # noqa: E731
            assert http_get(f"{base}/v1/weeks") == (200, encoded({"weeks": []}))
            first = submit(state.spool, cw19[:half])
            assert len(fold()) == 1  # a new week
            self.assert_fresh(state, base)
            merged = state._all.summary
            submit(state.spool, cw20)
            assert len(fold()) == 1  # another new week
            self.assert_fresh(state, base)
            assert state._all.summary is merged  # the new week added in
            untouched = state._weeks["cw20-2023"].summary
            submit(state.spool, cw19[half:])
            assert len(fold()) == 1  # a second artifact into an existing week
            self.assert_fresh(state, base)
            assert state._weeks["cw20-2023"].summary is untouched  # not re-parsed
            assert state._all.summary is not merged  # a rewritten week: merged again
            merged = state._all.summary
            submit(
                state.spool,
                [
                    dataclasses.replace(record, week=week)
                    for week, rows in (("cw21-2023", cw19), ("cw22-2023", cw20))
                    for record in rows
                ],
            )
            assert len(fold()) == 1  # one artifact, two weeks
            self.assert_fresh(state, base)
            assert state._all.summary is merged  # both added in
            cached = {week: entry.summary for week, entry in state._weeks.items()}
            assert not state.spool.submit_bytes(
                first.path.read_bytes(), source="again"
            ).new
            assert fold() == []  # a duplicate invalidates nothing
            self.assert_fresh(state, base)
            assert state._all.summary is merged
            assert all(
                state._weeks[week].summary is summary
                for week, summary in cached.items()
            )

    def test_a_fold_by_another_indexer_is_visible_on_the_next_request(
        self, scanned, tmp_path
    ):
        """What ``repro service index`` beside a running server does."""
        with serving(tmp_path) as (state, base):
            submit(state.spool, scanned["cw19-2023"])
            state.indexer.fold_pending(state.spool)
            self.assert_fresh(state, base)
            submit(state.spool, scanned["cw20-2023"])
            submit(state.spool, scanned["cw20-2023"][:5], week="cw19-2023")
            other = WeekIndexer(state.indexer.directory)
            assert len(other.fold_pending(state.spool)) == 2
            status, body = http_get(f"{base}/v1/adoption?week=cw19-2023")
            assert json.loads(body)["connections_total"] == len(scanned["cw19-2023"]) + 5
            self.assert_fresh(state, base)

    def test_unknown_week_labels_are_never_cached(self, scanned, tmp_path):
        hostile = ["../ledger", "..%2F..%2Fetc%2Fpasswd", "%00", "all%00", "ALL",
                   "cw19-2023/", "cw19-2023.json", "x" * 4000, "week-cw19-2023"]
        with serving(tmp_path) as (state, base):
            submit(state.spool, scanned["cw19-2023"])
            state.indexer.fold_pending(state.spool)
            self.assert_fresh(state, base)
            for turn in range(1000):
                label = hostile[turn % len(hostile)] if turn % 2 else f"cw{turn}-1999"
                route = ("adoption", "compliance", "analyze")[turn % 3]
                status, body = http_get(f"{base}/v1/{route}?week={label}")
                assert status == 404 and "error" in json.loads(body), label
            assert list(state._weeks) == ["cw19-2023"]
            self.assert_fresh(state, base)

    def test_a_reader_beside_folds_sees_each_week_before_or_after_a_fold(
        self, scanned, tmp_path
    ):
        cw19, cw20 = scanned["cw19-2023"], scanned["cw20-2023"]
        step = max(1, len(cw19) // 6)
        slices = [cw19[at : at + step] for at in range(0, len(cw19), step)]
        #: cw19's total after each fold begun so far; appended *before*
        #: the fold starts, so ``totals[-1]`` may or may not be visible.
        totals = [len(slices[0])]
        seen: list[tuple[int, int, int]] = []
        errors: list[str] = []
        done = threading.Event()
        paths = (
            "/v1/adoption?week=cw19-2023", "/v1/adoption", "/v1/weeks",
            "/v1/compliance?week=cw19-2023",
            "/v1/analyze?week=cw19-2023&section=versions",
        )
        with serving(tmp_path) as (state, base):
            submit(state.spool, slices[0])
            state.indexer.fold_pending(state.spool)

            def read():
                while not done.is_set():
                    for path in paths:
                        begun = len(totals)
                        status, body = http_get(base + path)
                        if status != 200:
                            errors.append(f"{path} -> {status}")
                        elif path == paths[0]:
                            total = json.loads(body)["connections_total"]
                            seen.append((begun, total, len(totals)))

            reader = threading.Thread(target=read, daemon=True)
            reader.start()
            for turn, rows in enumerate(slices[1:]):
                submit(state.spool, rows)
                submit(state.spool, cw20[:5], week=f"cw{21 + turn}-2023")
                totals.append(totals[-1] + len(rows))
                assert len(state.indexer.fold_pending(state.spool)) == 2
                _, body = http_get(f"{base}/v1/adoption?week=cw19-2023")
                assert json.loads(body)["connections_total"] == totals[-1]
                answered = len(seen)  # let the reader come round between folds
                deadline = time.monotonic() + 30
                while len(seen) == answered and time.monotonic() < deadline:
                    time.sleep(0.001)
            done.set()
            reader.join(timeout=30)
            assert not reader.is_alive() and not errors, errors[:3]
            assert len(seen) >= len(slices) - 1
            for begun, total, begun_by_the_answer in seen:
                # Every fold but the last one begun had returned when the
                # request was sent: nothing older than that may be served.
                assert total in totals[max(0, begun - 2) : begun_by_the_answer]
            self.assert_fresh(state, base)

    def test_an_unreadable_week_file_is_a_counted_500_until_rewritten(
        self, scanned, tmp_path
    ):
        """Half a week file: its week and the merged view answer 500 —
        never the other weeks alone — and nothing of it is cached."""
        cw19, cw20 = scanned["cw19-2023"], scanned["cw20-2023"]
        broken = ("/v1/adoption?week=cw19-2023", "/v1/analyze?week=cw19-2023",
                  "/v1/adoption", "/v1/compliance?week=all")
        with serving(tmp_path) as (state, base):
            fold = lambda: state.indexer.fold_pending(state.spool)  # noqa: E731
            submit(state.spool, cw19)
            submit(state.spool, cw20)
            assert len(fold()) == 2
            self.assert_fresh(state, base)
            before = http_get(base + broken[0])
            path = state.indexer.week_path("cw19-2023")
            good = path.read_bytes()
            path.write_bytes(good[: len(good) // 2])
            submit(state.spool, cw20[:5], week="cw21-2023")
            assert len(fold()) == 1  # a new version: every week is looked at again
            original = bodies_from_disk(state.indexer, unreadable=("cw19-2023",))
            for turn in range(2):
                for route in broken:
                    status, body = http_get(base + route)
                    assert status == 500 and set(json.loads(body)) == {"error"}, route
            for route in ("/v1/weeks", "/v1/adoption?week=cw20-2023",
                          "/v1/analyze?week=cw21-2023&section=all"):
                assert http_get(base + route) == (200, original[route]), route
            counters = state.metrics_snapshot()["counters"]
            assert counters["service.requests_errored"] == 2 * len(broken)
            assert counters["service.weeks_unreadable"] == 2 * len(broken)
            # A server started on the damage answers the same, every time;
            # so does one that finds other histogram edges than the folds'.
            restarted = ServiceState(state.spool, WeekIndexer(state.indexer.directory))
            other_edges = good.replace(b"-200.0", b"-250.0")
            assert other_edges != good
            for damaged in (good[: len(good) // 2], other_edges):
                path.write_bytes(damaged)
                for week in ("cw19-2023", "all", "all"):
                    with pytest.raises(WeekUnreadable):
                        restarted.summary_body(week, "adoption", WeekSummary.adoption)
            # A fold does not overwrite what it cannot read.
            submit(state.spool, cw19[:3])
            with pytest.raises(ValueError):
                fold()
            assert path.read_bytes() == other_edges
            path.write_bytes(good)
            assert http_get(base + broken[0]) == before
            self.assert_fresh(state, base)
            assert len(fold()) == 1
            self.assert_fresh(state, base)
            assert restarted.summary_body(
                "all", "adoption", WeekSummary.adoption
            ) == http_get(f"{base}/v1/adoption")[1]

    def test_a_same_size_rewrite_in_the_ledgers_tick_is_served_fresh(
        self, scanned, tmp_path
    ):
        """A week file rewritten in place at its size within the timestamp
        tick it was read in keeps its stat key; since that tick is the
        ledger's, the key was not trusted, and the next index version
        reads the file again."""
        with serving(tmp_path) as (state, base):
            submit(state.spool, scanned["cw19-2023"])
            state.indexer.fold_pending(state.spool)
            path = state.indexer.week_path("cw19-2023")
            tick = os.stat(state.indexer.directory / "ledger.log").st_mtime_ns
            os.utime(path, ns=(tick, tick))  # written in the ledger's tick
            self.assert_fresh(state, base)
            good = path.read_bytes()
            total = json.loads(good)["connections_total"]
            field = b'"connections_total": %d,'
            rewritten = good.replace(field % total, field % (total ^ 1))
            assert rewritten != good and len(rewritten) == len(good)
            key = os.stat(path)
            with open(path, "r+b") as stream:
                stream.write(rewritten)
            os.utime(path, ns=(tick, tick))
            stat = os.stat(path)
            assert (stat.st_ino, stat.st_size, stat.st_mtime_ns) == (
                key.st_ino, key.st_size, key.st_mtime_ns
            )
            submit(state.spool, scanned["cw20-2023"])
            assert len(state.indexer.fold_pending(state.spool)) == 1
            _, body = http_get(f"{base}/v1/adoption?week=cw19-2023")
            assert json.loads(body)["connections_total"] == total ^ 1
            self.assert_fresh(state, base)

    def test_a_read_while_the_ledger_line_is_torn_serves_the_body_before_the_fold(
        self, scanned, tmp_path, monkeypatch
    ):
        """A fold whose ledger line is not terminated — still being
        written, or torn by a crash — has not committed: its week files
        are on disk, but a server that answered before it keeps the
        bodies it had, until the line lands."""
        cw19 = scanned["cw19-2023"]
        with serving(tmp_path) as (state, base):
            submit(state.spool, cw19[: len(cw19) // 2])
            assert len(state.indexer.fold_pending(state.spool)) == 1
            self.assert_fresh(state, base)
            before = {path: http_get(base + path) for path in bodies_from_disk(state.indexer)}
            submit(state.spool, cw19[len(cw19) // 2 :])
            tear_the_ledger_line(monkeypatch, 7)
            with pytest.raises(RuntimeError, match="mid-append"):
                state.indexer.fold_pending(state.spool)
            monkeypatch.undo()
            assert bodies_from_disk(state.indexer).keys() == before.keys()
            assert bodies_from_disk(state.indexer) != {
                path: body for path, (_, body) in before.items()
            }
            for path, answer in before.items():
                assert http_get(base + path) == answer, path
            # A server that starts on the torn ledger has nothing older:
            # it reads the week files as they are.
            started = ServiceState(state.spool, WeekIndexer(state.indexer.directory))
            assert started.weeks() == ["cw19-2023"]
            assert len(WeekIndexer(state.indexer.directory).fold_pending(state.spool)) == 1
            self.assert_fresh(state, base)

    def test_protocol_rejects_are_json_and_counted(self, tmp_path):
        rejects = {
            b"GARBAGE\r\n\r\n": b" 400 ",
            b"GET /v1/weeks HTTP/9.9\r\n\r\n": b" 505 ",
            b"PUT /v1/weeks HTTP/1.1\r\nHost: x\r\n\r\n": b" 501 ",
            b"GET /v1/weeks HTTP/1.1\r\nX-Pad: " + b"a" * 70_000 + b"\r\n\r\n": b" 431 ",
        }
        with serving(tmp_path) as (state, base):
            for request, status in rejects.items():
                head, _, body = raw_request(base, request).partition(b"\r\n\r\n")
                assert head.startswith(b"HTTP/1.1" + status), head
                assert b"Content-Type: application/json" in head
                assert f"Content-Length: {len(body)}".encode() in head
                assert set(json.loads(body)) == {"error"}
            assert http_get(f"{base}/v1/weeks")[0] == 200
            assert http_get(f"{base}/v1/nope")[0] == 404
            counters = state.metrics_snapshot()["counters"]
            assert counters["service.requests_total"] == 6
            assert counters["service.requests_errored"] == 5

    def test_request_diag_is_bounded_by_route_templates(self, tmp_path):
        expected = {
            ("request:/v1/domain/<name>", 200, 40),
            ("request:<unknown>", 404, 40),
            ("request:/v1/weeks", 200, 40),
        }
        with serving(tmp_path) as (state, base):
            for turn in range(40):
                http_get(f"{base}/v1/domain/name-{turn}.example")
                http_get(f"{base}/v1/made-up-{turn}")
                http_get(f"{base}/v1/weeks")
            # A request is accounted after its response is written.
            deadline = time.monotonic() + 30
            while True:
                diag = {
                    (record.path[-1], record.attrs["status"], record.attrs["count"])
                    for record in state.telemetry.tracer.diag_records
                }
                if diag == expected or time.monotonic() > deadline:
                    break
                time.sleep(0.001)
            assert diag == expected
            rows = json.loads(http_get(f"{base}/v1/spans")[1])["diag"]
            assert {row["name"] for row in rows} == {name for name, _, _ in expected}


class _Parsed:
    """A handler as far as ``parse_request`` takes it: the head in
    ``rfile``, what ``send_error`` was asked recorded (and, as both
    servers' ``send_error`` do, the connection marked to close)."""

    def send_error(self, code, message=None, explain=None):
        self.errors.append((int(code), message))
        self.close_connection = True


class _StdlibParsed(_Parsed, http.server.BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"


class _ServiceParsed(_Parsed, _Handler):
    pass


def parse_outcome(handler_class, head: bytes) -> tuple:
    """What ``parse_request`` makes of ``head`` (after the request line
    is read as ``handle_one_request`` reads it)."""
    handler = handler_class.__new__(handler_class)
    handler.rfile, handler.wfile, handler.errors = io.BytesIO(head), io.BytesIO(), []
    handler.raw_requestline = handler.rfile.readline(65537)
    accepted = handler.parse_request()
    return (
        accepted, handler.errors, handler.command, getattr(handler, "path", None),
        handler.request_version, handler.close_connection, handler.requestline,
        handler.rfile.tell(), handler.wfile.getvalue(),
    )


_LATIN1 = st.text(st.characters(min_codepoint=0x20, max_codepoint=0xFF), max_size=6)
_ENDINGS = st.sampled_from(["\r\n", "\r\n", "\r\n", "\n", "\r", "\r\r\n", ""])
_VERSIONS = st.sampled_from([
    "HTTP/0.9", "HTTP/1.0", "HTTP/1.1", "HTTP/2.0", "HTTP/3.0", "HTTP/1.10",
    "HTTP/01.1", "HTTP/1", "HTTP/1.1.1", "HTTP/.1", "http/1.1", "HTTP/\xb2.1",
    "HTTP/12345678901.1", "HTTP/1.0123456789", "HTTP/1.x", "HTTP/",
]) | _LATIN1
_PATHS = st.sampled_from(["/v1/weeks", "//", "//v1//weeks", "///x?week=all", "/a?b=c#d", "*"])
#: A request line http.server accepts, most of the time, so that the
#: headers behind it are read.
_REQUEST_LINES = st.builds(
    lambda method, path, version, end: f"{method} {path} {version}{end}",
    st.sampled_from(["GET", "HEAD", "POST"]),
    _PATHS,
    st.sampled_from(["HTTP/1.1", "HTTP/1.1", "HTTP/1.0"]),
    st.sampled_from(["\r\n", "\n"]),
) | st.builds(
    lambda method, path, version, words, gap, end: gap.join(
        [method, path, version, "extra"][:words]
    ) + end,
    st.sampled_from(["GET", "HEAD", "POST", "get", "G\xe9T", ""]) | _LATIN1,
    _PATHS | _LATIN1,
    _VERSIONS,
    st.integers(0, 4),
    st.sampled_from([" ", " ", "  ", "\t", "\xa0", "\x85", "\x1c"]),
    _ENDINGS,
)
_NAMES = st.sampled_from([
    "Connection", "connection", "CONNECTION", "Expect", "EXPECT", "Host", "X-Pad",
    "From", "From ", "Bad Name", "", "Conn\xe9ction", "Connection ", "\tConnection",
    " Connection",
]) | _LATIN1
_VALUES = st.sampled_from([
    "close", "Close", "keep-alive", "Keep-Alive", " close", "close ", "\tclose",
    "100-continue", "100-Continue", "100-continue\r", "clos\xe9", "", "x",
    "x\x85Connection: close", "x\x0bExpect: 100-continue", "x\x0cConnection: close",
    "x\x1cConnection: close", "x\rConnection: close",
]) | _LATIN1
_FIELDS = st.builds(
    lambda name, colon, value, end: name + colon + value + end,
    _NAMES, st.sampled_from([": ", ":", ":\t", ": \t", " : ", ""]), _VALUES, _ENDINGS,
) | st.sampled_from([" more\r\n", "\tclose\r\n", "  \r\n", "\t\n"])
_HEADS = st.builds(
    lambda line, fields, end, tail: (line + "".join(fields) + end + tail).encode("latin-1"),
    _REQUEST_LINES,
    st.lists(_FIELDS, max_size=6),
    st.sampled_from(["\r\n", "\n", ""]),
    st.sampled_from(["", "GET /v1/weeks HTTP/1.1\r\n\r\n", "body"]),
)


class TestRequestHead:
    """``_Handler.parse_request`` against ``BaseHTTPRequestHandler``'s on
    the same bytes: the same status and message, the same request, the
    same bytes read and written (``100 Continue``)."""

    def assert_same(self, head: bytes) -> tuple:
        expected = parse_outcome(_StdlibParsed, head)
        assert parse_outcome(_ServiceParsed, head) == expected, head[:200]
        return expected

    @settings(max_examples=1500, deadline=None)
    @given(_HEADS)
    def test_generated_heads_parse_as_the_stdlib_parses_them(self, head):
        self.assert_same(head)

    @pytest.mark.parametrize("count", [0, 1, 98, 99, 100, 101])
    @pytest.mark.parametrize("name", ["Connection", "Expect", "X-Pad"])
    def test_header_counts_at_the_limit(self, count, name):
        fields = "".join(f"{name}: {value}\r\n" for value in range(count))
        for value in ("close", "100-continue", "keep-alive"):
            head = f"GET / HTTP/1.1\r\n{fields}{name}: {value}\r\n\r\n"
            self.assert_same(head.encode("latin-1"))

    @pytest.mark.parametrize("size", [65_534, 65_535, 65_536, 65_537])
    def test_a_header_line_at_the_length_limit(self, size):
        """``size`` bytes of header line with its CRLF: 65 536 is the most
        ``http.client`` reads, a 65 537-byte line is a 431."""
        for prefix in ("Connection: close", "X-Pad: a"):
            line = prefix + "a" * (size - len(prefix) - 2) + "\r\n"
            accepted, errors, *_ = self.assert_same(
                f"GET / HTTP/1.1\r\n{line}\r\n".encode("latin-1")
            )
            assert accepted == (size <= 65_536), errors

    @pytest.mark.parametrize("head", [
        b"GET /v1/weeks HTTP/1.1\r\nConnection: close\r\nconnection: keep-alive\r\n\r\n",
        b"GET /v1/weeks HTTP/1.0\r\nConnection: Keep-Alive\r\n\r\n",
        b"GET /v1/weeks HTTP/1.1\r\nExpect: 100-continue\r\n\r\n",
        b"GET /v1/weeks HTTP/1.0\r\nExpect: 100-continue\r\n\r\n",
        b"GET /v1/weeks HTTP/1.1\r\nBad Line\r\nConnection: close\r\n\r\n",
        b"GET /v1/weeks HTTP/1.1\r\nBad Name: x\r\nConnection: close\r\n\r\n",
        b"GET /v1/weeks HTTP/1.1\r\nConnection:\r\n close\r\n\r\n",
        b"GET /v1/weeks HTTP/1.1\r\nX: y\rConnection: close\r\n\r\n",
        b"GET /v1/weeks HTTP/1.1\r\nX: y\x85Connection: close\r\n\r\n",
        b"GET /v1/weeks HTTP/1.1\r\nX: y\x0cConnection: close\r\n\r\n",
        b"GET /v1/weeks HTTP/1.1\r\nConnection:\tclose\r\n\r\n",
        b"GET /v1/weeks HTTP/1.1\r\nConnection: close\r\n  \r\n\r\n",
        b"GET /v1/weeks HTTP/1.1\r\n:x\r\n close\r\nConnection: close\r\n\r\n",
        b"GET /v1/weeks HTTP/1.1\r\nFrom x\r\nConnection: close\r\nFrom y\r\n\r\n",
        b"GET /v1/weeks HTTP/1.1\r\n Connection: close\r\nExpect: 100-continue\n\n",
        b"GET /v1/weeks HTTP/1.1\r\n: close\r\nConnection: clos\xe9\r\n\r\n",
        b"GET //v1//weeks?week=all\n",
        b"GET /v1/weeks\r\nConnection: keep-alive\r\n\r\n",
        b"POST /v1/weeks\r\n\r\n",
        b"GET /v1/weeks HTTP/2.0\r\n\r\n",
        b"GET /v1/weeks HTTP/1.1 extra\r\n\r\n",
        b"GET /v1/weeks HTTP/\xb2.1\r\n\r\n",
        b"GET /v1/weeks HTTP/12345678901.1\r\n\r\n",
        b"GET /v1/weeks HTTP/1.00000000001\r\n\r\n",
        b"\r\n",
        b"",
    ])
    def test_edge_heads(self, head):
        self.assert_same(head)

    def test_the_date_header_is_the_stdlibs(self, monkeypatch):
        import email.utils

        from repro.service import api

        for now in (0.0, 951_782_400.5, 1_684_540_799.999, 4_102_444_800.0):
            monkeypatch.setattr(api.time, "time", lambda: now)
            assert api._http_date() == email.utils.formatdate(now, usegmt=True)


def handler_threads(base: str) -> set[str]:
    """Names of the live handler threads of the server at ``base``."""
    prefix = f"repro-api:{base.rsplit(':', 1)[1]}/"
    return {
        thread.name
        for thread in threading.enumerate()
        if thread.name.startswith(prefix)
    }


def connect(base: str) -> socket.socket:
    host, port = base.removeprefix("http://").split(":")
    return socket.create_connection((host, int(port)), timeout=30)


class TestServingModel:
    """Accepted connections go to handler threads that outlive them: the
    ready set serves a closed-loop client, a connection that finds no
    thread waiting starts one, and ``server_close()`` ends the waiting."""

    def test_sequential_reads_start_no_thread_after_the_ready_set(
        self, tmp_path, monkeypatch
    ):
        """``urllib`` asks the server to close; ``http.client`` (the
        benchmark's client) leaves the handler to read EOF while the
        next connection is already accepted."""
        started = []
        start = threading.Thread.start

        def counted_start(thread):
            started.append(thread.name)
            start(thread)

        with serving(tmp_path) as (state, base):
            port = int(base.rsplit(":", 1)[1])
            seen = set()
            monkeypatch.setattr(threading.Thread, "start", counted_start)
            for turn in range(200):
                if turn % 2:
                    assert http_get(f"{base}/v1/weeks")[0] == 200
                else:
                    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
                    connection.request("GET", "/v1/weeks")
                    assert connection.getresponse().read() == encoded({"weeks": []})
                    connection.close()
                seen |= handler_threads(base)
            monkeypatch.undo()
            assert state.metrics_snapshot()["counters"]["service.requests_total"] == 200
        assert set(started) == seen  # every thread started is a handler
        assert len(started) <= _READY_HANDLERS + 1, started

    def test_silent_connections_hold_up_no_request(self, tmp_path):
        with serving(tmp_path) as (_, base):
            silent = [connect(base) for _ in range(_READY_HANDLERS + 2)]
            try:
                with urllib.request.urlopen(f"{base}/v1/weeks", timeout=5) as response:
                    assert response.status == 200
                    assert response.read() == encoded({"weeks": []})
                # One thread per silent connection, and one for the read.
                assert len(handler_threads(base)) == _READY_HANDLERS + 3
            finally:
                for connection in silent:
                    connection.close()

    def test_a_client_gone_mid_request_line_holds_up_nothing(self, tmp_path):
        with serving(tmp_path) as (state, base):
            with connect(base) as connection:
                connection.sendall(b"GET /v1/weeks HT")
            assert http_get(f"{base}/v1/weeks") == (200, encoded({"weeks": []}))
            # The cut line is refused (400, into a closed socket) and
            # counted; its handler may finish after the read's.
            deadline = time.monotonic() + 30
            while True:
                counters = state.metrics_snapshot()["counters"]
                answered = counters.get("service.requests_total", 0)
                if answered == 2 or time.monotonic() > deadline:
                    break
                time.sleep(0.001)
            assert answered == 2
            assert counters["service.requests_errored"] == 1
            assert http_get(f"{base}/v1/weeks")[0] == 200

    def test_concurrent_reads_get_the_sequential_bytes(self, scanned, tmp_path):
        with serving(tmp_path) as (state, base):
            submit(state.spool, scanned["cw19-2023"])
            submit(state.spool, scanned["cw20-2023"])
            state.indexer.fold_pending(state.spool)
            paths = sorted(bodies_from_disk(state.indexer))
            sequential = {path: http_get(base + path) for path in paths}
            assert sequential == {
                path: (200, body) for path, body in bodies_from_disk(state.indexer).items()
            }
            answers: list[list] = [[] for _ in range(4)]

            def read(into: list) -> None:
                for turn in range(50):
                    path = paths[(turn + len(into)) % len(paths)]
                    into.append((path, http_get(base + path)))

            readers = [threading.Thread(target=read, args=(into,)) for into in answers]
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-5)  # switch threads inside the handoff
            try:
                for reader in readers:
                    reader.start()
                for reader in readers:
                    reader.join(timeout=60)
            finally:
                sys.setswitchinterval(interval)
            assert not any(reader.is_alive() for reader in readers)
            assert [len(into) for into in answers] == [50] * 4
            for into in answers:
                for path, answer in into:
                    assert answer == sequential[path], path
            counters = state.metrics_snapshot()["counters"]
            assert counters["service.requests_total"] == len(paths) + 4 * 50

    @pytest.mark.skipif(
        not hasattr(os, "sched_setaffinity") or len(os.sched_getaffinity(0)) < 2,
        reason="needs two CPUs to tell CPU sets apart",
    )
    def test_handlers_take_on_the_accept_loops_cpu_set(self, tmp_path):
        """As a thread started per connection inherited it."""
        state = ServiceState(
            SpoolStore(tmp_path / "spool"), WeekIndexer(tmp_path / "index"),
            telemetry=Telemetry(),
        )
        server = build_server(state)
        accept = threading.Thread(target=server.serve_forever, args=(0.02,), daemon=True)
        accept.start()
        base = f"http://127.0.0.1:{server.server_address[1]}"
        held = []
        try:
            assert http_get(f"{base}/v1/weeks")[0] == 200  # starts the ready set
            pinned = {max(os.sched_getaffinity(0))}
            os.sched_setaffinity(accept.native_id, pinned)
            for _ in range(_READY_HANDLERS):  # each holds a thread of its own
                connection = http.client.HTTPConnection(
                    "127.0.0.1", server.server_address[1], timeout=30
                )
                connection.request("GET", "/v1/weeks")
                assert connection.getresponse().read() == encoded({"weeks": []})
                held.append(connection)
            handlers = handler_threads(base)
            cpu_sets = [
                os.sched_getaffinity(thread.native_id)
                for thread in threading.enumerate()
                if thread.name in handlers
            ]
            assert cpu_sets.count(pinned) >= _READY_HANDLERS, cpu_sets
        finally:
            for connection in held:
                connection.close()
            server.shutdown()
            server.server_close()
            accept.join(timeout=30)

    def test_server_close_ends_the_waiting_threads(self, tmp_path):
        with serving(tmp_path) as (_, base):
            port = int(base.rsplit(":", 1)[1])
            # A keep-alive connection holds its thread past the close.
            held = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
            held.request("GET", "/v1/weeks")
            assert held.getresponse().read() == encoded({"weeks": []})
            for _ in range(20):
                assert http_get(f"{base}/v1/weeks")[0] == 200
            assert len(handler_threads(base)) >= _READY_HANDLERS
        # serving() ran shutdown() and server_close().
        try:
            assert len(handler_threads(base)) == 1
        finally:
            held.close()
        deadline = time.monotonic() + 30
        while handler_threads(base) and time.monotonic() < deadline:
            time.sleep(0.001)
        assert not handler_threads(base)


class TestDomainLookup:
    def unpruned(self, spool, name: str) -> bytes:
        """The answer of opening every spooled artifact, in spool order."""
        from repro.analysis.artifacts import record_to_dict

        lines = [
            json.dumps(record_to_dict(record), separators=(",", ":")) + "\n"
            for record in spooled_records(spool)
            if record.domain == name
        ]
        return "".join(lines).encode("utf-8")

    def test_pruned_lookup_equals_opening_every_artifact(self, scanned, tmp_path):
        cw19, cw20 = scanned["cw19-2023"], scanned["cw20-2023"]
        names = sorted({record.domain for record in cw19})
        groups = [set(names[at::3]) for at in range(3)]
        assert {names[0], names[2]} <= {record.domain for record in cw20}
        with serving(tmp_path) as (state, base):
            # Three weeks of disjoint domains, all of cw20 (the same
            # domains again), and a re-stamped copy left unfolded.
            for week, group in zip(("cw17-2023", "cw18-2023", "cw19-2023"), groups):
                submit(state.spool, [r for r in cw19 if r.domain in group], week=week)
            submit(state.spool, cw20)
            assert len(state.indexer.fold_pending(state.spool)) == 4
            submit(
                state.spool,
                [r for r in cw19 if r.domain not in groups[2]],
                week="cw21-2023",
            )
            assert len(state.spool.artifacts()) == 5  # one chunk each
            # Opened: the artifacts of the two weeks that know the name,
            # and whatever is not folded yet.
            lines = {names[0]: 3, names[2]: 2, "absent.example": 0}
            for name, expected in lines.items():
                before = state.metrics_snapshot()["counters"].get("query.chunks_total", 0)
                status, body = http_get(f"{base}/v1/domain/{name}")
                assert (status, body) == (200, self.unpruned(state.spool, name)), name
                assert body.count(b"\n") >= expected
                after = state.metrics_snapshot()["counters"]["query.chunks_total"]
                assert after - before == (3 if expected else 1), name

    def test_an_artifact_with_an_unreadable_footer_still_answers(self, scanned, tmp_path):
        """The spool takes any bytes and the indexer needs no footer, so a
        folded artifact whose footer does not inflate used to kill every
        lookup that opened it (``zlib.error`` out of the planner)."""
        cw19 = scanned["cw19-2023"]
        buffer = io.BytesIO()
        write_records_cbr(cw19, buffer)
        damaged = bytearray(buffer.getvalue())
        damaged[-20] ^= 0xFF  # eight bytes before the trailer: footer payload
        name = cw19[0].domain
        with serving(tmp_path) as (state, base):
            state.spool.submit_bytes(bytes(damaged), source="test")
            assert len(state.indexer.fold_pending(state.spool)) == 1
            body = self.unpruned(state.spool, name)
            assert body.count(b"\n") >= 1
            assert b"".join(
                line.encode("utf-8") + b"\n" for line in state.domain_records(name)
            ) == body
            assert http_get(f"{base}/v1/domain/{name}") == (200, body)
            counters = state.metrics_snapshot()["counters"]
            assert counters["query.footer_fallbacks"] == 2
            assert counters["query.chunks_total"] == 0  # nothing was planned


class TestServiceCli:
    def test_run_once_submit_and_index_roundtrip(self, tmp_path, capsys):
        service_dir = tmp_path / "svc"
        args = [
            "--dir", str(service_dir),
            "--seed", "77",
            "--czds", "140",
            "--toplist", "40",
            "--first-week", "cw19-2023",
            "--last-week", "cw20-2023",
        ]
        assert main(["service", "run-once", *args]) == 0
        status = json.loads(capsys.readouterr().out)
        assert status["scanned_weeks"] == ["cw19-2023", "cw20-2023"]
        assert status["pending_weeks"] == 0

        # Re-submitting a spooled artifact through the CLI is a no-op.
        artifact = next((service_dir / "spool" / "artifacts").glob("*.cbr"))
        assert main(
            ["service", "submit", "--dir", str(service_dir), str(artifact)]
        ) == 0
        captured = capsys.readouterr()
        assert "duplicate payload" in captured.err
        assert json.loads(captured.out)["folded_artifacts"] == []

        assert main(["service", "index", "--dir", str(service_dir)]) == 0
        assert json.loads(capsys.readouterr().out)["folded_artifacts"] == []

    def test_run_once_telemetry_is_a_function_of_the_seed(self, tmp_path, capsys):
        """Two ``run-once --telemetry-out`` runs of one seed write the
        same four files: no wall-clock gauge lands in a tick's own
        registry (the scheduler sets it, on its clock)."""
        saved = []
        for run in ("a", "b"):
            out = tmp_path / run / "telemetry"
            assert main(
                [
                    "service", "run-once", "--dir", str(tmp_path / run / "svc"),
                    "--seed", "5", "--czds", "60", "--toplist", "10",
                    "--first-week", "cw20-2023", "--last-week", "cw20-2023",
                    "--telemetry-out", str(out),
                ]
            ) == 0
            saved.append({path.name: path.read_bytes() for path in out.iterdir()})
        capsys.readouterr()
        assert sorted(saved[0]) == [
            "diag.jsonl", "metrics.json", "metrics.prom", "trace.jsonl"
        ]
        assert saved[0] == saved[1]
        assert b"scan_domains_per_s" not in saved[0]["metrics.prom"]

    def test_submit_of_a_jsonl_export_is_a_clean_error(self, tmp_path, capsys):
        exported = tmp_path / "week.jsonl"
        with open(exported, "w", encoding="utf-8") as stream:
            export_records([make_connection_record()], stream)
        service_dir = tmp_path / "svc"
        with pytest.raises(SystemExit) as excinfo:
            main(["service", "submit", "--dir", str(service_dir), str(exported)])
        message = str(excinfo.value)
        assert message.startswith("repro: error:") and "\n" not in message
        assert list((service_dir / "spool" / "artifacts").iterdir()) == []
        assert not (service_dir / "spool" / "manifest.jsonl").exists()
        assert capsys.readouterr().out == ""

    def test_bad_week_label_is_a_clean_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(
                [
                    "service", "run-once",
                    "--dir", str(tmp_path / "svc"),
                    "--first-week", "definitely-not-a-week",
                ]
            )
        message = str(excinfo.value)
        assert message.startswith("repro: error:")
        assert not (tmp_path / "svc").exists()  # failed before touching disk

    def test_empty_population_is_a_clean_error(self, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            main(
                [
                    "service", "run-once",
                    "--dir", str(tmp_path / "svc"),
                    "--czds", "0",
                    "--toplist", "0",
                ]
            )
        assert str(excinfo.value).startswith("repro: error:")
