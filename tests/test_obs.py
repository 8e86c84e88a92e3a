"""The observability plane: the trace log, the profiler, SLOs.

The span contract under test — a seeded campaign's ``trace.jsonl`` is a
pure function of the seed, byte-identical at any worker count, and
crash-resume reuses span ids instead of minting duplicates — is
``repro.telemetry``'s one log (``Telemetry.tracer``).  ``repro.obs``
holds its consumers: the SLO engine is tested as the pure function it
is (snapshot in, report out), and the API surfaces (``/v1/status``,
``/v1/spans``) against a live threaded server.
"""

from __future__ import annotations

import io
import itertools
import json
import threading
import time
import urllib.error
import urllib.request
from contextlib import redirect_stdout

import pytest

from repro.cli import main
from repro.obs import (
    HealthEngine,
    PhaseProfiler,
    SLOSpec,
    default_service_slos,
    parse_slo_specs,
)
from repro.service import CampaignDaemon, ServiceConfig, ServiceState, build_server
from repro.telemetry import (
    Telemetry,
    Tracer,
    read_trace,
    render_summary,
    span_id_for,
    trace_id_for,
    trace_rows,
    write_trace_jsonl,
)
from repro.web.parallel import ParallelScanConfig
from repro.web.scanner import ScanConfig, Scanner

CONFIG = ServiceConfig(
    seed=77,
    czds_domains=140,
    toplist_domains=40,
    first_week="cw19-2023",
    last_week="cw20-2023",
)


def counting_clock():
    """A profiler clock that advances one second per read, so every self
    time is a whole number of reads, exactly."""
    return itertools.count().__next__


def http_get(url: str) -> tuple[int, bytes]:
    try:
        with urllib.request.urlopen(url) as response:
            return response.status, response.read()
    except urllib.error.HTTPError as error:
        return error.code, error.read()


class TestSpanLog:
    """The one trace log (``Telemetry.tracer``): rows, stack, codec."""

    def test_nesting_builds_causal_paths(self):
        log = Tracer()
        with log.span("scan:cw20-2023", domains=2):
            with log.span("domain:a.example") as inner:
                log.event("connection:0", time_ms=12.5, status=200)
                inner.end(12.5)
        assert [record.path for record in log.records] == [
            ("scan:cw20-2023", "domain:a.example", "connection:0"),
            ("scan:cw20-2023", "domain:a.example"),
            ("scan:cw20-2023",),
        ]
        connection, domain, scan = log.records
        assert (connection.start_ms, connection.end_ms) == (12.5, 12.5)
        assert (domain.start_ms, domain.end_ms) == (0.0, 12.5)
        assert domain.path[-1] == "domain:a.example"
        assert scan.attrs == {"domains": 2}
        assert not log._stack

    def test_span_emits_single_row(self):
        log = Tracer()
        with log.span("work", start_ms=5.0, unit="x") as span:
            span.annotate(items=3)
            span.end(9.0)
        (record,) = log.records
        assert (record.start_ms, record.end_ms) == (5.0, 9.0)
        assert record.attrs == {"unit": "x", "items": 3}

    def test_end_is_idempotent(self):
        log = Tracer()
        span = log.span("work")
        span.end(3.0)
        span.end(9.0)
        span.abandon()
        assert len(log.records) == 1
        assert log.records[0].end_ms == 3.0

    def test_exception_abandons_and_restores_the_stack(self):
        log = Tracer()
        with log.span("campaign"):
            with pytest.raises(RuntimeError):
                with log.span("index:feed"):
                    log.event("week:cw20-2023")
                    log.span("leaked")  # never closed by its owner
                    raise RuntimeError("fold crashed")
            assert log._stack == ["campaign"]
            with log.span("index:feed"):  # the retry: same path, same id
                pass
        # The failed step left no row; what its children recorded stays.
        assert [record.path for record in log.records] == [
            ("campaign", "index:feed", "week:cw20-2023"),
            ("campaign", "index:feed"),
            ("campaign",),
        ]

    def test_event_streams_are_separate(self):
        log = Tracer()
        log.event("a", time_ms=1.0, k=1)
        log.event("b", diag=True, shard=0)
        log.span("c", diag=True).end()
        assert [record.path[-1] for record in log.records] == ["a"]
        assert [record.path[-1] for record in log.diag_records] == ["b", "c"]

    def test_absorb_reroots_under_the_open_span(self):
        shard = Tracer()
        shard.span("domain:a").end(1.0)
        shard.span("domain:b").end(2.0)
        shard.event("shard:0", diag=True)
        parent = Tracer()
        with parent.span("scan:cw20-2023"):
            parent.absorb(shard.records, shard.diag_records)
        assert [record.path for record in parent.records] == [
            ("scan:cw20-2023", "domain:a"),
            ("scan:cw20-2023", "domain:b"),
            ("scan:cw20-2023",),
        ]
        assert parent.diag_records[0].path == ("scan:cw20-2023", "shard:0")

    def test_record_diag_skips_the_stack(self):
        """``count``: one flat diag row per (name, attrs), no nesting."""
        log = Tracer()
        with log.span("campaign"):
            log.count("request:/v1/weeks", status=200)
            log.count("request:/v1/weeks", status=200)
        (row,) = log.diag_records
        assert row.path == ("request:/v1/weeks",)
        assert row.attrs == {"status": 200, "count": 2}
        assert log.records[0].path == ("campaign",)

    def test_ids_derive_from_trace_and_path(self):
        trace = trace_id_for("campaign", 7, "cw19-2023")
        log = Tracer()
        with log.span("campaign"):
            log.span("scan:cw19-2023").end()
        rows = trace_rows(log.records, trace)
        child, parent = rows
        assert child["trace"] == parent["trace"] == trace
        assert child["parent"] == parent["span"]
        assert parent["parent"] is None
        assert child["span"] == span_id_for(trace, ("campaign", "scan:cw19-2023"))
        # Re-deriving the same rows yields the same ids (idempotence).
        assert trace_rows(log.records, trace) == rows

    def test_jsonl_roundtrip_assigns_steps(self):
        log = Tracer()
        log.event("x", time_ms=2.0)
        log.event("y", time_ms=1.0)  # local clocks may rewind
        out = io.StringIO()
        assert write_trace_jsonl(log.records, "feed", out) == 2
        loaded, skipped = read_trace(io.StringIO(out.getvalue()))
        assert skipped == 0
        assert loaded == trace_rows(log.records, "feed")
        assert [row["step"] for row in loaded] == [0, 1]
        assert [row["start_ms"] for row in loaded] == [2.0, 1.0]
        assert set(loaded[0]) == {
            "step", "trace", "span", "parent", "name", "path",
            "start_ms", "end_ms", "attrs",
        }

    def test_render_summary_collapses_siblings(self):
        log = Tracer()
        with log.span("scan:cw20-2023"):
            for name in ("a", "b", "c"):
                log.span(f"domain:{name}").end(5.0)
        text = render_summary({}, trace_rows(log.records, "feed"))
        assert "domain x3" in text
        assert "stage latency" in text


class TestScanSpans:
    @pytest.fixture(scope="class")
    def targets(self, tiny_population):
        return tiny_population.domains[:60]

    def _scan(self, population, targets, workers, out_dir, checkpoint_dir=None):
        telemetry = Telemetry()
        Scanner(
            population,
            ScanConfig(),
            parallel=ParallelScanConfig(workers=workers, chunk_size=20),
            telemetry=telemetry,
        ).scan(
            week_label="cw20-2023",
            ip_version=4,
            domains=targets,
            checkpoint_dir=checkpoint_dir,
        )
        return telemetry, telemetry.save(out_dir)

    def test_span_log_identical_across_worker_counts(
        self, tiny_population, targets, tmp_path
    ):
        """The tentpole acceptance: equal seeds, any sharding,
        byte-identical deterministic trace."""
        _, seq = self._scan(tiny_population, targets, 1, tmp_path / "w1")
        _, par = self._scan(tiny_population, targets, 4, tmp_path / "w4")
        assert seq["trace"].read_bytes() == par["trace"].read_bytes()
        # The diag stream is where sharding may (and does) differ.
        diag = par["diag"].read_text(encoding="utf-8")
        assert "shard:" in diag

    def test_crash_resume_reuses_ids_without_duplicates(
        self, tiny_population, targets, tmp_path
    ):
        full, _ = self._scan(tiny_population, targets, 1, tmp_path / "full")
        reference = {
            row["span"]: row["path"]
            for row in trace_rows(full.tracer.records, full.tracer.trace_id)
        }
        ckpt = tmp_path / "ckpt"
        self._scan(tiny_population, targets, 2, tmp_path / "first", str(ckpt))
        shards = sorted(ckpt.glob("*/shard-*.cbr"))  # the scan's own directory
        assert len(shards) >= 2
        shards[1].unlink()  # the "crash": one shard lost
        resumed, _ = self._scan(
            tiny_population, targets, 3, tmp_path / "resumed", str(ckpt)
        )
        rows = trace_rows(resumed.tracer.records, resumed.tracer.trace_id)
        ids = [row["span"] for row in rows]
        assert len(ids) == len(set(ids)), "duplicate span ids after resume"
        # Content-derived ids: every resumed span is the same logical
        # step (same id, same causal path) as in the uninterrupted run.
        for row in rows:
            assert reference[row["span"]] == row["path"]


    def test_crashed_then_retried_scan_logs_an_uninterrupted_scans_spans(
        self, tiny_population, targets, tmp_path, monkeypatch
    ):
        """A scan that raises leaves neither its span nor its profiler
        phase open, so a retry on the same scanner and telemetry — what
        the campaign daemon does after a failed tick — records the span
        log of a scan that never crashed."""
        _, clean = self._scan(tiny_population, targets, 1, tmp_path / "clean")

        telemetry = Telemetry()
        telemetry.profiler = PhaseProfiler(clock=counting_clock())
        scanner = Scanner(
            tiny_population,
            ScanConfig(),
            parallel=ParallelScanConfig(workers=1, chunk_size=20),
            telemetry=telemetry,
        )
        real = scanner.scan_shard

        def crash_in_second_shard(domains, *args):
            if domains[0] is targets[20]:
                raise RuntimeError("simulated crash")
            return real(domains, *args)

        monkeypatch.setattr(scanner, "scan_shard", crash_in_second_shard)
        with pytest.raises(RuntimeError, match="simulated crash"):
            scanner.scan(domains=targets, checkpoint_dir=tmp_path / "ckpt")
        assert telemetry.tracer._stack == []
        assert telemetry.profiler._stack == []
        monkeypatch.setattr(scanner, "scan_shard", real)
        scanner.scan(domains=targets, checkpoint_dir=tmp_path / "ckpt")
        assert scanner.last_scan_stats["units"] == 2  # shard 0 came from disk
        retried = telemetry.save(tmp_path / "retried")
        assert retried["trace"].read_bytes() == clean["trace"].read_bytes()
        assert telemetry.profiler._stack == []


class TestCampaignSpans:
    def _run_once(self, directory, workers):
        telemetry = Telemetry()
        config = ServiceConfig(
            seed=CONFIG.seed,
            czds_domains=CONFIG.czds_domains,
            toplist_domains=CONFIG.toplist_domains,
            first_week=CONFIG.first_week,
            last_week=CONFIG.last_week,
            workers=workers,
        )
        daemon = CampaignDaemon(directory, config, telemetry=telemetry)
        daemon.run_once()
        return daemon, telemetry

    def test_pipeline_spans_parent_to_the_campaign_root(self, tmp_path):
        daemon, telemetry = self._run_once(tmp_path / "svc", 1)
        rows = trace_rows(telemetry.tracer.records, telemetry.tracer.trace_id)
        assert telemetry.tracer.trace_id == daemon.campaign_trace_id()
        assert len({row["span"] for row in rows}) == len(rows)
        by_id = {row["span"]: row for row in rows}
        roots = [row for row in rows if row["parent"] is None]
        assert [row["name"] for row in roots] == ["campaign"]
        for row in rows:
            walk = row
            while walk["parent"] is not None:
                walk = by_id[walk["parent"]]
            assert walk["name"] == "campaign"
        stages = {row["name"].partition(":")[0] for row in rows}
        assert {
            "campaign", "scan", "domain", "connection", "merge", "spool",
            "index", "week", "status",
        } == stages

    def test_campaign_span_log_identical_across_worker_counts(self, tmp_path):
        _, seq = self._run_once(tmp_path / "w1", 1)
        _, par = self._run_once(tmp_path / "w2", 2)
        seq_paths = seq.save(tmp_path / "tele1")
        par_paths = par.save(tmp_path / "tele2")
        assert (
            seq_paths["trace"].read_bytes() == par_paths["trace"].read_bytes()
        )


class TestProfiler:
    def test_self_time_excludes_the_children(self):
        clock = counting_clock()
        profiler = PhaseProfiler(clock=clock, sample_interval_ms=1000.0)
        with profiler.phase("scan"):  # read 0
            with profiler.phase("exchange"):  # reads 1 .. 4
                clock(), clock()
            with profiler.phase("exchange"):  # reads 5 .. 6
                pass
        # scan: 7 s elapsed at read 7, 4 s of it in its children.
        assert profiler.self_ms == {
            ("scan", "exchange"): 4000.0,
            ("scan",): 3000.0,
        }
        assert profiler.total_ms == 7000.0
        assert profiler.samples()[("scan", "exchange")] == 4
        assert profiler.collapsed() == ["scan 3", "scan;exchange 4"]

    def test_wall_mode_attributes_self_time(self):
        ticks = iter([0.0, 0.010, 0.040, 0.050])  # seconds
        profiler = PhaseProfiler(clock=lambda: next(ticks))
        with profiler.phase("outer"):
            with profiler.phase("inner"):
                pass
        # inner: 40ms - 10ms = 30ms; outer: (50-0) - 30 child = 20ms.
        assert profiler.self_ms[("outer", "inner")] == pytest.approx(30.0)
        assert profiler.self_ms[("outer",)] == pytest.approx(20.0)
        assert profiler.coverage(50.0) == pytest.approx(1.0)

    def test_non_lifo_close_is_an_error(self):
        profiler = PhaseProfiler(clock=counting_clock())
        outer = profiler.phase("outer").__enter__()
        inner = profiler.phase("inner").__enter__()
        with pytest.raises(RuntimeError, match="LIFO"):
            outer.__exit__(None, None, None)
        inner.__exit__(None, None, None)

    def test_scan_profile_is_deterministic_and_covers_the_exchange(
        self, tiny_population
    ):
        targets = tiny_population.domains[:40]

        def profiled():
            telemetry = Telemetry()
            telemetry.profiler = PhaseProfiler(clock=counting_clock())
            Scanner(tiny_population, ScanConfig(), telemetry=telemetry).scan(
                week_label="cw20-2023", ip_version=4, domains=targets
            )
            return telemetry.profiler

        first, second = profiled(), profiled()
        assert first.self_ms == second.self_ms
        assert ("scan", "scan.domain", "exchange") in first.self_ms


class TestSLOEngine:
    def _snapshot(self, **gauges):
        return {"counters": {}, "gauges": gauges, "histograms": {}}

    def test_burn_ladder(self):
        spec = SLOSpec("lag", "max_value", "backlog", objective=10.0)
        engine = HealthEngine([spec])
        for value, verdict in ((5.0, "ok"), (15.0, "degraded"), (25.0, "failing")):
            report = engine.evaluate(self._snapshot(backlog=value))
            assert report.overall == verdict
            assert report.results[0].verdict == verdict
        assert engine.evaluate(self._snapshot(backlog=25.0)).exit_code == 2
        assert engine.evaluate(self._snapshot(backlog=15.0)).exit_code == 1

    def test_min_value_inverts_the_burn(self):
        spec = SLOSpec("rate", "min_value", "speed", objective=100.0)
        engine = HealthEngine([spec])
        assert engine.evaluate(self._snapshot(speed=200.0)).overall == "ok"
        assert engine.evaluate(self._snapshot(speed=60.0)).overall == "degraded"
        assert engine.evaluate(self._snapshot(speed=0.0)).overall == "failing"

    def test_missing_data_never_degrades_but_alone_is_no_data(self):
        specs = [
            SLOSpec("a", "max_value", "present", objective=1.0),
            SLOSpec("b", "max_value", "absent", objective=1.0),
        ]
        report = HealthEngine(specs).evaluate(self._snapshot(present=0.0))
        assert report.overall == "ok"
        assert report.results[1].verdict == "no_data"
        empty = HealthEngine(specs).evaluate(self._snapshot())
        assert empty.overall == "no_data"
        assert empty.exit_code == 0

    def test_max_ratio_judges_the_whole_snapshot(self):
        spec = SLOSpec(
            "errors", "max_ratio", "err", total="total", objective=0.05
        )
        report = HealthEngine([spec]).evaluate(
            {"counters": {"err": 24.0, "total": 120.0}, "gauges": {}}
        )
        assert report.overall == "failing"
        assert report.results[0].actual == 0.2

    def test_max_ratio_missing_numerator_counts_as_zero(self):
        spec = SLOSpec(
            "errors", "max_ratio", "err", total="total", objective=0.05
        )
        report = HealthEngine([spec]).evaluate(
            {"counters": {"total": 50.0}, "gauges": {}}
        )
        assert report.results[0].verdict == "ok"
        assert report.results[0].actual == 0.0

    def test_labelled_series_sum_under_the_bare_name(self):
        spec = SLOSpec("hs", "max_value", "handshakes", objective=10.0)
        snapshot = {
            "counters": {
                "handshakes{outcome=success}": 4.0,
                "handshakes{outcome=failure}": 3.0,
            },
            "gauges": {},
        }
        assert HealthEngine([spec]).evaluate(snapshot).results[0].actual == 7.0

    def test_quantile_max_reads_the_histogram_summary(self):
        spec = SLOSpec(
            "p99", "quantile_max", "api.request_ms", objective=10.0, quantile=99
        )
        snapshot = {
            "counters": {},
            "gauges": {},
            "histograms": {"api.request_ms": {"count": 5, "p99_ms": 30.0}},
        }
        assert HealthEngine([spec]).evaluate(snapshot).overall == "failing"

    def test_parse_rejects_malformed_specs(self):
        with pytest.raises(ValueError, match="not valid JSON"):
            parse_slo_specs("{nope")
        with pytest.raises(ValueError, match="JSON list"):
            parse_slo_specs("{}")
        with pytest.raises(ValueError, match="missing keys"):
            parse_slo_specs('[{"name": "x"}]')
        with pytest.raises(ValueError, match="unknown kind"):
            parse_slo_specs(
                '[{"name": "x", "kind": "meh", "metric": "m", "objective": 1}]'
            )
        specs = parse_slo_specs(
            '[{"name": "x", "kind": "max_value", "metric": "m", "objective": 2}]'
        )
        assert specs == [SLOSpec("x", "max_value", "m", 2.0)]

    def test_default_slos_evaluate_against_live_names(self):
        names = {spec.name for spec in default_service_slos()}
        assert {"scan-throughput", "indexer-lag", "api-p99"} <= names


class TestStatusEndpoints:
    @pytest.fixture(scope="class")
    def service(self, tmp_path_factory):
        telemetry = Telemetry()
        daemon = CampaignDaemon(
            tmp_path_factory.mktemp("svc-obs"), CONFIG, telemetry=telemetry
        )
        daemon.run_once()
        state = ServiceState(daemon.spool, daemon.indexer, telemetry=telemetry)
        server = build_server(state)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        port = server.server_address[1]
        yield daemon, f"http://127.0.0.1:{port}"
        server.shutdown()
        server.server_close()

    def test_status_reports_slo_verdicts(self, service):
        _, base = service
        status, body = http_get(f"{base}/v1/status")
        assert status == 200
        payload = json.loads(body)
        assert payload["overall"] in ("ok", "degraded", "failing", "no_data")
        by_name = {row["name"]: row for row in payload["slos"]}
        assert by_name["indexer-lag"]["verdict"] == "ok"
        assert by_name["campaign-backlog"]["actual"] == 0.0

    def test_spans_cover_the_pipeline_with_one_root(self, service):
        daemon, base = service
        status, body = http_get(f"{base}/v1/spans")
        assert status == 200
        payload = json.loads(body)
        assert payload["trace"] == daemon.campaign_trace_id()
        roots = [row for row in payload["spans"] if row["parent"] is None]
        assert [row["name"] for row in roots] == ["campaign"]
        stages = {row["name"].partition(":")[0] for row in payload["spans"]}
        assert {"campaign", "scan", "spool", "index", "status"} <= stages

    def test_requests_land_in_histogram_and_diag_spans(self, service):
        _, base = service
        http_get(f"{base}/v1/weeks")
        status, body = http_get(f"{base}/v1/metrics")
        assert status == 200
        snapshot = json.loads(body)["metrics"]
        assert snapshot["histograms"]["api.request_ms"]["count"] >= 1
        _, spans_body = http_get(f"{base}/v1/spans")
        diag_names = {row["name"] for row in json.loads(spans_body)["diag"]}
        assert "request:/v1/weeks" in diag_names


class TestObsCli:
    @pytest.fixture(scope="class")
    def service_dir(self, tmp_path_factory):
        directory = tmp_path_factory.mktemp("svc-cli")
        telemetry = Telemetry()
        CampaignDaemon(directory, CONFIG, telemetry=telemetry).run_once()
        telemetry.save(directory / "telemetry")
        return directory

    def test_status_dir_renders_and_gates(self, service_dir):
        out = io.StringIO()
        with redirect_stdout(out):
            code = main(["status", "--dir", str(service_dir), "--exit-code"])
        assert code == 0
        text = out.getvalue()
        assert text.startswith("health: ok")
        assert "indexer-lag" in text

    def test_status_json_is_structured(self, service_dir):
        out = io.StringIO()
        with redirect_stdout(out):
            code = main(["status", "--dir", str(service_dir), "--json"])
        assert code == 0
        payload = json.loads(out.getvalue())
        assert payload["overall"] == "ok"

    def test_status_custom_slo_gate_fails(self, service_dir, tmp_path):
        spec_path = tmp_path / "slo.json"
        spec_path.write_text(
            json.dumps(
                [
                    {
                        "name": "impossible",
                        "kind": "max_value",
                        "metric": "service.artifacts_spooled",
                        "objective": 0,
                    }
                ]
            ),
            encoding="utf-8",
        )
        out = io.StringIO()
        with redirect_stdout(out):
            code = main(
                [
                    "status", "--dir", str(service_dir),
                    "--slo", str(spec_path), "--exit-code",
                ]
            )
        assert code == 2
        assert "failing" in out.getvalue()

    def test_status_missing_dir_errors(self, tmp_path):
        with pytest.raises(SystemExit, match="no service directory"):
            main(["status", "--dir", str(tmp_path / "nope")])

    def test_summarize_appends_the_span_tree(self, service_dir, capsys):
        code = main(["status", "--dir", str(service_dir)])
        assert code == 0
        text = capsys.readouterr().out
        assert "trace:" in text
        assert "\n  campaign\n    index x2\n      week x2\n" in text
        assert "      domain x360\n        connection x" in text
        assert "stage latency (simulated ms):\n  domain " in text

    #: ``repro profile --czds 40 --toplist 10 --seed 9`` on a clock that
    #: advances one second per read: each row counts the reads in its
    #: phase (the scanner's own stderr timer reads the same clock).
    PROFILE = [
        "repro profile: 153000.000 ms attributed across 4 phases",
        "   49.67%   76000.000 ms  scan;scan.domain",
        "   33.33%   51000.000 ms  scan",
        "    8.50%   13000.000 ms  scan;scan.domain;classify",
        "    8.50%   13000.000 ms  scan;scan.domain;exchange",
    ]
    PROFILE_ARGV = ["profile", "--czds", "40", "--toplist", "10", "--seed", "9"]

    def test_profile_reports_phases(self, capsys, monkeypatch):
        monkeypatch.setattr(time, "perf_counter", counting_clock())
        assert main(self.PROFILE_ARGV) == 0
        captured = capsys.readouterr()
        assert captured.out.splitlines() == self.PROFILE
        assert "coverage: 98.1% of 156000 ms scan wall time" in captured.err

    def test_profile_writes_collapsed_stacks(self, tmp_path, capsys, monkeypatch):
        out_path = tmp_path / "stacks.txt"
        monkeypatch.setattr(time, "perf_counter", counting_clock())
        assert main(
            [*self.PROFILE_ARGV, "--sample-interval-ms", "1000", "--out", str(out_path)]
        ) == 0
        capsys.readouterr()
        assert out_path.read_text(encoding="utf-8").splitlines() == [
            "scan 51",
            "scan;scan.domain 76",
            "scan;scan.domain;classify 13",
            "scan;scan.domain;exchange 13",
        ]

    def test_status_url_unreachable_server_errors(self):
        with pytest.raises(SystemExit, match="cannot reach"):
            main(["status", "--url", "http://127.0.0.1:1"])
