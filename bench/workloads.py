"""The six workloads: what each sets up, repeats, checks and counts.

All are closed loops driven by one thread: the next operation starts when
the previous one has returned.  A workload is measured from the outside —
it calls the public functions of ``src/repro`` and reads the counters
they export — and the same code runs traced and untraced: every call
into a layer sits in ``tracer.span("<layer>.<call>")``, which is a no-op
unless the run is traced.
"""

from __future__ import annotations

import hashlib
import io
import json
import shutil
import threading
import time
from collections import Counter
from contextlib import ExitStack, contextmanager
from itertools import islice
from pathlib import Path

from bench import inputs, layers
from bench.harness import Meter, Tracer, http_get, median, nproc, one_core, rate

from repro.analysis import AnalysisEngine, build_record_folds
from repro.analysis.query import Eq, QueryStats, filter_batch, parse_where
from repro.artifacts import open_query_source, open_record_batches
from repro.artifacts.cbr import write_records_cbr
from repro.faults import (
    BreakerPolicy,
    ResilienceConfig,
    RetryPolicy,
    parse_fault_plan,
    scan_fingerprint,
)
from repro.internet.population import PopulationConfig, build_population
from repro.monitor import (
    MonitorConfig,
    MonitorPipeline,
    TrafficConfig,
    TrafficMux,
    WindowConfig,
)
from repro.netsim.migration import parse_migration_plan
from repro.service import (
    CampaignDaemon,
    ServiceConfig,
    ServiceState,
    SpoolStore,
    WeekIndexer,
    build_server,
)
from repro.service.spool import scan_digest
from repro.telemetry import Telemetry
from repro.web.parallel import ParallelScanConfig
from repro.web.scanner import ScanConfig, Scanner

SCALES = {
    "full": {
        "campaign_week": {
            "toplist": 100, "czds": 700, "warm": (30, 170),
            "first_week": "cw19-2023", "last_week": "cw20-2023", "reads": 100,
        },
        "campaign_chaos": {
            "toplist": 100, "czds": 700, "warm": (30, 170),
            "week": "cw20-2023", "reads": 100,
        },
        "archive_query": {
            "weeks": 26, "per_week": 300, "chunk_records": 256,
            "where_per_pass": 14, "points_per_pass": 28,
        },
        "service_readwrite": {"weeks": 20, "per_week": 500, "reads": 250, "lookups": 12},
        "monitor_steady": {
            "flows": 240, "tcp_flows": 0, "arrival_ms": 8_400.0, "datagrams": 12_000,
            "max_flows": 10_000, "burst": 1_000, "migration": None,
        },
        "monitor_churn": {
            "flows": 240, "tcp_flows": 24, "arrival_ms": 8_400.0, "datagrams": 12_000,
            "max_flows": 64, "burst": 1_000, "migration": inputs.CHURN_MIGRATION,
        },
    },
    "smoke": {
        "campaign_week": {
            "toplist": 10, "czds": 50, "warm": (4, 16),
            "first_week": "cw19-2023", "last_week": "cw20-2023", "reads": 10,
        },
        "campaign_chaos": {
            "toplist": 10, "czds": 50, "warm": (4, 16),
            "week": "cw20-2023", "reads": 10,
        },
        "archive_query": {
            "weeks": 6, "per_week": 100, "chunk_records": 64,
            "where_per_pass": 4, "points_per_pass": 6,
        },
        "service_readwrite": {"weeks": 3, "per_week": 100, "reads": 20, "lookups": 2},
        "monitor_steady": {
            "flows": 24, "tcp_flows": 0, "arrival_ms": 1_000.0, "datagrams": 1_000,
            "max_flows": 10_000, "burst": 200, "migration": None,
        },
        "monitor_churn": {
            "flows": 24, "tcp_flows": 4, "arrival_ms": 1_000.0, "datagrams": 1_000,
            "max_flows": 8, "burst": 200, "migration": inputs.CHURN_MIGRATION,
        },
    },
}

SUMMARY_ROUTES = ("adoption", "adoption_week", "compliance_week", "analyze_week", "weeks")


class Checks:
    """Operations attempted and failed; a failure never aborts the run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def expect(self, ok: bool, message: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.notes) < 50:
                self.notes.append(message)
        return ok

    @contextmanager
    def operation(self, label: str):
        """Count the body as one operation; an exception is a failure."""
        self.attempted += 1
        try:
            yield
        except Exception as error:  # the run must go on and report it
            self.failed += 1
            if len(self.notes) < 50:
                self.notes.append(f"{label}: {error!r}")


class Workload:
    """Common state: samples that every workload reports the same way."""

    name = ""

    def __init__(self, seed: int, params: dict, meter: Meter, tracer: Tracer,
                 checks: Checks, workdir: Path, traced: bool) -> None:
        self.seed = seed
        #: A traced run pairs every traced round with an untraced one.
        self.traced = traced
        self.params = params
        self.meter = meter
        self.tracer = tracer
        self.checks = checks
        self.workdir = workdir
        #: Per round: (work units, reference seconds, reference CPU seconds).
        self.work: list[tuple[float, float, float]] = []
        #: The workload's repeated user-visible operation, reference seconds.
        self.ops: list[float] = []
        #: Per round: (traced?, reference seconds) — the tracing overhead.
        self.round_walls: list[tuple[bool, float]] = []
        #: Raw seconds of traced rounds, for span coverage, and their speeds.
        self.traced_raw_s = 0.0
        self.traced_speeds: list[float] = []
        self.counts: Counter = Counter()
        self.rounds_done = 0

    def setup(self) -> None:
        raise NotImplementedError

    def teardown(self) -> None:
        pass

    def round(self) -> None:
        raise NotImplementedError

    def finish(self) -> None:
        """Checks that need the whole run, after the last round."""

    def layer_metrics(self, budget_s: float) -> dict[str, float]:
        """Traced runs only: this workload's per-layer numbers."""
        return {}

    def _account(self, timing) -> None:
        if self.tracer.enabled:
            self.traced_raw_s += timing.raw_s
            self.traced_speeds.append(timing.speed)

    def span_seconds(self, raw_seconds: list[float]) -> float:
        """Median of span-derived seconds, at reference speed."""
        return median(raw_seconds) * (median(self.traced_speeds) or 1.0)

    def _note_round(self, timing) -> None:
        self.round_walls.append((self.tracer.enabled, timing.ref_s))
        self._account(timing)
        self.rounds_done += 1
        self.tracer.repetition = self.rounds_done

    def fresh_dir(self, label: str) -> Path:
        path = self.workdir / f"{label}-{self.rounds_done}-{len(self.meter.rounds)}"
        path.mkdir(parents=True)
        return path


# ----------------------------------------------------------------------
# Serving: the in-process query API every pipeline workload ends in.
# ----------------------------------------------------------------------


class Served:
    """A live ``build_server`` over one spool + index pair."""

    def __init__(self, spool: SpoolStore, indexer: WeekIndexer) -> None:
        self.telemetry = Telemetry()
        self.state = ServiceState(spool, indexer, telemetry=self.telemetry)
        self.server = build_server(self.state)
        self.port = self.server.server_address[1]
        # A short poll only so that close() returns promptly.
        self.thread = threading.Thread(
            target=self.server.serve_forever, args=(0.02,), daemon=True
        )
        self.thread.start()
        self.non200 = 0

    def get(self, path: str) -> bytes:
        status, body = http_get(self.port, path)
        if status != 200:
            self.non200 += 1
            raise RuntimeError(f"GET {path} -> {status}")
        return body

    def counter(self, name: str) -> int:
        return layers.counter_sum(self.telemetry, name)

    def close(self) -> None:
        self.server.shutdown()
        self.server.server_close()
        self.thread.join(timeout=10)

    def __enter__(self) -> "Served":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def summary_paths(weeks: list[str], turn: int) -> dict[str, str]:
    """The five summary routes, rotating through the indexed weeks."""
    week = weeks[turn % len(weeks)]
    return {
        "adoption": "/v1/adoption",
        "adoption_week": f"/v1/adoption?week={week}",
        "compliance_week": f"/v1/compliance?week={week}",
        "analyze_week": f"/v1/analyze?week={week}&section=versions",
        "weeks": "/v1/weeks",
    }


def timed_reads(served: Served, weeks: list[str], count: int, checks: Checks,
                tracer: Tracer) -> list[tuple[str, float]]:
    """``count`` summary reads, round-robin over the routes; (route, raw s)."""
    samples = []
    for turn in range(count):
        route = SUMMARY_ROUTES[turn % len(SUMMARY_ROUTES)]
        path = summary_paths(weeks, turn // len(SUMMARY_ROUTES))[route]
        with checks.operation(f"GET {path}"):
            with tracer.span("service.get"):
                start = time.perf_counter()
                served.get(path)
                samples.append((route, time.perf_counter() - start))
    return samples


def spooled_records(spool: SpoolStore) -> tuple[int, int, list[str]]:
    """(records, bytes, fingerprints) over every artifact in the spool."""
    records = size = 0
    fingerprints = []
    for entry in spool.artifacts():
        fingerprints.append(hashlib.sha256(entry.path.read_bytes()).hexdigest())
        size += entry.size
        with open_record_batches(str(entry.path)) as source:
            for batch in source.batches():
                records += len(batch)
    return records, size, fingerprints


# ----------------------------------------------------------------------
# campaign_week / campaign_chaos: domains in -> answer out.
# ----------------------------------------------------------------------


class Campaign(Workload):
    """Shared repetition: pipeline to a verified answer, then reads.

    Scan cost per domain is heavy-tailed (a tenth of the QUIC domains do a
    fifth of the events), so one population of this size is +-17 % cheaper
    or dearer than the next.  Repetitions therefore cycle through eight
    populations of the seed; the run's median sees most of them, and a
    population that comes round again must give the same artifact bytes.
    """

    POPULATIONS = 8

    def _pipeline(self, directory: Path, toplist: int, czds: int, seed: int):
        """Population of that size and seed -> (spool, indexer, domain-scans)."""
        raise NotImplementedError

    def setup(self) -> None:
        self.populations: dict[int, object] = {}
        self.fingerprints: dict[int, list[str]] = {}
        #: Sampled qlog documents of the run's own scans (chaos only).
        self.qlog_documents: list[dict] = []
        self.population = self._population(0)
        self.workers = min(2, nproc())
        self.artifact_bytes = self.artifact_records = 0
        # Warm-up: the whole pipeline on a small population — through the
        # pool, whose first fork pays one-off imports.
        directory = self.fresh_dir("warm")
        spool, indexer, _ = self._pipeline(directory, *self.params["warm"], self.seed)
        with Served(spool, indexer) as served:
            served.get("/v1/adoption")
        shutil.rmtree(directory, ignore_errors=True)

    def _population(self, draw: int):
        if draw not in self.populations:
            p = self.params
            self.populations[draw] = inputs.typical_population(
                self.seed, draw, p["toplist"], p["czds"]
            )
        return self.populations[draw]

    def round(self) -> None:
        # A traced run scans each population twice, once traced, once not.
        turn = self.rounds_done // 2 if self.traced else self.rounds_done
        draw = turn % self.POPULATIONS
        self.population = self._population(draw)
        self.meter.idle()
        p = self.params
        directory = self.fresh_dir("campaign")
        served = None
        scans = 0
        with self.meter.round() as timing:
            with self.checks.operation(f"{self.name} pipeline"):
                spool, indexer, scans = self._pipeline(
                    directory, p["toplist"], p["czds"], self.population.config.seed
                )
                with self.tracer.span("service.build_server"):
                    served = Served(spool, indexer)
                with self.tracer.span("service.get"):
                    answer = json.loads(served.get("/v1/adoption"))
        self._note_round(timing)
        if served is None:
            return
        try:
            self.work.append((scans, timing.ref_s, timing.ref_cpu_s))
            weeks = indexer.weeks()
            for path in summary_paths(weeks, 0).values():
                served.get(path)  # the first read of a route loads its summary
            self.meter.idle()
            with one_core(served.thread), self.meter.round() as reading:
                raw = timed_reads(served, weeks, self.params["reads"], self.checks, self.tracer)
            self._account(reading)
            self.ops.extend(reading.ref(sample) for _, sample in raw)
            self.checks.expect(
                served.counter("query.chunks_total") == 0,
                "summary routes decoded cbr chunks",
            )
            records, size, fingerprints = spooled_records(spool)
            self.checks.expect(
                answer.get("connections_total") == records,
                f"/v1/adoption counts {answer.get('connections_total')} "
                f"connections, spool holds {records}",
            )
            self.artifact_bytes, self.artifact_records = size, records
            self.checks.expect(
                self.fingerprints.setdefault(draw, fingerprints) == fingerprints,
                f"artifact sha256 of population {draw} differs between repetitions",
            )
            self.counts["service.requests_non200"] += served.non200
        finally:
            served.close()
            self.meter.idle()
            shutil.rmtree(directory, ignore_errors=True)

    # -- the decomposed pipeline both campaign workloads trace ----------

    def _spool_and_fold(self, directory: Path, datasets):
        tracer = self.tracer
        spool = SpoolStore(directory / "spool")
        indexer = WeekIndexer(directory / "index")
        for dataset in datasets:
            records = dataset.connection_records()
            if len(self.qlog_documents) < 64:
                self.qlog_documents.extend(r.qlog for r in records if r.qlog is not None)
            buffer = io.BytesIO()
            with tracer.span("artifacts.write_records_cbr"):
                write_records_cbr(records, buffer)
            with tracer.span("service.submit_bytes"):
                spool.submit_bytes(buffer.getvalue(), source=f"bench:{dataset.week_label}")
        with tracer.span("service.fold_pending"):
            indexer.fold_pending(spool)
        return spool, indexer

    def _campaign_layers(self, budget_s: float, config: ScanConfig, week: str) -> dict:
        """Scan-side layer numbers from an instrumented inline scan."""
        corpus = layers.ScanCorpus(
            self.population, config, week, self.workers, self.qlog_documents,
            self.meter, self.tracer, self.workdir, budget_s,
        )
        metrics = corpus.metrics()
        metrics["web.scan_self_s"] = self.span_seconds(corpus.per_repetition("web.scan"))
        metrics["internet.build_population_s"] = self.span_seconds(
            self.tracer.durations("internet.build_population")
        )
        metrics["artifacts.bytes_per_record"] = rate(self.artifact_bytes, self.artifact_records)
        return metrics


class CampaignWeek(Campaign):
    """``CampaignDaemon.run_once`` over two weeks, as a user runs it."""

    name = "campaign_week"

    def _pipeline(self, directory: Path, toplist: int, czds: int, seed: int):
        p = self.params
        config = ServiceConfig(
            seed=seed, toplist_domains=toplist, czds_domains=czds,
            first_week=p["first_week"], last_week=p["last_week"], workers=self.workers,
        )
        weeks = [week.label for week in config.campaign().weeks()]
        scans = (toplist + czds) * len(weeks)
        if not self.tracer.enabled:
            with CampaignDaemon(directory, config) as daemon:
                daemon.run_once()
            return daemon.spool, daemon.indexer, scans
        # Traced: the same steps run_once takes, each in its own span.
        tracer = self.tracer
        with tracer.span("internet.build_population"):
            population = build_population(
                PopulationConfig(toplist_domains=toplist, czds_domains=czds, seed=seed)
            )
        datasets = []
        with Scanner(population, parallel=ParallelScanConfig(workers=self.workers)) as scanner:
            for week in weeks:
                digest = scan_digest(
                    scan_fingerprint(
                        seed, week, config.ip_version, 0,
                        population.domains, repr(scanner.config),
                    )
                )
                with tracer.span("web.scan"):
                    datasets.append(
                        scanner.scan(
                            week_label=week, ip_version=config.ip_version,
                            checkpoint_dir=directory / "spool" / "checkpoints" / digest,
                        )
                    )
        spool, indexer = self._spool_and_fold(directory, datasets)
        return spool, indexer, scans

    def layer_metrics(self, budget_s: float) -> dict[str, float]:
        return self._campaign_layers(budget_s, ScanConfig(), self.params["last_week"])


class CampaignChaos(Campaign):
    """The library path under faults, retries, breaker, qlog, checkpoints."""

    name = "campaign_chaos"

    def _scan_config(self) -> ScanConfig:
        return ScanConfig(
            faults=parse_fault_plan(inputs.CHAOS_FAULTS),
            resilience=ResilienceConfig(
                connect_timeout_ms=20_000,
                retry=RetryPolicy(max_attempts=2),
                breaker=BreakerPolicy(4, 6),
            ),
            qlog_sample_rate=0.05,
        )

    def _pipeline(self, directory: Path, toplist: int, czds: int, seed: int):
        p = self.params
        tracer = self.tracer
        with tracer.span("internet.build_population"):
            population = build_population(
                PopulationConfig(toplist_domains=toplist, czds_domains=czds, seed=seed)
            )
        parallel = ParallelScanConfig(workers=self.workers, chunk_size=128)
        with Scanner(population, self._scan_config(), parallel) as scanner:
            with tracer.span("web.scan"):
                dataset = scanner.scan(
                    week_label=p["week"], checkpoint_dir=directory / "ckpt"
                )
            spool, indexer = self._spool_and_fold(directory, [dataset])
            # The resume: every shard is on disk, nothing is scanned again,
            # and the artifact must come out byte for byte the same.
            with tracer.span("faults.checkpoint_resume"):
                resumed = scanner.scan(
                    week_label=p["week"], checkpoint_dir=directory / "ckpt"
                )
        first = inputs.encode_cbr(dataset.connection_records())
        again = inputs.encode_cbr(resumed.connection_records())
        self.checks.expect(first == again, "resumed scan changed the artifact")
        self.checks.expect(
            Counter(r.failure for r in dataset.results)
            == Counter(r.failure for r in resumed.results),
            "failure taxonomy changed on resume",
        )
        return spool, indexer, toplist + czds

    def layer_metrics(self, budget_s: float) -> dict[str, float]:
        metrics = self._campaign_layers(budget_s, self._scan_config(), self.params["week"])
        metrics["faults.checkpoint_resume_s"] = self.span_seconds(
            self.tracer.durations("faults.checkpoint_resume")
        )
        return metrics


# ----------------------------------------------------------------------
# archive_query: full analysis passes beside selective and point reads.
# ----------------------------------------------------------------------


def analyze_all(path: str, tracer: Tracer):
    """One all-section pass over the archive; (results, records, torn chunks)."""
    engine = AnalysisEngine(build_record_folds("all"))
    with ExitStack() as stack:
        with tracer.span("artifacts.open"):
            source = stack.enter_context(
                open_record_batches(
                    path,
                    want_edges_received=engine.needs_edges_received,
                    want_edges_sorted=engine.needs_edges_sorted,
                )
            )
        with tracer.span("analysis.engine_run"):
            results = engine.run(tracer.iterate("artifacts.read_batch", source.batches()))
        return results, source.records_read, source.corrupt_chunks


def analyze_where(path: str, predicate, tracer: Tracer):
    """A ``--where`` analysis through the planner; (results, stats)."""
    engine = AnalysisEngine(build_record_folds("all"))
    stats = QueryStats()
    with ExitStack() as stack:
        with tracer.span("artifacts.open_query"):
            source = stack.enter_context(
                open_query_source(
                    path, predicate, stats=stats,
                    want_edges_received=engine.needs_edges_received
                    or predicate.needs_edges_received,
                    want_edges_sorted=engine.needs_edges_sorted,
                )
            )
        # Not "engine_run": analysis.engine_self_s is the full pass alone.
        with tracer.span("analysis.engine_run_where"):
            results = engine.run(
                tracer.iterate("artifacts.read_batch", source.batches()),
                predicate=predicate, stats=stats,
            )
        return results, stats


def point_lookup(path: str, name: str, tracer: Tracer):
    """All records of one domain, found through the domain index."""
    predicate = Eq("domain", name)
    stats = QueryStats()
    with ExitStack() as stack:
        with tracer.span("artifacts.open_query"):
            source = stack.enter_context(open_query_source(path, predicate, stats=stats))
        with tracer.span("analysis.filter"):
            return [
                record
                for batch in tracer.iterate("artifacts.read_batch", source.batches())
                for record in filter_batch(batch, predicate, stats)
            ]


class ArchiveQuery(Workload):
    name = "archive_query"

    def setup(self) -> None:
        p = self.params
        self.by_week = [
            inputs.week_records(self.seed, offset, p["per_week"])
            for offset in range(p["weeks"])
        ]
        self.records = [record for week in self.by_week for record in week]
        directory = self.fresh_dir("archive")
        self.path = str(directory / "archive.cbr")
        with open(self.path, "wb") as stream:
            write_records_cbr(self.records, stream, chunk_records=p["chunk_records"])
        self.artifact_bytes = Path(self.path).stat().st_size
        # Brute force over the decoded archive: what every pruned read
        # must equal.  Computed once per week, here, outside the clock.
        self.expected_where = [
            AnalysisEngine(build_record_folds("all")).run([week]) for week in self.by_week
        ]
        self.expected_all = AnalysisEngine(build_record_folds("all")).run(self.by_week)
        self.turn = 0
        self.point_ops: list[float] = []
        self.corrupt_chunks = 0
        analyze_all(self.path, self.tracer)  # warm: folds, asdb, codecs

    def teardown(self) -> None:
        shutil.rmtree(Path(self.path).parent, ignore_errors=True)

    def round(self) -> None:
        p = self.params
        checks, tracer = self.checks, self.tracer
        where_raw: list[float] = []
        point_raw: list[float] = []
        looked_up: list[tuple[list, object]] = []
        pass_s = pass_cpu_s = 0.0
        with self.meter.round() as timing:
            with checks.operation("full analysis pass"):
                start, cpu_start = time.perf_counter(), time.process_time()
                results, read, corrupt = analyze_all(self.path, tracer)
                pass_s = time.perf_counter() - start
                pass_cpu_s = time.process_time() - cpu_start
                self.corrupt_chunks += corrupt
                checks.expect(read == len(self.records), "full pass lost records")
                checks.expect(results == self.expected_all, "full pass result differs")
            # Fixed order: one selective analysis, then two point lookups.
            for _ in range(p["where_per_pass"]):
                week = self.turn % p["weeks"]
                predicate = parse_where(f"week == {inputs.week_label(week)}")
                with checks.operation("where query"):
                    start = time.perf_counter()
                    results, stats = analyze_where(self.path, predicate, tracer)
                    where_raw.append(time.perf_counter() - start)
                    checks.expect(
                        results == self.expected_where[week]
                        and stats.records_matched == p["per_week"],
                        f"where week {week} differs from brute force",
                    )
                for lookup in range(p["points_per_pass"] // p["where_per_pass"]):
                    index = (self.turn * 7919 + lookup * 104_729) % len(self.records)
                    wanted = self.records[index]
                    with checks.operation("point lookup"):
                        start = time.perf_counter()
                        matched = point_lookup(self.path, wanted.domain, tracer)
                        point_raw.append(time.perf_counter() - start)
                        looked_up.append((matched, wanted))
                self.turn += 1
        self._note_round(timing)
        for matched, wanted in looked_up:  # compared by their encoding, off the clock
            checks.expect(
                inputs.encode_cbr(matched) == inputs.encode_cbr([wanted]),
                f"point lookup {wanted.domain} differs from brute force",
            )
        self.meter.idle()
        if pass_s:
            self.work.append(
                (len(self.records), timing.ref(pass_s), timing.ref(pass_cpu_s))
            )
        self.ops.extend(timing.ref(sample) for sample in where_raw)
        self.point_ops.extend(timing.ref(sample) for sample in point_raw)

    def layer_metrics(self, budget_s: float) -> dict[str, float]:
        metrics = {
            "analysis.engine_self_s": self.span_seconds(
                layers.self_seconds(self.tracer, "analysis.engine_run")
            ),
            "analysis.point_query_p50_ms": median(self.point_ops) * 1e3,
            "artifacts.bytes_per_record": rate(self.artifact_bytes, len(self.records)),
            "artifacts.torn_chunks": self.corrupt_chunks,
        }
        weeks = [inputs.week_label(offset) for offset in range(self.params["weeks"])]
        # One --where per week, so the planner's counts do not depend on
        # how many rounds the clock allowed.
        stats = [
            analyze_where(self.path, parse_where(f"week == {week}"), self.tracer)[1]
            for week in weeks
        ]
        metrics["analysis.chunks_selected_share"] = rate(
            sum(s.chunks_selected for s in stats), sum(s.chunks_total for s in stats)
        )
        metrics["analysis.records_scanned_per_match"] = rate(
            sum(s.records_scanned for s in stats), sum(s.records_matched for s in stats)
        )
        metrics.update(
            layers.analysis_metrics(self.path, weeks, self.meter, budget_s * 0.3)
        )
        metrics.update(
            layers.artifact_metrics(
                self.by_week[0], self.path,
                [r.domain for r in self.records[:: max(1, len(self.records) // 64)]],
                self.meter, budget_s * 0.7,
            )
        )
        return metrics


# ----------------------------------------------------------------------
# service_readwrite: folds beside reads against one live index.
# ----------------------------------------------------------------------


class ServiceReadWrite(Workload):
    name = "service_readwrite"

    def setup(self) -> None:
        p = self.params
        directory = self.fresh_dir("service")
        self.directory = directory
        self.spool = SpoolStore(directory / "spool")
        self.indexer = WeekIndexer(directory / "index")
        self.first_names: list[str] = []
        records = 0
        for offset in range(p["weeks"]):
            week = inputs.week_records(self.seed, offset, p["per_week"])
            self.first_names.append(week[0].domain)
            self.spool.submit_bytes(inputs.encode_cbr(week), source=f"bench:{offset}")
            records += len(week)
        self.indexer.fold_pending(self.spool)
        self.records = records
        self.next_week = p["weeks"]
        self.served = Served(self.spool, self.indexer)
        self.by_route: dict[str, list[float]] = {}
        self.submit_mb_s: list[float] = []
        self.visible_s: list[float] = []
        self.first_read_s: list[float] = []
        self.domain_s: list[float] = []
        # Warm: every route once, and the cold point-lookup path.
        weeks = self.indexer.weeks()
        for path in summary_paths(weeks, 0).values():
            self.served.get(path)
        self.served.get(f"/v1/domain/{self.first_names[0]}")
        answer = json.loads(self.served.get("/v1/adoption"))
        self.checks.expect(
            answer["connections_total"] == records, "set-up index lost records"
        )

    def teardown(self) -> None:
        self.served.close()
        shutil.rmtree(self.directory, ignore_errors=True)

    def round(self) -> None:
        p = self.params
        checks, tracer, served = self.checks, self.tracer, self.served
        offset = self.next_week
        self.next_week += 1
        label = inputs.week_label(offset)
        week = inputs.week_records(self.seed, offset, p["per_week"])
        payload = inputs.encode_cbr(week)
        self.first_names.append(week[0].domain)
        self.meter.idle()
        chunks_before = served.counter("query.chunks_total")
        fold_raw = submit_raw = visible_raw = first_raw = 0.0
        reads_raw: list[tuple[str, float]] = []
        domain_raw: list[float] = []
        with one_core(served.thread), self.meter.round() as timing:
            with checks.operation("submit + fold + visible"):
                start = time.perf_counter()
                with tracer.span("service.submit_bytes"):
                    self.spool.submit_bytes(payload, source=f"bench:{offset}")
                submit_raw = time.perf_counter() - start
                fold_start = time.perf_counter()
                with tracer.span("service.fold_pending"):
                    folded = self.indexer.fold_pending(self.spool)
                fold_raw = time.perf_counter() - fold_start
                checks.expect(len(folded) == 1, f"fold took {len(folded)} artifacts")
                self.records += len(week)
                read_start = time.perf_counter()
                for _ in range(100):  # visible at once unless a cache is stale
                    with tracer.span("service.get"):
                        status, body = http_get(served.port, f"/v1/adoption?week={label}")
                    if status == 200:
                        break
                first_raw = time.perf_counter() - read_start
                visible_raw = time.perf_counter() - start
                checks.expect(
                    status == 200
                    and json.loads(body)["connections_total"] == len(week),
                    f"week {label} not visible after its fold",
                )
            weeks = self.indexer.weeks()
            reads_raw = timed_reads(served, weeks, p["reads"], checks, tracer)
            chunks_summary = served.counter("query.chunks_total") - chunks_before
            for lookup in range(p["lookups"]):
                name = self.first_names[(offset * 31 + lookup * 7) % len(self.first_names)]
                with checks.operation("domain lookup"):
                    with tracer.span("service.get"):
                        start = time.perf_counter()
                        body = served.get(f"/v1/domain/{name}")
                        domain_raw.append(time.perf_counter() - start)
                    checks.expect(
                        body.count(b"\n") == 1 and name.encode() in body,
                        f"/v1/domain/{name} returned the wrong records",
                    )
        self._note_round(timing)
        checks.expect(chunks_summary == 0, "summary routes decoded cbr chunks")
        self.counts["service.chunks_decoded_summary_routes"] += chunks_summary
        if fold_raw:
            self.work.append((len(week), timing.ref(fold_raw), timing.ref_cpu_s))
            self.submit_mb_s.append(rate(len(payload) / 1e6, timing.ref(submit_raw)))
            self.visible_s.append(timing.ref(visible_raw))
            self.first_read_s.append(timing.ref(first_raw))
        for route, sample in reads_raw:
            self.ops.append(timing.ref(sample))
            self.by_route.setdefault(route, []).append(timing.ref(sample))
        self.domain_s.extend(timing.ref(sample) for sample in domain_raw)

    def finish(self) -> None:
        answer = json.loads(self.served.get("/v1/adoption"))
        self.checks.expect(
            answer["connections_total"] == self.records,
            f"/v1/adoption counts {answer['connections_total']} connections, "
            f"{self.records} were spooled",
        )
        self.counts["service.requests_non200"] = self.served.non200

    def layer_metrics(self, budget_s: float) -> dict[str, float]:
        metrics = {
            "service.spool_submit_mb_per_s": median(self.submit_mb_s),
            "service.fold_self_s": self.span_seconds(
                layers.self_seconds(self.tracer, "service.fold_pending")
            ),
            "service.submit_to_visible_p50_ms": median(self.visible_s) * 1e3,
            "service.first_read_after_fold_ms": median(self.first_read_s) * 1e3,
            "service.route_p50_ms.domain": median(self.domain_s) * 1e3,
        }
        for route in SUMMARY_ROUTES:
            metrics[f"service.route_p50_ms.{route}"] = (
                median(self.by_route.get(route, [])) * 1e3
            )
        metrics["service.summary_load_ms"] = layers.summary_load_ms(
            self.indexer, self.meter, budget_s * 0.2
        )
        # Week 0 again, byte for byte the artifact the spool holds for it.
        week = inputs.week_records(self.seed, 0, self.params["per_week"])
        artifact = self.directory / "week0.cbr"
        artifact.write_bytes(inputs.encode_cbr(week))
        metrics.update(
            layers.artifact_metrics(
                week, str(artifact), [r.domain for r in week[:32]],
                self.meter, budget_s * 0.8,
            )
        )
        return metrics


# ----------------------------------------------------------------------
# monitor_steady / monitor_churn: the on-path observer's packet loop.
# ----------------------------------------------------------------------


def summary_digest(summary) -> str:
    return hashlib.sha256(
        json.dumps(summary.as_dict(), sort_keys=True).encode("utf-8")
    ).hexdigest()


class Monitor(Workload):
    """Passes of a fresh ``MonitorPipeline`` over one captured tap stream."""

    def setup(self) -> None:
        p = self.params
        migration = parse_migration_plan(p["migration"]) if p["migration"] else None
        start = time.perf_counter()
        # The first ``datagrams`` of the tap: how many datagrams a flow
        # sends depends on the seed, the measured work must not.
        self.stream = list(
            islice(
                TrafficMux(
                    TrafficConfig(
                        flows=p["flows"], seed=self.seed,
                        arrival_window_ms=p["arrival_ms"],
                        tcp_flows=p["tcp_flows"], migration=migration,
                    )
                ).stream(),
                p["datagrams"],
            )
        )
        self.capture_s = time.perf_counter() - start
        self.checks.expect(
            len(self.stream) == p["datagrams"],
            f"tap stream ended after {len(self.stream)} datagrams",
        )
        self.config = MonitorConfig(
            max_flows=p["max_flows"],
            window=WindowConfig(window_ms=1_000.0),
            track_migration=migration is not None,
        )
        burst = p["burst"]
        self.bursts = [
            self.stream[at : at + burst] for at in range(0, len(self.stream), burst)
        ]
        self.digest: str | None = None
        self.summary = None
        self._pass()  # warm: decoders, observers, histogram bins

    def _pass(self) -> list[float]:
        """One pass; raw seconds of every full burst."""
        pipeline = MonitorPipeline(self.config)
        process = pipeline.process
        full = self.params["burst"]
        burst_raw = []
        with self.tracer.span("monitor.pipeline"):
            for burst in self.bursts:
                start = time.perf_counter()
                for tap in burst:
                    process(tap.time_ms, tap.data, tap.tuple4)
                if len(burst) == full:
                    burst_raw.append(time.perf_counter() - start)
            self.summary = pipeline.finish()
        return burst_raw

    def round(self) -> None:
        checks = self.checks
        burst_raw: list[float] = []
        with self.meter.round() as timing:
            with checks.operation("monitor pass"):
                burst_raw = self._pass()
        self._note_round(timing)
        if not burst_raw:
            return
        summary = self.summary
        self.work.append((len(self.stream), timing.ref_s, timing.ref_cpu_s))
        self.ops.extend(timing.ref(sample) for sample in burst_raw)
        checks.expect(summary.datagrams == len(self.stream), "monitor lost datagrams")
        checks.expect(
            summary.peak_flows <= self.config.max_flows, "flow table exceeded its bound"
        )
        digest = summary_digest(summary)
        if self.digest is None:
            self.digest = digest
        checks.expect(digest == self.digest, "monitor summary differs between passes")

    def layer_metrics(self, budget_s: float) -> dict[str, float]:
        summary = self.summary
        migration = summary.migration or {}
        pass_s = median([wall for traced, wall in self.round_walls if traced])
        metrics = {
            "monitor.traffic_gen_datagrams_per_s": rate(
                len(self.stream), self.capture_s * self.setup_speed
            ),
            "monitor.windows": summary.windows,
            "monitor.rtt_samples": summary.samples.get("count", 0),
            "monitor.peak_flows": summary.peak_flows,
            "core.evictions": summary.flows_evicted,
            "core.parse_errors": summary.parse_errors,
            "core.flows_migrated": migration.get("flows_migrated", 0),
            "core.flows_split": migration.get("flows_split", 0),
            "core.rebinds_seen": migration.get("rebinds_seen", 0),
        }
        metrics.update(
            layers.monitor_metrics(self.stream, self.config, pass_s, self.meter, budget_s)
        )
        return metrics


class MonitorSteady(Monitor):
    name = "monitor_steady"


class MonitorChurn(Monitor):
    name = "monitor_churn"


WORKLOADS = {
    cls.name: cls
    for cls in (
        CampaignWeek, CampaignChaos, ArchiveQuery, ServiceReadWrite,
        MonitorSteady, MonitorChurn,
    )
}
