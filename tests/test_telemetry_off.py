"""The off state holds nothing; the on state loses nothing.

``telemetry=None`` resolves, once per owner, to one shared off bundle
(:meth:`repro.telemetry.Telemetry.resolve`) that every instrumented site
then calls unconditionally.  First half: after real work in every plane
— scan (inline and pool), a daemon tick, a monitor run — that bundle is
exactly as empty as before.  Second half: the same sites, handed a live
bundle, still write what they wrote when each was guarded by ``is not
None``: the scan and monitor files are pinned by ``test_scan_golden`` and
``test_monitor``; the daemon tick's four files are pinned here.
"""

import hashlib
import io
import json

import pytest

from conftest import make_archive_week
from repro.artifacts.cbr import write_records_cbr
from repro.internet.population import PopulationConfig, build_population
from repro.monitor.snapshots import run_monitor
from repro.monitor.traffic import TrafficConfig
from repro.service import (
    CampaignDaemon,
    ServiceConfig,
    ServiceState,
    SpoolStore,
    WeekIndexer,
)
from repro.telemetry import Telemetry
from repro.web.parallel import ParallelScanConfig
from repro.web.scanner import Scanner

TICK = ServiceConfig(
    seed=31, czds_domains=90, toplist_domains=20,
    first_week="cw19-2023", last_week="cw20-2023",
)
#: What a wall clock put into the tick's metrics; everything else in the
#: four files is a pure function of ``TICK``.
WALL_CLOCK_GAUGE = "service.scan_domains_per_s"

#: sha256 of the four files of one ``TICK`` tick, recorded at cafc88b
#: (the parent of PR 18) by ``tick_digests`` below — never re-record
#: from the change under test.  ``snapshot`` and ``prom`` were re-recorded
#: once, by PR 19's first commit (26d1ca3 plus ``counts.sent += 1`` where
#: the server sends Version Negotiation and Retry; see the note in
#: ``tests/test_scan_golden.py``): the whole diff of either file is
#: ``quic.packets_sent{role=server}`` 2648 -> 2650, the tick's two Retry
#: packets.  ``trace`` and ``diag`` did not move.  ``trace``, ``snapshot``
#: and ``prom`` were re-recorded once more, on top of 57a25ca, with the
#: scan pins of ``tests/test_scan_golden.py`` (the population moved to
#: per-block RNG streams); ``diag`` did not move.  ``snapshot`` and
#: ``prom`` were re-recorded with the scan pins' ``metrics`` when the
#: endpoints got one timer each: the whole diff is
#: ``netsim.events_dispatched`` 9332 -> 5494 and
#: ``netsim.queue_high_water`` 512 -> 205; ``trace`` and ``diag`` did not
#: move.
TICK_GOLDEN = {
    "trace": "6b85ec1f0fa84d41a3827bc20b3e9489cc564710486c02842a3e2da5afec757b",
    "diag": "2eeec39d78a8718dcd11d01efd6335060348125618c1575532378f537a250eed",
    "snapshot": "676e157d68409b6f94d0c981c0e5f49965cc0ffd00744792bf76cc710dfefae6",
    "prom": "af6910667b1b7245a198067cd30c60f77918bb69b717c7bddad5f5dc570eb7d9",
}

EMPTY_SNAPSHOT = {"counters": {}, "gauges": {}, "histograms": {}}


def assert_holds_nothing(bundle) -> None:
    assert bundle.tracer.records == []
    assert bundle.tracer.diag_records == []
    assert bundle.tracer._stack == []
    assert bundle.tracer.trace_id is None
    assert bundle.registry.snapshot() == EMPTY_SNAPSHOT
    assert bundle.profiler is None


def tick_digests(directory, out) -> dict[str, str]:
    """One two-week tick with a bundle; digests of the files it saves."""
    telemetry = Telemetry()
    with CampaignDaemon(directory, TICK, telemetry=telemetry) as daemon:
        status = daemon.run_once()
    assert status["indexed_weeks"] == ["cw19-2023", "cw20-2023"]
    paths = telemetry.save(out)
    snapshot = json.loads(paths["snapshot"].read_text(encoding="utf-8"))
    assert snapshot["gauges"].pop(WALL_CLOCK_GAUGE) > 0
    prom = [
        line
        for line in paths["prom"].read_text(encoding="utf-8").splitlines()
        if WALL_CLOCK_GAUGE.replace(".", "_") not in line
    ]
    contents = {
        "trace": paths["trace"].read_bytes(),
        "diag": paths["diag"].read_bytes(),
        "snapshot": json.dumps(snapshot, sort_keys=True).encode("utf-8"),
        "prom": "\n".join(prom).encode("utf-8"),
    }
    return {name: hashlib.sha256(data).hexdigest() for name, data in contents.items()}


class TestOffHoldsNothing:
    def test_after_scans_a_tick_and_a_monitor_run(self, tmp_path):
        off = Telemetry.resolve(None)
        assert_holds_nothing(off)
        population = build_population(
            PopulationConfig(toplist_domains=100, czds_domains=700, seed=5)
        )
        datasets = []
        for workers in (1, 4):
            parallel = ParallelScanConfig(
                workers=workers, chunk_size=128, force_pool=workers > 1
            )
            with Scanner(population, parallel=parallel) as scanner:
                assert scanner.telemetry is off
                datasets.append(scanner.scan(week_label="cw20-2023"))
                assert scanner.last_scan_stats["pool"] == (workers > 1)
        assert datasets[0] == datasets[1] and len(datasets[0].results) == 800
        with CampaignDaemon(tmp_path / "svc", TICK) as daemon:
            assert daemon.telemetry is daemon.spool.telemetry is off
            assert daemon.run_once()["indexed_weeks"] == ["cw19-2023", "cw20-2023"]
        summary = run_monitor(TrafficConfig(flows=30, seed=9))
        assert summary.windows > 1 and summary.datagrams > 0
        assert_holds_nothing(off)

    def test_the_off_bundle_cannot_be_given_state(self):
        off = Telemetry.resolve(None)
        with pytest.raises(AttributeError):
            off.profiler = object()
        off.tracer.trace_id = "0123456789abcdef"
        with off.tracer.span("a") as span, off.phase("p"):
            span.annotate(x=1)
            off.tracer.event("b")
            off.tracer.count("c", status=200)
            off.charge(5.0)
        off.registry.counter("n", label="x").inc(3)
        off.registry.gauge("g", agg="max").set_max(7)
        off.registry.histogram("h").observe(1.5)
        live = Telemetry()
        live.registry.counter("n").inc()
        live.tracer.event("row")
        off.absorb_shard(live.registry, live.tracer.records, live.tracer.diag_records)
        assert_holds_nothing(off)
        assert Telemetry.resolve(live) is live and off.shard() is off


class TestOnLosesNothing:
    def test_a_tick_writes_the_parents_four_files(self, tmp_path):
        assert tick_digests(tmp_path / "svc", tmp_path / "telemetry") == TICK_GOLDEN

    def test_an_off_shard_is_absorbed_as_nothing(self):
        live, off = Telemetry(), Telemetry.resolve(None)
        bundle = off.shard()
        bundle.registry.counter("scan.domains").inc()
        live.absorb_shard(bundle.registry, bundle.tracer.records, bundle.tracer.diag_records)
        assert live.registry.snapshot() == EMPTY_SNAPSHOT and live.tracer.records == []


class TestTickReadsTheLedgerOnce:
    @staticmethod
    def ledger_reads(directory, artifacts, monkeypatch) -> int:
        """``ledger.json`` reads of one scan-free tick over ``artifacts``
        spooled and folded artifacts, with a bundle attached."""
        daemon = CampaignDaemon(directory, TICK, telemetry=Telemetry())
        for week in range(artifacts):
            buffer = io.BytesIO()
            write_records_cbr(make_archive_week(week, 6), buffer)
            daemon.spool.submit_bytes(buffer.getvalue())
        assert len(daemon.indexer.fold_pending(daemon.spool)) == artifacts
        reads = 0
        version = WeekIndexer.version

        def counting(self):
            nonlocal reads
            reads += 1
            return version(self)

        monkeypatch.setattr(WeekIndexer, "version", counting)
        daemon.run_once(max_weeks=0)
        monkeypatch.setattr(WeekIndexer, "version", version)
        gauges = daemon.telemetry.registry.snapshot()["gauges"]
        assert gauges["service.spool_backlog"] == 0
        return reads

    def test_reads_do_not_grow_with_the_spool(self, tmp_path, monkeypatch):
        """The backlog gauge used to re-read and re-parse the ledger once
        per spooled artifact, only with a bundle attached."""
        few = self.ledger_reads(tmp_path / "few", 3, monkeypatch)
        many = self.ledger_reads(tmp_path / "many", 12, monkeypatch)
        assert few == many


class TestStateWithoutABundle:
    """``ServiceState`` is an owner like any other: without a bundle it
    is off.  What its three telemetry routes then answer is pinned here
    (DESIGN.md §12); ``repro service serve`` always hands it a live
    bundle."""

    def test_its_telemetry_routes_answer_empty(self, tmp_path):
        state = ServiceState(SpoolStore(tmp_path / "spool"), WeekIndexer(tmp_path / "index"))
        state.counter("service.requests_total")
        state.observe_request_ms("/v1/weeks", 1.0, 200)
        assert state.metrics_snapshot() == EMPTY_SNAPSHOT
        assert state.spans_payload() == {"trace": None, "spans": [], "diag": []}
        report = state.health_report().to_dict()
        assert {slo["name"]: slo["verdict"] for slo in report["slos"]} == {
            "scan-throughput": "no_data", "indexer-lag": "ok",
            "campaign-backlog": "no_data", "api-p50": "no_data",
            "api-p99": "no_data", "api-errors": "no_data",
        }
        assert_holds_nothing(Telemetry.resolve(None))

    def test_a_bundle_handed_in_is_the_one_served(self, tmp_path):
        telemetry = Telemetry()
        state = ServiceState(
            SpoolStore(tmp_path / "spool"), WeekIndexer(tmp_path / "index"), telemetry
        )
        state.counter("service.requests_total")
        state.observe_request_ms("/v1/weeks", 1.0, 200)
        assert state.telemetry is telemetry
        assert state.metrics_snapshot()["counters"] == {"service.requests_total": 1}
        (row,) = state.spans_payload()["diag"]
        assert row["name"] == "request:/v1/weeks" and row["attrs"]["count"] == 1
