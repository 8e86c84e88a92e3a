"""Range-addressed population access and the streaming scan over it.

A :class:`Population` is a *function* of (config, index): any range
materializes identically in any process at any time, and the streaming
scan over it is bit-identical to a batch scan of the same materialized
records — at every worker count — while holding only a bounded window
of shards in memory.
"""

from __future__ import annotations

import pytest
from conftest import scan_checkpoint

from repro.internet.population import Population, PopulationConfig
from repro.web.parallel import ParallelScanConfig
from repro.web.scanner import ScanConfig, Scanner

CONFIG = PopulationConfig(toplist_domains=40, czds_domains=260, seed=77)


@pytest.fixture(scope="module")
def streaming():
    return Population(CONFIG)


class TestDeterminism:
    def test_fresh_instance_generates_identical_records(self, streaming):
        other = Population(CONFIG)
        assert streaming.materialize_range(0, 300) == other.materialize_range(
            0, 300
        )

    def test_ranges_compose(self, streaming):
        whole = streaming.materialize_range(0, 300)
        pieces = [
            record
            for start in range(0, 300, 37)
            for record in streaming.materialize_range(start, start + 37)
        ]
        assert pieces == whole

    def test_iter_targets_matches_ranges(self, streaming):
        assert list(streaming.iter_targets()) == streaming.materialize_range(
            0, 300
        )

    def test_toplist_then_czds_layout(self, streaming):
        records = streaming.materialize_range(0, 300)
        assert all(r.in_toplist for r in records[:40])
        assert all(r.in_czds for r in records[40:])
        assert records[0].name.startswith("top0000000.")
        assert records[40].name.startswith("domain000000000.")


class TestBoundedSurface:
    def test_domain_count(self, streaming):
        assert streaming.domain_count == 300

    def test_trim_caches_preserves_stack_determinism(self, streaming):
        quic = [
            r for r in streaming.materialize_range(0, 300) if r.quic_enabled
        ]
        before = [streaming.stack_of(r, 4, epoch=3) for r in quic]
        assert len(streaming._stack_cache) > 0
        streaming.trim_caches(limit=0)
        assert streaming._stack_cache == {}
        assert [streaming.stack_of(r, 4, epoch=3) for r in quic] == before


class TestStreamingScan:
    @pytest.fixture(scope="class")
    def batch_dataset(self, streaming):
        # Ground truth: a batch scan over the fully materialized records.
        return Scanner(streaming, ScanConfig(qlog_sample_rate=0.2)).scan(
            week_label="cw20-2023",
            ip_version=4,
            domains=streaming.materialize_range(0, 300),
        )

    def test_stream_equals_batch_scan(self, streaming, batch_dataset):
        results = list(
            Scanner(streaming, ScanConfig(qlog_sample_rate=0.2)).scan_stream(
                week_label="cw20-2023", ip_version=4
            )
        )
        assert results == batch_dataset.results

    @pytest.mark.parametrize("workers,chunk", ((2, 32), (4, None)))
    def test_stream_pool_identity(self, streaming, batch_dataset, workers, chunk):
        scanner = Scanner(
            streaming,
            ScanConfig(qlog_sample_rate=0.2),
            parallel=ParallelScanConfig(
                workers=workers, chunk_size=chunk, force_pool=True
            ),
        )
        try:
            results = list(
                scanner.scan_stream(week_label="cw20-2023", ip_version=4)
            )
        finally:
            scanner.close()
        stats = scanner.last_scan_stats
        assert results == batch_dataset.results
        assert stats["pool"] is True
        # Bounded window: never more shards outstanding than the cap.
        assert 1 <= stats["max_outstanding"] <= max(2, workers * 3)

    def test_scan_over_streaming_population_is_the_listed_stream(
        self, streaming, batch_dataset
    ):
        dataset = Scanner(streaming, ScanConfig(qlog_sample_rate=0.2)).scan(
            week_label="cw20-2023", ip_version=4
        )
        assert dataset == batch_dataset

    @pytest.mark.parametrize("pool", (False, True))
    def test_stream_with_breaker_equals_scan(self, streaming, pool):
        """The breaker only ever looks back, so a stream applies it as
        results are emitted: record for record and counter for counter
        what ``scan`` gives."""
        from repro.faults import (
            BreakerPolicy,
            ResilienceConfig,
            parse_fault_plan,
        )
        from repro.telemetry import Telemetry

        config = ScanConfig(
            faults=parse_fault_plan("blackhole:0.3,reset:0.3"),
            resilience=ResilienceConfig(
                connect_timeout_ms=15_000,
                breaker=BreakerPolicy(failure_threshold=2, cooldown_attempts=3),
            ),
        )
        batch_telemetry = Telemetry()
        batch = Scanner(streaming, config, telemetry=batch_telemetry).scan(
            week_label="cw21-2023", domains=streaming.materialize_range(0, 300)
        )
        stream_telemetry = Telemetry()
        with Scanner(
            streaming,
            config,
            parallel=ParallelScanConfig(
                workers=2 if pool else 1, chunk_size=32, force_pool=pool
            ),
            telemetry=stream_telemetry,
        ) as scanner:
            results = list(scanner.scan_stream(week_label="cw21-2023"))
        assert results == batch.results
        counters = stream_telemetry.registry.snapshot()["counters"]
        assert any(name.startswith("scan.breaker_skipped") for name in counters)
        assert counters == batch_telemetry.registry.snapshot()["counters"]

    def test_stream_with_faults_matches_batch(self, streaming):
        from repro.faults import ResilienceConfig, RetryPolicy, parse_fault_plan

        config = ScanConfig(
            faults=parse_fault_plan("blackhole:0.05,reset:0.08"),
            resilience=ResilienceConfig(
                connect_timeout_ms=15_000, retry=RetryPolicy(max_attempts=2)
            ),
        )
        batch = Scanner(streaming, config).scan(
            week_label="cw21-2023",
            ip_version=4,
            domains=streaming.materialize_range(0, 300),
        )
        scanner = Scanner(
            streaming,
            config,
            parallel=ParallelScanConfig(
                workers=2, chunk_size=50, force_pool=True
            ),
        )
        try:
            results = list(scanner.scan_stream(week_label="cw21-2023"))
        finally:
            scanner.close()
        assert results == batch.results


class TestStreamCli:
    """``repro scan`` with every scan flag writes the same outputs at one
    worker and through a four-worker pool, and resumes either on the
    other's worker count."""

    FLAGS = [
        "--czds", "200", "--toplist", "40", "--seed", "417", "--chunk-size", "48",
        "--fault", "blackhole:0.05,reset:0.08,slow-server:0.1,qlog-truncate:0.3",
        "--connect-timeout-ms", "20000", "--retries", "1",
        "--breaker-threshold", "4", "--breaker-cooldown", "6",
        "--qlog-sample-rate", "0.2",
    ]
    ARMS = {"w1": ["--workers", "1"], "w4": ["--workers", "4", "--force-pool"]}

    def _run(self, directory, arm):
        from repro.cli import main

        directory.mkdir(exist_ok=True)
        command = [
            "scan", *self.FLAGS, *self.ARMS[arm],
            "--out", str(directory / "scan.cbr"),
            "--qlog-out", str(directory / "qlog.jsonl"),
            "--telemetry-out", str(directory / "telemetry"),
            "--checkpoint-dir", str(directory / "ckpt"),
        ]
        assert main(command) == 0
        return {
            "artifact": (directory / "scan.cbr").read_bytes(),
            "qlog": (directory / "qlog.jsonl").read_bytes(),
            "trace": (directory / "telemetry" / "trace.jsonl").read_bytes(),
            "metrics": (directory / "telemetry" / "metrics.json").read_bytes(),
        }

    def test_stream_outputs_identical_across_workers_and_resume(
        self, tmp_path, capsys
    ):
        first = {arm: self._run(tmp_path / arm, arm) for arm in self.ARMS}
        assert first["w1"]["qlog"] and first["w1"] == first["w4"]
        # A crash loses one shard; each directory resumes on the other
        # arm's worker count.  Loaded shards add no telemetry, so the
        # resumed traces equal each other, not the first run's.
        for arm in self.ARMS:
            (scan_checkpoint(tmp_path / arm / "ckpt") / "shard-00002.cbr").unlink()
        resumed = {
            "w1": self._run(tmp_path / "w4", "w1"),
            "w4": self._run(tmp_path / "w1", "w4"),
        }
        assert resumed["w1"] == resumed["w4"]
        for key in ("artifact", "qlog"):
            assert resumed["w1"][key] == first["w1"][key]
        assert resumed["w1"]["trace"] != first["w1"]["trace"]
        capsys.readouterr()


class TestPoolCli:
    """A forced-pool ``repro scan`` at any shard size writes the inline
    scan's bytes, whether or not shards align with the draw blocks."""

    FLAGS = ["--czds", "200", "--toplist", "40", "--seed", "417", "--qlog-sample-rate", "0.2"]

    def _run(self, directory, *arm):
        from repro.cli import main

        directory.mkdir()
        command = [
            "scan", *self.FLAGS, *arm,
            "--out", str(directory / "scan.cbr"),
            "--qlog-out", str(directory / "qlog.jsonl"),
            "--telemetry-out", str(directory / "telemetry"),
        ]
        assert main(command) == 0
        return [
            (directory / name).read_bytes()
            for name in ("scan.cbr", "qlog.jsonl", "telemetry/trace.jsonl",
                         "telemetry/metrics.json")
        ]

    @pytest.mark.parametrize("chunk", ("37", "128"))
    def test_forced_pool_equals_inline(self, tmp_path, capsys, chunk):
        inline = self._run(tmp_path / "inline", "--workers", "1")
        pool = self._run(
            tmp_path / "pool", "--workers", "2", "--force-pool", "--chunk-size", chunk
        )
        assert inline[1] and pool == inline
        assert "pool, 2 worker(s)" in capsys.readouterr().err
