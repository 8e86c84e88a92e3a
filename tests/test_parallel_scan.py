"""Determinism of the sharded scan engine.

The parallel engine's whole correctness argument is that per-domain
randomness is independently derived from ``(population seed, week,
ip_version, domain, probe)``; these tests pin the two consequences the
engine relies on: any subset scan equals the corresponding slice of a
full scan, and any sharding (workers x chunk size) merges bit-identical
to the sequential path, including sampled qlog documents.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro._util.rng import SeedPrefix, derive_rng
from repro.internet.population import PopulationConfig, build_population
from repro.web.parallel import ParallelScanConfig
from repro.web.scanner import ScanConfig, Scanner


@pytest.fixture(scope="module")
def population():
    return build_population(
        PopulationConfig(toplist_domains=60, czds_domains=240, seed=11)
    )


@pytest.fixture(scope="module")
def sequential_dataset(population):
    return Scanner(population, ScanConfig(qlog_sample_rate=0.2)).scan(
        week_label="cw20-2023", ip_version=4
    )


class TestSeedPrefix:
    def test_matches_derive_rng_streams(self):
        prefix = SeedPrefix(20230520, "scan", "cw20-2023", 4)
        for name, probe in (("example.com", 0), ("other.net", 3), ("x.org", 16)):
            a = prefix.derive(name, probe)
            b = derive_rng(20230520, "scan", "cw20-2023", 4, name, probe)
            assert [a.random() for _ in range(5)] == [b.random() for _ in range(5)]

    def test_empty_suffix(self):
        assert (
            SeedPrefix(7, "a", "b").derive().random()
            == derive_rng(7, "a", "b").random()
        )


class TestSubsetSliceProperty:
    @settings(max_examples=8, deadline=None)
    @given(start=st.integers(0, 299), length=st.integers(1, 40))
    def test_subset_scan_equals_full_scan_slice(
        self, population, sequential_dataset, start, length
    ):
        subset = population.domains[start : start + length]
        if not subset:
            return
        partial = Scanner(population, ScanConfig(qlog_sample_rate=0.2)).scan(
            week_label="cw20-2023", ip_version=4, domains=subset
        )
        assert partial.results == sequential_dataset.results[start : start + length]


class TestParallelMerge:
    @pytest.mark.parametrize("workers", (2, 4))
    @pytest.mark.parametrize("chunk_size", (1, 7, None))
    def test_parallel_equals_sequential(
        self, population, sequential_dataset, workers, chunk_size
    ):
        parallel = Scanner(
            population,
            ScanConfig(qlog_sample_rate=0.2),
            parallel=ParallelScanConfig(workers=workers, chunk_size=chunk_size),
        ).scan(week_label="cw20-2023", ip_version=4)
        assert parallel == sequential_dataset

    def test_sampled_qlogs_identical(self, population, sequential_dataset):
        parallel = Scanner(
            population,
            ScanConfig(qlog_sample_rate=0.2),
            parallel=ParallelScanConfig(workers=2, chunk_size=13),
        ).scan(week_label="cw20-2023", ip_version=4)
        seq_qlogs = [c.qlog for c in sequential_dataset.connection_records()]
        par_qlogs = [c.qlog for c in parallel.connection_records()]
        assert sum(1 for q in seq_qlogs if q is not None) > 0
        assert seq_qlogs == par_qlogs

    def test_probe_and_ipv6_shards(self, population):
        scanner_seq = Scanner(population)
        scanner_par = Scanner(
            population, parallel=ParallelScanConfig(workers=2, chunk_size=9)
        )
        domains = [d for d in population.domains if d.quic_enabled][:30]
        assert scanner_par.scan(
            week_label="cw19-2023", domains=domains, probe=5
        ) == scanner_seq.scan(week_label="cw19-2023", domains=domains, probe=5)
        assert scanner_par.scan(ip_version=6) == scanner_seq.scan(ip_version=6)


class TestPoolFallback:
    def test_one_core_falls_back_inline(self, population, monkeypatch):
        """With one usable core a pool cannot win; stay in-process."""
        import repro.web.parallel as parallel_mod

        def explode(*args, **kwargs):  # pragma: no cover - defensive
            raise AssertionError("pool built despite single-core fallback")

        monkeypatch.setattr(parallel_mod.os, "cpu_count", lambda: 1)
        monkeypatch.setattr(parallel_mod, "ProcessPoolExecutor", explode)
        dataset = Scanner(
            population, parallel=ParallelScanConfig(workers=4, chunk_size=7)
        ).scan(week_label="cw20-2023", domains=population.domains[:20])
        assert len(dataset.results) == 20

    def test_cpu_affinity_bounds_the_pool(self, population, monkeypatch):
        """Pinned to one core of a larger machine, two workers cannot
        beat one: the scan stays inline and ``auto()`` sizes for one."""
        import repro.web.parallel as parallel_mod

        def explode(*args, **kwargs):  # pragma: no cover - defensive
            raise AssertionError("pool built on a single usable core")

        monkeypatch.setattr(parallel_mod.os, "cpu_count", lambda: 2)
        monkeypatch.setattr(
            parallel_mod.os, "sched_getaffinity", lambda pid: {0}, raising=False
        )
        monkeypatch.setattr(parallel_mod, "ProcessPoolExecutor", explode)
        scanner = Scanner(
            population, parallel=ParallelScanConfig(workers=2, chunk_size=7)
        )
        dataset = scanner.scan(week_label="cw20-2023", domains=population.domains[:20])
        assert len(dataset.results) == 20
        assert scanner.last_scan_stats["pool"] is False
        assert ParallelScanConfig.auto().workers == 1

    def test_single_shard_falls_back_inline(self, population, monkeypatch):
        import repro.web.parallel as parallel_mod

        def explode(*args, **kwargs):  # pragma: no cover - defensive
            raise AssertionError("pool built for a single shard")

        monkeypatch.setattr(parallel_mod, "ProcessPoolExecutor", explode)
        dataset = Scanner(
            population, parallel=ParallelScanConfig(workers=4, chunk_size=64)
        ).scan(week_label="cw20-2023", domains=population.domains[:20])
        assert len(dataset.results) == 20

    def test_force_pool_uses_real_pool(self, population, sequential_dataset):
        """force_pool exercises the process pool even on one core, and
        the merged dataset is still bit-identical."""
        scanner = Scanner(
            population,
            ScanConfig(qlog_sample_rate=0.2),
            parallel=ParallelScanConfig(workers=2, chunk_size=50, force_pool=True),
        )
        first = scanner.scan(week_label="cw20-2023", ip_version=4)
        assert first == sequential_dataset
        # The pool persists on the scanner and serves the next scan too.
        assert scanner._shard_pool is not None
        pool = scanner._shard_pool[1]
        second = scanner.scan(week_label="cw20-2023", ip_version=4)
        assert second == sequential_dataset
        assert scanner._shard_pool[1] is pool


class TestSingleWorkerFallback:
    def test_no_pool_for_one_worker(self, population, monkeypatch):
        """workers=1 must stay in-process: no executor, no pickling."""
        import repro.web.parallel as parallel_mod

        def explode(*args, **kwargs):  # pragma: no cover - defensive
            raise AssertionError("ProcessPoolExecutor used for workers=1")

        monkeypatch.setattr(parallel_mod, "ProcessPoolExecutor", explode)
        dataset = Scanner(population).scan(
            week_label="cw20-2023", domains=population.domains[:10]
        )
        assert len(dataset.results) == 10

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ParallelScanConfig(workers=0)
        with pytest.raises(ValueError):
            ParallelScanConfig(workers=2, chunk_size=0)
        assert ParallelScanConfig.auto().workers >= 1

    def test_chunk_size_resolution(self):
        config = ParallelScanConfig(workers=4)
        assert config.resolve_chunk_size(16) == 1
        assert config.resolve_chunk_size(1600) == 100
        assert config.resolve_chunk_size(1_000_000) == 512
        assert ParallelScanConfig(workers=4, chunk_size=37).resolve_chunk_size(9) == 37


class TestVerboseSummary:
    def test_one_line_summary(self, population, capsys):
        Scanner(population).scan(
            week_label="cw20-2023", domains=population.domains[:5], verbose=True
        )
        err = capsys.readouterr().err
        assert "scanned 5 domains" in err
        assert "domains/s" in err
        assert "1 worker(s)" in err

    def test_names_the_executor_that_ran(self, population, capsys, monkeypatch):
        """Four workers configured, one usable core: the line says what
        ran (inline, one worker), not what was asked for."""
        import repro.web.parallel as parallel_mod

        monkeypatch.setattr(parallel_mod.os, "cpu_count", lambda: 1)
        Scanner(
            population, parallel=ParallelScanConfig(workers=4, chunk_size=7)
        ).scan(week_label="cw20-2023", domains=population.domains[:20], verbose=True)
        assert "inline, 1 worker(s)" in capsys.readouterr().err


class TestScanStats:
    def test_every_scan_rewrites_last_scan_stats(self, population):
        """A pool scan's shape must not survive into a later inline scan
        on the same scanner."""
        domains = population.domains[:40]
        scanner = Scanner(
            population,
            parallel=ParallelScanConfig(workers=2, chunk_size=10, force_pool=True),
        )
        try:
            scanner.scan(week_label="cw20-2023", domains=domains)
            pooled = dict(scanner.last_scan_stats)
            scanner.parallel = ParallelScanConfig(workers=1, chunk_size=20)
            scanner.scan(week_label="cw20-2023", domains=domains)
        finally:
            scanner.close()
        assert pooled["pool"] is True
        assert (pooled["units"], pooled["workers"]) == (4, 2)
        assert 1 <= pooled["max_outstanding"] <= 6
        assert scanner.last_scan_stats == {
            "units": 2, "workers": 1, "pool": False, "max_outstanding": 1,
        }


class TestShardPlan:
    """The planner's invariants: count, coverage, purity."""

    def test_plan_always_ceil_shards(self):
        from repro.web.shardplan import plan_shards

        for n, chunk in ((1, 64), (20, 64), (300, 64), (300, 7), (128, 128)):
            expected = -(-n // chunk)
            costs = [1.0 + (i % 9) for i in range(n)]
            assert len(plan_shards(n, chunk)) == expected
            assert len(plan_shards(n, chunk, costs.__getitem__)) == expected
            assert len(plan_shards(n, chunk, costs.__getitem__, fixed=True)) == expected
        assert plan_shards(0, 64) == []

    def test_plan_covers_targets_contiguously(self):
        from repro.web.shardplan import plan_shards

        costs = [10.0 if i % 11 == 0 else 0.1 for i in range(257)]
        shards = plan_shards(257, 32, costs.__getitem__)
        position = 0
        for index, shard in enumerate(shards):
            assert shard.index == index
            assert shard.start == position
            assert shard.count >= 1
            position = shard.stop
        assert position == 257

    def test_cost_aware_boundaries_balance_cost(self):
        from repro.web.shardplan import plan_shards

        # All the expensive domains sit at the front: a fixed plan puts
        # them in one shard, the cost plan spreads the boundary.
        costs = [100.0] * 10 + [0.1] * 90
        balanced = plan_shards(100, 25, costs.__getitem__)
        fixed = plan_shards(100, 25, costs.__getitem__, fixed=True)
        assert max(s.cost for s in balanced) < max(s.cost for s in fixed)
        assert fixed[0].count == 25
        assert balanced[0].count < 25

    def test_plan_is_pure(self):
        from repro.web.shardplan import plan_shards

        costs = [float((i * 37) % 13 + 1) for i in range(301)]
        assert plan_shards(301, 40, costs.__getitem__) == plan_shards(
            301, 40, costs.__getitem__
        )

    def test_cost_model_prices_fault_draws(self, population):
        from repro.faults import parse_fault_plan
        from repro.web.shardplan import ShardCostModel

        plan = parse_fault_plan("blackhole:0.2")
        model = ShardCostModel(
            population,
            ScanConfig(faults=plan),
            "cw20-2023",
            4,
            0,
        )
        plain = ShardCostModel(population, ScanConfig(), "cw20-2023", 4, 0)
        quic = [d for d in population.domains if d.quic_enabled]
        faulted_total = sum(model.domain_cost(d) for d in quic)
        plain_total = sum(plain.domain_cost(d) for d in quic)
        assert faulted_total > plain_total
        # Unresolved domains never pay a fault surcharge.
        dead = next(d for d in population.domains if not d.resolves)
        assert model.domain_cost(dead) == plain.domain_cost(dead)


class TestWorkStealingIdentity:
    """Property-style sweep: (workers, chunk, fault plan) x force_pool.

    force_pool=True routes through the real submit/FIRST_COMPLETED
    pool even on a single-core host; every combination must merge
    record-by-record identical to sequential.
    """

    @pytest.mark.parametrize("workers", (2, 4))
    @pytest.mark.parametrize("chunk_size", (7, None))
    def test_pool_merge_identity(
        self, population, sequential_dataset, workers, chunk_size
    ):
        scanner = Scanner(
            population,
            ScanConfig(qlog_sample_rate=0.2),
            parallel=ParallelScanConfig(
                workers=workers, chunk_size=chunk_size, force_pool=True
            ),
        )
        try:
            dataset = scanner.scan(week_label="cw20-2023", ip_version=4)
        finally:
            scanner.close()
        for got, want in zip(dataset.results, sequential_dataset.results):
            assert got == want
        assert dataset == sequential_dataset

    @pytest.mark.parametrize("workers,chunk_size", ((2, 13), (4, None)))
    def test_pool_merge_identity_with_faults(self, population, workers, chunk_size):
        from repro.faults import ResilienceConfig, RetryPolicy, parse_fault_plan

        config = ScanConfig(
            faults=parse_fault_plan("blackhole:0.05,reset:0.08,slow-server:0.1"),
            resilience=ResilienceConfig(
                connect_timeout_ms=15_000, retry=RetryPolicy(max_attempts=2)
            ),
        )
        sequential = Scanner(population, config).scan(
            week_label="cw21-2023", ip_version=4
        )
        scanner = Scanner(
            population,
            config,
            parallel=ParallelScanConfig(
                workers=workers, chunk_size=chunk_size, force_pool=True
            ),
        )
        try:
            pooled = scanner.scan(week_label="cw21-2023", ip_version=4)
        finally:
            scanner.close()
        assert pooled == sequential


class TestPoolLifecycle:
    """Explicit close(), context manager, deterministic shape change."""

    def test_close_shuts_pool_down(self, population):
        scanner = Scanner(
            population,
            parallel=ParallelScanConfig(workers=2, chunk_size=64, force_pool=True),
        )
        scanner.scan(week_label="cw20-2023", domains=population.domains[:40])
        assert scanner._shard_pool is not None
        pool = scanner._shard_pool[1]
        scanner.close()
        assert scanner._shard_pool is None
        with pytest.raises(RuntimeError):
            pool.submit(int)
        # Idempotent, and the scanner stays usable afterwards.
        scanner.close()
        dataset = scanner.scan(
            week_label="cw20-2023", domains=population.domains[:40]
        )
        assert len(dataset.results) == 40
        scanner.close()

    def test_context_manager_closes(self, population):
        with Scanner(
            population,
            parallel=ParallelScanConfig(workers=2, chunk_size=64, force_pool=True),
        ) as scanner:
            scanner.scan(week_label="cw20-2023", domains=population.domains[:40])
            assert scanner._shard_pool is not None
        assert scanner._shard_pool is None

    def test_shape_change_shuts_old_pool_down(self, population):
        scanner = Scanner(
            population,
            parallel=ParallelScanConfig(workers=2, chunk_size=64, force_pool=True),
        )
        try:
            scanner.scan(week_label="cw20-2023", domains=population.domains[:40])
            old_pool = scanner._shard_pool[1]
            scanner.parallel = ParallelScanConfig(
                workers=3, chunk_size=64, force_pool=True
            )
            scanner.scan(week_label="cw20-2023", domains=population.domains[:40])
            assert scanner._shard_pool[1] is not old_pool
            with pytest.raises(RuntimeError):
                old_pool.submit(int)
        finally:
            scanner.close()

    def test_repeated_scans_share_one_pool_until_close(self, population):
        """``scan_flags`` streams every scan through the caller's
        scanner: one pool serves all weeks, and ``with`` closes it."""
        from repro.analysis.compliance import scan_flags

        weeks = [("cw19-2023", 0), ("cw20-2023", 0)]
        with Scanner(
            population,
            parallel=ParallelScanConfig(workers=2, chunk_size=64, force_pool=True),
        ) as scanner:
            pools = []
            for _ in scan_flags(scanner, population.domains[:40], weeks):
                pools.append(scanner._shard_pool[1])
            assert len(pools) == 2 and pools[0] is pools[1]
        assert scanner._shard_pool is None
