"""The shared log-scale histogram (``repro._util.histogram``)."""

from __future__ import annotations

import pickle
import random

import pytest

from repro._util.histogram import LogHistogram


class TestEdgeCases:
    def test_empty_percentiles_are_none(self):
        hist = LogHistogram()
        assert hist.count == 0
        assert hist.percentile(50.0) is None
        assert hist.percentile(0.0) is None
        assert hist.percentile(100.0) is None
        assert hist.summary() == {"count": 0}

    def test_single_sample_dominates_every_quantile(self):
        hist = LogHistogram()
        hist.add(42.0)
        for q in (0.0, 50.0, 90.0, 99.0, 100.0):
            assert hist.percentile(q) == 42.0
        summary = hist.summary()
        assert summary["mean_ms"] == 42.0
        assert summary["count"] == 1
        assert summary["p50_ms"] == 42.0
        assert summary["min_ms"] == summary["max_ms"] == 42.0

    def test_overflow_bucket_reports_exact_maximum(self):
        hist = LogHistogram(min_value=1.0, max_value=100.0)
        hist.add(50.0)
        hist.add(1_000_000.0)  # lands in the overflow bin
        assert hist.overflow == 1
        assert hist.count == 2
        assert hist.percentile(99.0) == 1_000_000.0
        assert hist.max_seen == 1_000_000.0

    def test_underflow_bucket_reports_exact_minimum(self):
        hist = LogHistogram(min_value=1.0, max_value=100.0)
        hist.add(0.001)
        hist.add(50.0)
        assert hist.underflow == 1
        assert hist.percentile(1.0) == 0.001
        assert hist.min_seen == 0.001

    def test_invalid_quantile_rejected(self):
        hist = LogHistogram()
        hist.add(1.0)
        with pytest.raises(ValueError):
            hist.percentile(-1.0)
        with pytest.raises(ValueError):
            hist.percentile(101.0)

    def test_invalid_binning_rejected(self):
        with pytest.raises(ValueError):
            LogHistogram(min_value=0.0)
        with pytest.raises(ValueError):
            LogHistogram(min_value=10.0, max_value=5.0)
        with pytest.raises(ValueError):
            LogHistogram(bins_per_decade=0)


class TestMerge:
    def test_merge_requires_same_binning(self):
        a = LogHistogram(0.1, 60_000.0, 32)
        b = LogHistogram(1.0, 60_000.0, 32)
        with pytest.raises(ValueError, match="binning"):
            a.merge(b)

    def test_sharded_merge_is_exact(self):
        """Sharded fill + merge equals sequential fill, bit for bit.

        Plain float accumulation would differ in the last ulp between
        the two orders; the exact-partial sum must not.
        """
        rng = random.Random(7)
        samples = [rng.lognormvariate(3.0, 1.5) for _ in range(5_000)]

        sequential = LogHistogram()
        for sample in samples:
            sequential.add(sample)

        shards = [LogHistogram() for _ in range(4)]
        for index, sample in enumerate(samples):
            shards[index % 4].add(sample)
        merged = LogHistogram()
        for shard in shards:
            merged.merge(shard)

        assert merged.count == sequential.count
        assert merged.counts == sequential.counts
        assert repr(merged.total) == repr(sequential.total)
        assert merged.summary() == sequential.summary()

    def test_merge_order_independent(self):
        rng = random.Random(11)
        shards = []
        for _ in range(3):
            hist = LogHistogram()
            for _ in range(500):
                hist.add(rng.uniform(0.05, 90_000.0))
            shards.append(hist)

        forward = LogHistogram()
        for shard in shards:
            forward.merge(shard)
        backward = LogHistogram()
        for shard in reversed(shards):
            backward.merge(shard)
        assert repr(forward.total) == repr(backward.total)
        assert forward.summary() == backward.summary()

    def test_pickle_roundtrip(self):
        hist = LogHistogram()
        for value in (0.5, 3.0, 700.0, 100_000.0):
            hist.add(value)
        clone = pickle.loads(pickle.dumps(hist))
        assert clone.count == hist.count
        assert clone.summary() == hist.summary()
        clone.add(9.0)  # still usable after unpickling
        assert clone.count == hist.count + 1
