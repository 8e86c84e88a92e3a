"""Statistics utilities: histograms, binomials, percentiles, choices."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro._util.rng import derive_rng, fork_rng
from repro._util.stats import (
    Histogram,
    binomial_pmf,
    percentile,
    weighted_choice,
)


class TestPercentile:
    def test_median_interpolation(self):
        assert percentile([1.0, 2.0, 3.0, 4.0], 50) == 2.5

    def test_extremes(self):
        values = [5.0, 1.0, 3.0]
        assert percentile(values, 0) == 1.0
        assert percentile(values, 100) == 5.0

    def test_matches_numpy(self):
        np = pytest.importorskip("numpy")

        values = [3.0, 1.0, 4.0, 1.5, 9.2, 2.6]
        for q in (10, 25, 50, 75, 90):
            assert percentile(values, q) == pytest.approx(np.percentile(values, q))

    def test_validation(self):
        with pytest.raises(ValueError):
            percentile([], 50)
        with pytest.raises(ValueError):
            percentile([1.0], 101)


class TestBinomial:
    def test_sums_to_one(self):
        total = sum(binomial_pmf(k, 12, 15 / 16) for k in range(13))
        assert total == pytest.approx(1.0)

    def test_rfc9000_all_weeks_value(self):
        # P[spin in all 12 weekly one-shots] with 1-in-16 disabling.
        assert binomial_pmf(12, 12, 15 / 16) == pytest.approx((15 / 16) ** 12)

    def test_out_of_support(self):
        assert binomial_pmf(-1, 5, 0.5) == 0.0
        assert binomial_pmf(6, 5, 0.5) == 0.0

    def test_invalid_p(self):
        with pytest.raises(ValueError):
            binomial_pmf(1, 2, 1.5)


class TestWeightedChoice:
    def test_distribution(self):
        rng = derive_rng(5, "wc")
        counts = {"a": 0, "b": 0}
        for _ in range(4000):
            counts[weighted_choice(rng, ["a", "b"], [3.0, 1.0])] += 1
        assert 0.70 < counts["a"] / 4000 < 0.80

    def test_zero_weight_never_chosen(self):
        rng = derive_rng(6, "wc")
        assert all(
            weighted_choice(rng, ["a", "b"], [1.0, 0.0]) == "a" for _ in range(200)
        )

    def test_validation(self):
        rng = derive_rng(7, "wc")
        with pytest.raises(ValueError):
            weighted_choice(rng, ["a"], [1.0, 2.0])
        with pytest.raises(ValueError):
            weighted_choice(rng, ["a"], [-1.0])
        with pytest.raises(ValueError):
            weighted_choice(rng, ["a", "b"], [0.0, 0.0])


class TestHistogram:
    def test_binning(self):
        hist = Histogram(edges=(0.0, 10.0, 20.0))
        hist.extend([5.0, 15.0, 15.0, -1.0, 25.0])
        assert hist.counts == [1, 2]
        assert hist.underflow == 1
        assert hist.overflow == 1
        assert hist.total == 5

    def test_boundary_goes_to_upper_bin(self):
        hist = Histogram(edges=(0.0, 10.0, 20.0))
        hist.add(10.0)
        assert hist.counts == [0, 1]

    def test_fractions_include_tails_in_norm(self):
        hist = Histogram(edges=(0.0, 1.0))
        hist.extend([0.5, 5.0])
        assert hist.fractions() == [0.5]

    def test_dict_roundtrip(self):
        hist = Histogram(edges=(0.0, 1.0, 2.0))
        hist.extend([0.5, 1.5, 9.0])
        clone = Histogram.from_dict(hist.as_dict())
        assert clone.counts == hist.counts
        assert clone.overflow == hist.overflow

    def test_merge_adds_bins_of_equal_edges_only(self):
        hist = Histogram(edges=(0.0, 1.0, 2.0))
        hist.extend([0.5, 1.5, 9.0])
        other = Histogram.from_dict(hist.as_dict())  # list edges, as loaded
        other.add(-1.0)
        hist.merge(other)
        assert (hist.counts, hist.underflow, hist.overflow) == ([2, 2], 1, 2)
        # Other edges are not added bin-by-position.
        with pytest.raises(ValueError):
            hist.merge(Histogram(edges=(0.0, 1.0, 3.0)))
        with pytest.raises(ValueError):
            hist.merge(Histogram(edges=(0.0, 1.0)))
        assert hist.total == 7

    def test_validation(self):
        with pytest.raises(ValueError):
            Histogram(edges=(1.0,))
        with pytest.raises(ValueError):
            Histogram(edges=(1.0, 1.0))
        with pytest.raises(ValueError):
            Histogram(edges=(0.0, 1.0), counts=[1, 2, 3])


class TestRngDerivation:
    def test_same_labels_same_stream(self):
        assert derive_rng(1, "a", 2).random() == derive_rng(1, "a", 2).random()

    def test_different_labels_differ(self):
        assert derive_rng(1, "a").random() != derive_rng(1, "b").random()

    def test_fork_is_deterministic(self):
        a = fork_rng(derive_rng(1, "x"), "child")
        b = fork_rng(derive_rng(1, "x"), "child")
        assert a.random() == b.random()


@given(
    st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=0, max_size=200),
)
def test_histogram_mass_conservation_property(values):
    hist = Histogram(edges=(-100.0, 0.0, 100.0))
    hist.extend(values)
    assert hist.total == len(values)
    if values:
        assert sum(hist.fractions()) + (hist.underflow + hist.overflow) / len(
            values
        ) == pytest.approx(1.0)


@given(
    st.integers(min_value=1, max_value=30),
    st.floats(min_value=0.01, max_value=0.99),
)
def test_binomial_mass_property(n, p):
    assert sum(binomial_pmf(k, n, p) for k in range(n + 1)) == pytest.approx(1.0)
