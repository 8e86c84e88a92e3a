"""Section 5.1 accuracy metrics."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.metrics import compare_means, mapped_ratio


class TestAbsoluteDifference:
    def test_overestimation_positive(self):
        assert compare_means([150.0], [50.0]).absolute_ms == 100.0

    def test_underestimation_negative(self):
        assert compare_means([30.0], [50.0]).absolute_ms == -20.0


class TestMappedRatio:
    def test_equal_means_map_to_one(self):
        assert mapped_ratio(50.0, 50.0) == 1.0

    def test_overestimation_positive_ratio(self):
        assert mapped_ratio(150.0, 50.0) == 3.0

    def test_underestimation_negative_ratio(self):
        assert mapped_ratio(25.0, 50.0) == -2.0

    def test_magnitude_never_below_one(self):
        assert abs(mapped_ratio(50.0, 49.0)) >= 1.0

    def test_positive_inputs_required(self):
        with pytest.raises(ValueError):
            mapped_ratio(0.0, 50.0)
        with pytest.raises(ValueError):
            mapped_ratio(50.0, -1.0)


class TestCompareMeans:
    def test_uses_means_of_both_series(self):
        result = compare_means([100.0, 200.0], [50.0, 50.0])
        assert result.spin_mean_ms == 150.0
        assert result.quic_mean_ms == 50.0
        assert result.absolute_ms == 100.0
        assert result.ratio == 3.0

    def test_empty_series_rejected(self):
        with pytest.raises(ValueError):
            compare_means([], [50.0])
        with pytest.raises(ValueError):
            compare_means([50.0], [])


@given(
    a=st.floats(min_value=0.01, max_value=1e5),
    b=st.floats(min_value=0.01, max_value=1e5),
)
def test_ratio_antisymmetry_property(a, b):
    """Swapping spin and QUIC flips the sign but keeps the magnitude
    (except at exact equality, where both directions give +1)."""
    forward = mapped_ratio(a, b)
    backward = mapped_ratio(b, a)
    assert abs(forward) == pytest.approx(abs(backward))
    if a != b:
        assert forward == pytest.approx(-backward)
    assert abs(forward) >= 1.0


@given(
    spin=st.lists(st.floats(min_value=0.1, max_value=1e4), min_size=1, max_size=20),
    stack=st.lists(st.floats(min_value=0.1, max_value=1e4), min_size=1, max_size=20),
)
def test_compare_means_sign_consistency_property(spin, stack):
    result = compare_means(spin, stack)
    assert (result.absolute_ms > 0) == (result.ratio > 1.0)
    assert (result.absolute_ms < 0) == (result.ratio < 0)
