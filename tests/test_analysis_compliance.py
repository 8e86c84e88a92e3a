"""Figure 2 and the follow-up: the k-of-n fold, its driver, the references.

The fold is checked against :mod:`compliance_oracle`, which counts the
same scans from their domain results, over hand-written cases and random
domain x scan matrices.  Each matrix cell is a domain's outcome in one
scan: absent from the scan, or a (connected, spun) pair.
"""

from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro._util.stats import binomial_pmf
from repro.analysis.compliance import (
    FLAG_SEEN_ALL_ZERO,
    FLAG_SEEN_SPIN,
    FLAG_SPIN,
    FLAG_SUCCESS,
    ComplianceFold,
    ComplianceHistogram,
    rfc_reference_shares,
    scan_flags,
)
from repro.core.classify import SpinBehaviour

from compliance_oracle import FollowUpCounts, reference_counts

ABSENT = None
#: (connected, spun) outcomes of a present domain.
OUTCOMES = [(False, False), (False, True), (True, False), (True, True)]


class TestReferenceShares:
    def test_shares_sum_to_one(self):
        for n_disable in (8, 16):
            assert sum(rfc_reference_shares(12, n_disable)) == pytest.approx(1.0)

    def test_rfc9000_peaks_at_all_weeks(self):
        shares = rfc_reference_shares(12, 16)
        assert shares[-1] == max(shares)
        # (15/16)^12 ≈ 0.4614, renormalized over k >= 1.
        raw = binomial_pmf(12, 12, 15 / 16)
        assert shares[-1] == pytest.approx(raw / (1 - binomial_pmf(0, 12, 15 / 16)))

    def test_rfc9312_disables_more(self):
        """One-in-eight disabling spins in all 12 weeks less often than
        one-in-sixteen."""
        assert rfc_reference_shares(12, 8)[-1] < rfc_reference_shares(12, 16)[-1]


def result(name: str, connected: bool, spun: bool):
    """The fields of a ``DomainScanResult`` the counting reads: one
    connection, which spins (``SPIN`` when it also succeeded) or not."""
    behaviour = SpinBehaviour.SPIN if spun else SpinBehaviour.ALL_ZERO
    return SimpleNamespace(
        domain=SimpleNamespace(name=name), quic_support=connected,
        shows_spin_activity=spun,
        connections=[
            SimpleNamespace(success=connected, shows_spin_activity=spun, behaviour=behaviour)
        ],
    )


def results_of(matrix: dict[str, list]) -> list[list]:
    """One result list per scan (column) of a domain x scan matrix."""
    n = len(next(iter(matrix.values()))) if matrix else 0
    return [
        [result(name, *row[i]) for name, row in matrix.items() if row[i] is not ABSENT]
        for i in range(n)
    ]


class ReplayScanner:
    """Serves recorded result lists as ``scan_streams`` (probe = index)."""

    def __init__(self, scans: list[list]) -> None:
        self.scans = scans

    def scan_streams(self, scans):
        for scan in scans:
            assert scan["week_label"] == "cw20-2023"
            yield iter(self.scans[scan["probe"]])


def fold(scans: list[list], names) -> ComplianceHistogram:
    """The driver's flag maps of ``scans``, through the fold."""
    keys = [("cw20-2023", index) for index in range(len(scans))]
    compliance = ComplianceFold(len(scans))
    compliance.update_many(scan_flags(ReplayScanner(scans), names, keys))
    return compliance.finish()


def assert_matches_oracle(matrix: dict[str, list]) -> ComplianceHistogram:
    scans = results_of(matrix)
    histogram = fold(scans, list(matrix))
    assert histogram.counts == reference_counts(scans)
    followup = FollowUpCounts.of(list(matrix), scans)
    assert histogram.considered_domains == len(followup.active_domains())
    assert histogram.disable_rate == followup.estimated_disable_rate()
    distribution = followup.observed_count_distribution()
    assert distribution[0] == 0.0
    assert histogram.observed_shares == distribution[1:]
    return histogram


SPUN, CONNECTED, FAILED = (True, True), (True, False), (False, False)


class TestComplianceHistogram:
    def test_counts_weeks_with_spin(self):
        histogram = assert_matches_oracle({
            "a.com": [SPUN, SPUN, SPUN],  # 3 weeks
            "b.com": [SPUN, CONNECTED, CONNECTED],  # 1 week
            "c.com": [CONNECTED] * 3,  # never: excluded
        })
        assert histogram.considered_domains == 2
        assert histogram.counts == [1, 0, 1]
        assert histogram.observed_shares == [0.5, 0.0, 0.5]
        assert histogram.share_spinning_every_week == 0.5

    def test_domains_missing_a_week_excluded(self):
        histogram = assert_matches_oracle({
            "a.com": [SPUN, SPUN],
            "b.com": [SPUN, FAILED],
        })
        assert histogram.considered_domains == 1

    def test_cumulative(self):
        histogram = ComplianceHistogram(n_weeks=3, counts=[1, 1, 2])
        assert histogram.considered_domains == 4
        assert sum(histogram.observed_shares[:2]) == pytest.approx(0.5)
        assert histogram.rfc9000_shares == rfc_reference_shares(3, 16)
        assert histogram.rfc9312_shares == rfc_reference_shares(3, 8)


class TestFoldAgainstOracle:
    def test_domain_absent_from_a_scan_is_not_connected(self):
        histogram = assert_matches_oracle({
            "a.com": [SPUN, ABSENT, SPUN],
            "b.com": [SPUN, SPUN, CONNECTED],
        })
        assert histogram.counts == [0, 1, 0]

    def test_spun_without_success_is_not_connected(self):
        """A failed connection that saw both spin values (flags
        ``FLAG_SPIN`` alone) connects nothing in that scan."""
        histogram = assert_matches_oracle({
            "a.com": [SPUN, (False, True)],
            "b.com": [SPUN, SPUN],
        })
        assert histogram.counts == [0, 1]

    def test_never_spun_is_excluded(self):
        histogram = assert_matches_oracle({"a.com": [CONNECTED] * 4})
        assert histogram.considered_domains == 0
        assert histogram.observed_shares == [0.0] * 4

    def test_n_equals_two(self):
        histogram = assert_matches_oracle({
            "a.com": [SPUN, CONNECTED],
            "b.com": [CONNECTED, SPUN],
            "c.com": [SPUN, SPUN],
        })
        assert histogram.counts == [2, 1]
        assert histogram.disable_rate == 1.0 - 4 / 6

    def test_every_domain_failing(self):
        histogram = assert_matches_oracle({
            "a.com": [FAILED] * 3,
            "b.com": [(False, True)] * 3,
        })
        assert histogram.counts == [0, 0, 0]
        assert histogram.disable_rate == 0.0

    def test_flags_are_the_scan_results(self):
        scans = results_of({"a.com": [(False, True), SPUN], "b.com": [CONNECTED, FAILED]})
        maps = list(scan_flags(ReplayScanner(scans), ["a.com", "b.com"],
                               [("cw20-2023", 0), ("cw20-2023", 1)]))
        assert maps == [
            {"a.com": FLAG_SPIN, "b.com": FLAG_SUCCESS | FLAG_SEEN_ALL_ZERO},
            {"a.com": FLAG_SUCCESS | FLAG_SPIN | FLAG_SEEN_SPIN, "b.com": 0},
        ]

    def test_finish_needs_n_scans(self):
        fold = ComplianceFold(3)
        fold.update_many([{"a.com": 3}, {"a.com": 3}])
        with pytest.raises(ValueError):
            fold.finish()

    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(min_value=1, max_value=16).flatmap(
            lambda n: st.lists(
                st.lists(st.sampled_from([ABSENT, *OUTCOMES]), min_size=n, max_size=n),
                min_size=1,
                max_size=12,
            )
        )
    )
    def test_random_matrices(self, rows):
        assert_matches_oracle({f"d{index}.com": row for index, row in enumerate(rows)})
