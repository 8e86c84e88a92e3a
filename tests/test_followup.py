"""The Section 6 follow-up methodology (two-phase compliance study).

Phase one is the paper report's CW 20 IPv4 scan, whose spin-active
domains ``PaperReport.spin_domains`` keeps; phase two probes them 16
times within the week through the same driver and fold as Figure 2.
"""

import pytest

from repro.analysis.compliance import ComplianceFold, scan_flags
from repro.analysis.paper_report import generate_paper_report
from repro.internet.population import PopulationConfig, build_population
from repro.web.scanner import Scanner

from compliance_oracle import FollowUpCounts

PROBES = [("cw20-2023", probe) for probe in range(1, 17)]


@pytest.fixture(scope="module")
def population():
    return build_population(
        PopulationConfig(toplist_domains=0, czds_domains=2_500, seed=41)
    )


@pytest.fixture(scope="module")
def study_result(population):
    candidates = generate_paper_report(
        population, include_longitudinal=False
    ).spin_domains
    maps = list(scan_flags(Scanner(population), candidates, PROBES))
    fold = ComplianceFold(len(PROBES))
    fold.update_many(maps)
    return candidates, maps, fold.finish()


class TestPhaseOne:
    def test_candidates_are_spin_active(self, population, study_result):
        candidates, _, _ = study_result
        dataset = Scanner(population).scan(week_label="cw20-2023", ip_version=4)
        assert candidates == [r.domain for r in dataset.results if r.shows_spin_activity]
        assert len(candidates) > 10


class TestPhaseTwo:
    def test_every_candidate_probed(self, study_result):
        candidates, maps, histogram = study_result
        assert len(maps) == histogram.n_weeks == 16
        names = [d.name for d in candidates]
        assert all(list(flags) == names for flags in maps)

    def test_probes_rerolled_within_week(self, study_result):
        """Different probes of the same domain give different spin
        outcomes (the 1-in-16 disable re-rolls per connection)."""
        _, _, histogram = study_result
        assert histogram.considered_domains, "expected active domains"
        assert any(histogram.counts[:-1])

    def test_estimated_disable_rate_near_one_in_sixteen(self, study_result):
        """The paper's proposed design recovers the RFC 9000 parameter
        directly, free of deployment churn."""
        _, _, histogram = study_result
        assert 0.02 < histogram.disable_rate < 0.12  # true value 1/16 = 0.0625

    def test_distributions(self, study_result):
        _, _, histogram = study_result
        observed = histogram.observed_shares
        assert sum(observed) == pytest.approx(1.0)
        expected = histogram.rfc9000_shares
        assert len(expected) == 16
        # Binomial(16, 15/16): the mode sits at 15 spinning probes,
        # with 16 a close second; together they carry most of the mass.
        assert max(expected) == expected[14]
        assert expected[14] + expected[15] > 0.7
        # The observed mode matches the compliant-endpoint reference:
        # most spin-enabled domains spin in 15 or 16 of 16 probes.
        assert observed[14] + observed[15] > 0.4

    def test_validation(self, study_result):
        """The fold refuses a scan count other than its n."""
        _, maps, _ = study_result
        fold = ComplianceFold(len(maps))
        fold.update_many(maps[1:])
        with pytest.raises(ValueError):
            fold.finish()

    def test_matches_the_probe_counters(self, population, study_result):
        """The fold's numbers are the follow-up's own probe counters."""
        candidates, _, histogram = study_result
        scanner = Scanner(population)
        scans = [
            scanner.scan(week_label=week, domains=candidates, probe=probe).results
            for week, probe in PROBES
        ]
        counts = FollowUpCounts.of([d.name for d in candidates], scans)
        assert histogram.considered_domains == len(counts.active_domains())
        assert histogram.disable_rate == counts.estimated_disable_rate()
        assert histogram.observed_shares == counts.observed_count_distribution()[1:]


class TestResultHelpers:
    def test_empty_result_safe(self):
        fold = ComplianceFold(4)
        fold.update_many([{}] * 4)
        histogram = fold.finish()
        assert histogram.disable_rate == 0.0
        assert histogram.considered_domains == 0
        assert histogram.observed_shares == [0.0] * 4
