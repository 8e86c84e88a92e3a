"""Campaign calendar and longitudinal runs."""

import pytest

from repro.analysis.compliance import FLAG_SPIN, FLAG_SUCCESS, ComplianceFold, scan_flags
from repro.campaign.schedule import DEFAULT_CAMPAIGN, CalendarWeek, Campaign
from repro.internet.population import PopulationConfig, build_population
from repro.web.scanner import Scanner

from compliance_oracle import reference_counts, weekly_spin_activity


class TestCalendarWeek:
    def test_label_roundtrip(self):
        week = CalendarWeek(2023, 20)
        assert week.label == "cw20-2023"
        assert CalendarWeek.from_label("cw20-2023") == week

    def test_from_label_validation(self):
        with pytest.raises(ValueError):
            CalendarWeek.from_label("week20")
        with pytest.raises(ValueError):
            CalendarWeek(2023, 54)

    def test_next_week(self):
        assert CalendarWeek(2023, 19).next() == CalendarWeek(2023, 20)

    def test_next_across_year_boundary(self):
        last_2022 = CalendarWeek(2022, 52)
        following = last_2022.next()
        assert following.year == 2023 and following.week == 1

    def test_serial_monotonic(self):
        weeks = [CalendarWeek(2022, 15), CalendarWeek(2022, 40), CalendarWeek(2023, 20)]
        serials = [w.serial for w in weeks]
        assert serials == sorted(serials)
        assert serials[0] >= 0

    def test_ordering(self):
        assert CalendarWeek(2022, 52) < CalendarWeek(2023, 1)


class TestCampaign:
    def test_default_campaign_span(self):
        weeks = DEFAULT_CAMPAIGN.weeks()
        assert weeks[0] == CalendarWeek(2022, 15)
        assert weeks[-1] == CalendarWeek(2023, 20)
        assert len(weeks) == 58  # 2022 has 52 ISO weeks

    def test_select_spread_weeks(self):
        selected = DEFAULT_CAMPAIGN.select_spread_weeks(12)
        assert len(selected) == 12
        assert selected[0] == CalendarWeek(2022, 15)
        assert selected[-1] == CalendarWeek(2023, 20)
        assert selected == sorted(selected)

    def test_select_all_weeks(self):
        campaign = Campaign(CalendarWeek(2023, 1), CalendarWeek(2023, 4))
        assert campaign.select_spread_weeks(4) == campaign.weeks()

    def test_select_validation(self):
        campaign = Campaign(CalendarWeek(2023, 1), CalendarWeek(2023, 4))
        with pytest.raises(ValueError):
            campaign.select_spread_weeks(1)
        with pytest.raises(ValueError):
            campaign.select_spread_weeks(10)

    def test_ipv6_weeks_subset(self):
        ipv6 = DEFAULT_CAMPAIGN.ipv6_weeks()
        all_weeks = set(DEFAULT_CAMPAIGN.weeks())
        assert set(ipv6) <= all_weeks
        assert DEFAULT_CAMPAIGN.weeks()[-1] in ipv6

    def test_invalid_campaign(self):
        with pytest.raises(ValueError):
            Campaign(CalendarWeek(2023, 10), CalendarWeek(2023, 5))


class TestLongitudinalRuns:
    """Figure 2's driver: one flag map per spread week, folded k-of-n."""

    @pytest.fixture(scope="class")
    def longitudinal(self):
        population = build_population(
            PopulationConfig(toplist_domains=0, czds_domains=500, seed=21)
        )
        domains = [d for d in population.iter_targets() if d.quic_enabled]
        weeks = [(w.label, 0) for w in DEFAULT_CAMPAIGN.select_spread_weeks(4)]
        scanner = Scanner(population)
        maps = list(scan_flags(scanner, domains, weeks))
        datasets = [scanner.scan(week_label=week, domains=domains) for week, _ in weeks]
        return maps, datasets

    def test_one_dataset_per_week(self, longitudinal):
        maps, datasets = longitudinal
        assert len(maps) == len(datasets) == 4
        assert [d.week_label for d in datasets] == [
            w.label for w in DEFAULT_CAMPAIGN.select_spread_weeks(4)
        ]

    def test_weekly_activity_requires_connection_every_week(self, longitudinal):
        maps, datasets = longitudinal
        fold = ComplianceFold(4)
        fold.update_many(maps)
        histogram = fold.finish()
        assert histogram.counts == reference_counts([d.results for d in datasets])
        assert histogram.considered_domains == sum(
            1
            for flags in weekly_spin_activity([d.results for d in datasets]).values()
            if any(flags)
        )
        assert histogram.considered_domains > 0

    def test_activity_flags_match_datasets(self, longitudinal):
        maps, datasets = longitudinal
        for flags, dataset in zip(maps, datasets):
            assert list(flags) == [r.domain.name for r in dataset.results]
            for result in dataset.results:
                assert flags[result.domain.name] == (
                    (FLAG_SUCCESS if result.quic_support else 0)
                    | (FLAG_SPIN if result.shows_spin_activity else 0)
                )

    def test_run_week_full_population(self):
        population = build_population(
            PopulationConfig(toplist_domains=30, czds_domains=80, seed=22)
        )
        dataset = Scanner(population).scan(week_label=CalendarWeek(2023, 20).label)
        assert dataset.week_label == "cw20-2023"
        assert len(dataset.results) == 110
