"""Public API surface and small utility coverage."""

import pytest

import repro
from repro._util.units import (
    MS_PER_SECOND,
    ms_to_seconds,
    ms_to_us,
    seconds_to_ms,
    us_to_ms,
)


class TestTopLevelApi:
    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_subpackage_exports_resolve(self):
        import repro.analysis
        import repro.campaign
        import repro.core
        import repro.internet
        import repro.monitor
        import repro.netsim
        import repro.qlog
        import repro.quic
        import repro.web

        for module in (
            repro.analysis,
            repro.campaign,
            repro.core,
            repro.internet,
            repro.monitor,
            repro.netsim,
            repro.qlog,
            repro.quic,
            repro.web,
        ):
            for name in module.__all__:
                assert hasattr(module, name), f"{module.__name__}.{name}"

    def test_version_string(self):
        assert repro.__version__.count(".") == 2

    def test_quickstart_docstring_flow(self):
        """The flow advertised in the package docstring works."""
        population = repro.build_population(
            repro.PopulationConfig(toplist_domains=20, czds_domains=60, seed=2)
        )
        dataset = repro.Scanner(population).scan()
        overview = repro.support_overview(dataset, population)
        assert overview.row(repro.ListGroup.CZDS).domains_total == 60


class TestUnits:
    def test_conversions(self):
        assert seconds_to_ms(1.5) == 1500.0
        assert ms_to_seconds(250.0) == 0.25
        assert us_to_ms(1500.0) == 1.5
        assert ms_to_us(2.0) == 2000.0
        assert MS_PER_SECOND == 1000.0

    def test_roundtrip(self):
        assert ms_to_seconds(seconds_to_ms(3.25)) == 3.25
        assert us_to_ms(ms_to_us(7.5)) == 7.5


class TestPaperReportUnit:
    def test_report_structure(self):
        from repro.analysis.paper_report import generate_paper_report

        population = repro.build_population(
            repro.PopulationConfig(toplist_domains=80, czds_domains=400, seed=6)
        )
        report = generate_paper_report(population, include_longitudinal=False)
        assert "Table 1" in report.text
        assert "Table 4" in report.text
        assert report.compliance is None
        assert report.support_v4.row(repro.ListGroup.CZDS).domains_total == 400
        assert report.organizations.total_connections > 0

    def test_webservers_read_the_cw20_ipv4_scan_alone(self):
        from repro.analysis.paper_report import generate_paper_report
        from repro.analysis.webserver import webserver_shares

        population = repro.build_population(
            repro.PopulationConfig(toplist_domains=80, czds_domains=400, seed=6)
        )
        report = generate_paper_report(population, include_longitudinal=False)
        v4 = repro.Scanner(population).scan(week_label="cw20-2023", ip_version=4)
        assert report.webservers == webserver_shares(v4.connection_records())
        assert report.webservers != webserver_shares(report.records)
        assert report.spin_domains == [
            r.domain for r in v4.results if r.shows_spin_activity
        ]

    def test_report_with_longitudinal(self):
        from repro.analysis.paper_report import generate_paper_report

        population = repro.build_population(
            repro.PopulationConfig(toplist_domains=0, czds_domains=250, seed=7)
        )
        report = generate_paper_report(
            population,
            longitudinal_weeks=3,
            longitudinal_domain_cap=40,
        )
        assert report.compliance is not None
        assert report.compliance.n_weeks == 3
        assert "Figure 2" in report.text
