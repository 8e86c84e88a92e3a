"""Public API surface and small utility coverage."""

import pytest

import repro


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
        overview, configuration = repro.domain_tables(
            repro.domain_flags(dataset.results),
            population,
            dataset.ip_version,
            dataset.week_label,
        )
        assert overview.row(repro.ListGroup.CZDS).domains_total == 60
        czds = configuration.row(repro.ListGroup.CZDS)
        assert czds.quic_domains == overview.row(repro.ListGroup.CZDS).domains_quic


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
        assert sum(row.total_connections for row in report.organizations.all_rows) > 0

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
