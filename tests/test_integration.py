"""End-to-end integration: population → scan → full analysis pipeline.

These tests run the real byte-level simulation over a small population
and check the *qualitative* invariants the paper reports.  Quantitative
shape assertions at calibrated scale live in the benchmark harness.
"""

import pytest

from repro.analysis.accuracy import accuracy_study
from repro.analysis.adoption import domain_tables
from repro.analysis.asorg import organization_table
from repro.analysis.compliance import ComplianceFold, domain_flags, scan_flags
from repro.analysis.webserver import webserver_shares
from repro.campaign.schedule import DEFAULT_CAMPAIGN
from repro.core.classify import SpinBehaviour
from repro.internet.asdb import build_default_asdb
from repro.internet.population import ListGroup
from repro.web.scanner import Scanner


@pytest.fixture(scope="module")
def scan(tiny_population):
    return Scanner(tiny_population).scan(week_label="cw20-2023", ip_version=4)


def tables_of(dataset, population):
    """Tables 1/4 and 3 of ``dataset``."""
    return domain_tables(
        domain_flags(dataset.results), population, dataset.ip_version, dataset.week_label
    )


@pytest.fixture(scope="module")
def tables(scan, tiny_population):
    return tables_of(scan, tiny_population)


class TestSupportPipeline:
    def test_monotonic_funnel(self, tables):
        """total >= resolved >= quic >= spin for every view."""
        overview, _ = tables
        for group in ListGroup:
            row = overview.row(group)
            assert row.domains_total >= row.domains_resolved
            assert row.domains_resolved >= row.domains_quic
            assert row.domains_quic >= row.domains_spin
            assert row.ips_resolved >= row.ips_quic >= row.ips_spin

    def test_spin_share_in_plausible_band(self, tables):
        overview, _ = tables
        czds = overview.row(ListGroup.CZDS)
        assert czds.domains_quic > 50
        assert 0.02 < czds.domain_spin_share < 0.30

    def test_quic_ips_denser_than_domains(self, tables):
        """Shared hosting packs many QUIC domains per IP in the zone
        view (the paper's 1.2 % IP/domain ratio observation)."""
        overview, _ = tables
        czds = overview.row(ListGroup.CZDS)
        assert czds.domains_per_quic_ip > 2.0


class TestOrganizationPipeline:
    def test_hyperscalers_lead_without_spinning(self, scan):
        table = organization_table(scan.connection_records(), build_default_asdb())
        assert table.top_rows[0].org_name in ("Cloudflare", "Google")
        rows = {row.org_name: row for row in table.all_rows}
        assert rows["Cloudflare"].total_connections > 0
        assert rows["Cloudflare"].spin_connections == 0
        assert rows["Fastly"].spin_connections == 0

    def test_spin_support_exists_outside_hyperscalers(self, scan):
        table = organization_table(scan.connection_records(), build_default_asdb())
        assert sum(row.spin_connections for row in table.all_rows) > 0


class TestConfigurationPipeline:
    def test_all_zero_dominates(self, tables):
        _, table = tables
        czds = table.row(ListGroup.CZDS)
        assert czds.all_zero_share > 0.7
        assert czds.all_zero > czds.spin > 0

    def test_counts_partition_quic_domains(self, tables):
        czds = tables[1].row(ListGroup.CZDS)
        classified = czds.all_zero + czds.all_one + czds.spin + czds.grease
        assert classified <= czds.quic_domains
        # NO_PACKETS connections are the only other bucket and are rare.
        assert classified >= czds.quic_domains * 0.95


class TestWebserverPipeline:
    def test_litespeed_family_dominates_spinning(self, scan):
        shares = webserver_shares(scan.connection_records(), spinning_only=True)
        if not shares:
            pytest.skip("no spinning connections at this scale")
        litespeed_family = sum(
            s.share
            for s in shares
            if "LiteSpeed" in s.server_header or "imunify" in s.server_header
        )
        assert litespeed_family > 0.5


class TestAccuracyPipeline:
    def test_overestimation_dominates(self, scan):
        study = accuracy_study(scan.connection_records())
        series = study.spin_received
        if series.connections < 10:
            pytest.skip("too few spinning connections at this scale")
        assert series.overestimate_share > 0.75
        assert series.over_factor3_share > 0.15
        assert series.within_25pct_share > 0.05

    def test_sorted_series_never_worse_by_much(self, scan):
        study = accuracy_study(scan.connection_records())
        assert study.reordering.changed_share <= 0.1


class TestLongitudinalPipeline:
    def test_compliance_histogram_runs(self, tiny_population):
        spin_capable = [
            d for d in tiny_population.iter_targets() if d.quic_enabled
        ][:150]
        weeks = [(w.label, 0) for w in DEFAULT_CAMPAIGN.select_spread_weeks(4)]
        fold = ComplianceFold(len(weeks))
        fold.update_many(scan_flags(Scanner(tiny_population), spin_capable, weeks))
        histogram = fold.finish()
        assert histogram.n_weeks == 4
        if histogram.considered_domains:
            assert sum(histogram.observed_shares) == pytest.approx(1.0)
            # Domains spin at most as often as a compliant endpoint that
            # never churns (the paper's Fig. 2 reading).
            assert (
                histogram.share_spinning_every_week
                <= histogram.rfc9000_shares[-1] + 0.05
            )


class TestIpv6Pipeline:
    def test_v6_scan_produces_support_rows(self, tiny_population):
        dataset = Scanner(tiny_population).scan(week_label="cw20-2023", ip_version=6)
        overview, _ = tables_of(dataset, tiny_population)
        czds = overview.row(ListGroup.CZDS)
        assert czds.domains_resolved < czds.domains_total == sum(
            d.in_czds for d in tiny_population.iter_targets()
        )
        assert overview.ip_version == 6


class TestOneResolutionRule:
    """The premise of counting addresses from the input list: on real
    scans, every address the scanner reports is the population's."""

    @pytest.mark.parametrize("ip_version", [4, 6])
    def test_scan_addresses_are_the_populations(self, scan, tiny_population, ip_version):
        if ip_version == 6:
            scan = Scanner(tiny_population).scan(week_label="cw20-2023", ip_version=6)
        connections = 0
        for result in scan.results:
            expected = tiny_population.resolved_ip(result.domain, ip_version)
            assert result.resolved_ip == expected
            assert result.resolved == (expected is not None)
            for record in result.connections:
                assert record.ip == expected
                connections += 1
        assert connections > 0
