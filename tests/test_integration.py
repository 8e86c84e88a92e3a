"""End-to-end integration: population → scan → full analysis pipeline.

These tests run the real byte-level simulation over a small population
and check the *qualitative* invariants the paper reports.  Quantitative
shape assertions at calibrated scale live in the benchmark harness.
"""

import pytest

from repro.analysis.accuracy import accuracy_study
from repro.analysis.asorg import organization_table
from repro.analysis.compliance import ComplianceFold, scan_flags
from repro.analysis.config import configuration_table
from repro.analysis.support import support_overview
from repro.analysis.webserver import webserver_shares
from repro.campaign.schedule import DEFAULT_CAMPAIGN
from repro.core.classify import SpinBehaviour
from repro.internet.asdb import build_default_asdb
from repro.internet.population import ListGroup
from repro.web.scanner import Scanner


@pytest.fixture(scope="module")
def scan(tiny_population):
    return Scanner(tiny_population).scan(week_label="cw20-2023", ip_version=4)


class TestSupportPipeline:
    def test_monotonic_funnel(self, scan, tiny_population):
        """total >= resolved >= quic >= spin for every view."""
        overview = support_overview(scan, tiny_population)
        for group in ListGroup:
            row = overview.row(group)
            assert row.domains_total >= row.domains_resolved
            assert row.domains_resolved >= row.domains_quic
            assert row.domains_quic >= row.domains_spin
            assert row.ips_resolved >= row.ips_quic >= row.ips_spin

    def test_spin_share_in_plausible_band(self, scan, tiny_population):
        overview = support_overview(scan, tiny_population)
        czds = overview.row(ListGroup.CZDS)
        assert czds.domains_quic > 50
        assert 0.02 < czds.domain_spin_share < 0.30

    def test_quic_ips_denser_than_domains(self, scan, tiny_population):
        """Shared hosting packs many QUIC domains per IP in the zone
        view (the paper's 1.2 % IP/domain ratio observation)."""
        overview = support_overview(scan, tiny_population)
        czds = overview.row(ListGroup.CZDS)
        assert czds.domains_per_quic_ip > 2.0


class TestOrganizationPipeline:
    def test_hyperscalers_lead_without_spinning(self, scan):
        table = organization_table(scan.connection_records(), build_default_asdb())
        assert table.top_rows[0].org_name in ("Cloudflare", "Google")
        cloudflare = table.row("Cloudflare")
        assert cloudflare.total_connections > 0
        assert cloudflare.spin_connections == 0
        fastly = table.row("Fastly")
        assert fastly.spin_connections == 0

    def test_spin_support_exists_outside_hyperscalers(self, scan):
        table = organization_table(scan.connection_records(), build_default_asdb())
        assert table.total_spin_connections > 0


class TestConfigurationPipeline:
    def test_all_zero_dominates(self, scan, tiny_population):
        table = configuration_table(scan, tiny_population)
        czds = table.row(ListGroup.CZDS)
        assert czds.all_zero_share > 0.7
        assert czds.all_zero > czds.spin > 0

    def test_counts_partition_quic_domains(self, scan, tiny_population):
        czds = configuration_table(scan, tiny_population).row(ListGroup.CZDS)
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
        overview = support_overview(dataset, tiny_population)
        czds = overview.row(ListGroup.CZDS)
        assert czds.domains_resolved < len(tiny_population.group_members(ListGroup.CZDS))
        assert overview.ip_version == 6
