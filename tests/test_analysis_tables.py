"""Table aggregations (support overview, AS organizations, configuration)
on hand-constructed scan data with known ground truth."""

import pytest

from conftest import make_connection_record
from repro.analysis.asorg import organization_table
from repro.analysis.config import configuration_table
from repro.analysis.support import support_overview
from repro.analysis.webserver import webserver_shares
from repro.core.classify import SpinBehaviour
from repro.internet.asdb import IpAddr, build_default_asdb
from repro.internet.population import (
    ListGroup,
    Population,
    PopulationConfig,
    build_population_from_names,
)
from repro.web.scanner import DomainScanResult, ScanDataset


def build_fixture():
    """Five CZDS domains and one toplist domain with known behaviour.

    The population comes from the lists; what the tables count comes
    from the scan results built here.
    """
    population = build_population_from_names(
        ["spin.com", "zero.com", "grease.org", "unresolved.com", "noquic.xyz"],
        ["one.net"],
    )
    records = {record.name: record for record in population.domains}
    dataset = ScanDataset(week_label="cw20-2023", ip_version=4)

    def add_domain(name, zone, in_toplist, resolved, quic, connections, ip_value=None):
        record = records[name]
        assert (record.zone, record.in_toplist) == (zone, in_toplist)
        dataset.results.append(
            DomainScanResult(
                domain=record,
                resolved=resolved,
                quic_support=quic,
                resolved_ip=IpAddr(ip_value, 4) if ip_value else None,
                connections=connections,
            )
        )
        return record

    spin_conn = make_connection_record(
        spin_rtts=[40.0, 42.0],
        stack_rtts=[38.0],
        behaviour=SpinBehaviour.SPIN,
        ip_value=0x0A000001,
        domain="spin.com",
    )
    zero_conn = make_connection_record(
        spin_rtts=[],
        stack_rtts=[30.0],
        behaviour=SpinBehaviour.ALL_ZERO,
        ip_value=0x0A000002,
        domain="zero.com",
    )
    zero_conn.observation.values_seen = {False}
    grease_conn = make_connection_record(
        spin_rtts=[2.0, 40.0],
        stack_rtts=[38.0],
        behaviour=SpinBehaviour.GREASE,
        ip_value=0x0A000003,
        domain="grease.org",
    )
    toplist_conn = make_connection_record(
        spin_rtts=[],
        stack_rtts=[20.0],
        behaviour=SpinBehaviour.ALL_ONE,
        ip_value=0x0A000004,
        domain="one.net",
    )
    toplist_conn.observation.values_seen = {True}

    add_domain("spin.com", "com", False, True, True, [spin_conn], 0x0A000001)
    add_domain("zero.com", "com", False, True, True, [zero_conn], 0x0A000002)
    add_domain("grease.org", "org", False, True, True, [grease_conn], 0x0A000003)
    add_domain("unresolved.com", "com", False, False, False, [])
    add_domain("noquic.xyz", "xyz", False, True, False, [], 0x0A000005)
    add_domain("one.net", "net", True, True, True, [toplist_conn], 0x0A000004)
    return population, dataset


class TestSupportOverview:
    def test_domain_counts(self):
        population, dataset = build_fixture()
        overview = support_overview(dataset, population)
        czds = overview.row(ListGroup.CZDS)
        assert czds.domains_total == 5
        assert czds.domains_resolved == 4
        assert czds.domains_quic == 3
        assert czds.domains_spin == 1  # grease does not count as Spin
        assert czds.domain_spin_share == pytest.approx(1 / 3)

    def test_ip_counts(self):
        population, dataset = build_fixture()
        overview = support_overview(dataset, population)
        czds = overview.row(ListGroup.CZDS)
        assert czds.ips_resolved == 4  # includes the non-QUIC resolved IP
        assert czds.ips_quic == 3
        assert czds.ips_spin == 1
        assert czds.ip_spin_share == pytest.approx(1 / 3)

    def test_group_separation(self):
        population, dataset = build_fixture()
        overview = support_overview(dataset, population)
        toplists = overview.row(ListGroup.TOPLISTS)
        assert toplists.domains_total == 1
        assert toplists.domains_quic == 1
        assert toplists.domains_spin == 0
        cno = overview.row(ListGroup.COM_NET_ORG)
        assert cno.domains_total == 4  # com, com, org, com (not xyz)

    def test_empty_groups_safe(self):
        population = Population(PopulationConfig(toplist_domains=0, czds_domains=0))
        dataset = ScanDataset(week_label="x", ip_version=4)
        overview = support_overview(dataset, population)
        assert overview.row(ListGroup.CZDS).domain_spin_share == 0.0


class TestConfigurationTable:
    def test_behaviour_counts(self):
        population, dataset = build_fixture()
        table = configuration_table(dataset, population)
        czds = table.row(ListGroup.CZDS)
        assert czds.quic_domains == 3
        assert czds.all_zero == 1
        assert czds.spin == 1
        assert czds.grease == 1
        assert czds.all_one == 0
        top = table.row(ListGroup.TOPLISTS)
        assert top.all_one == 1

    def test_shares(self):
        population, dataset = build_fixture()
        czds = configuration_table(dataset, population).row(ListGroup.CZDS)
        assert czds.all_zero_share == pytest.approx(1 / 3)
        assert czds.grease_share == pytest.approx(1 / 3)


class TestOrganizationTable:
    def test_attribution_and_ranks(self):
        asdb = build_default_asdb()
        import ipaddress

        from repro.internet.providers import provider_by_name

        cf_base = int(
            ipaddress.ip_network(provider_by_name("cloudflare").v4_prefix).network_address
        )
        hostinger_base = int(
            ipaddress.ip_network(provider_by_name("hostinger").v4_prefix).network_address
        )
        records = []
        for i in range(5):
            records.append(
                make_connection_record(
                    spin_rtts=[],
                    stack_rtts=[10.0],
                    behaviour=SpinBehaviour.ALL_ZERO,
                    ip_value=cf_base + 50 + i,
                )
            )
        for i in range(3):
            records.append(
                make_connection_record(
                    spin_rtts=[40.0],
                    stack_rtts=[38.0],
                    behaviour=SpinBehaviour.SPIN,
                    ip_value=hostinger_base + 20 + i,
                )
            )
        table = organization_table(records, asdb, top_n=2)
        assert table.top_rows[0].org_name == "Cloudflare"
        assert table.top_rows[0].total_rank == 1
        assert table.top_rows[0].spin_connections == 0
        assert table.top_rows[0].spin_rank is None
        hostinger = table.row("Hostinger")
        assert hostinger.spin_connections == 3
        assert hostinger.spin_share == 1.0
        assert hostinger.spin_rank == 1
        assert table.total_connections == 8

    def test_failed_connections_excluded(self):
        asdb = build_default_asdb()
        record = make_connection_record(spin_rtts=[], stack_rtts=[])
        record.success = False
        table = organization_table([record], asdb)
        assert table.total_connections == 0

    def test_unknown_org_lookup_raises(self):
        asdb = build_default_asdb()
        table = organization_table([], asdb)
        with pytest.raises(KeyError):
            table.row("Nonexistent Org")


class TestWebserverShares:
    def test_spinning_only_filter(self):
        records = [
            make_connection_record(
                spin_rtts=[40.0], stack_rtts=[38.0],
                behaviour=SpinBehaviour.SPIN, server_header="LiteSpeed",
            ),
            make_connection_record(
                spin_rtts=[40.0], stack_rtts=[38.0],
                behaviour=SpinBehaviour.SPIN, server_header="LiteSpeed",
            ),
            make_connection_record(
                spin_rtts=[], stack_rtts=[30.0],
                behaviour=SpinBehaviour.ALL_ZERO, server_header="cloudflare",
            ),
        ]
        spinning = webserver_shares(records, spinning_only=True)
        assert len(spinning) == 1
        assert spinning[0].server_header == "LiteSpeed"
        assert spinning[0].share == 1.0
        everything = webserver_shares(records, spinning_only=False)
        assert {s.server_header for s in everything} == {"LiteSpeed", "cloudflare"}
        assert everything[0].connections == 2
