"""Table aggregations (support overview, AS organizations, configuration)
on hand-constructed scan data with known ground truth.

Tables 1, 3 and 4 come from one pass over a scan's per-domain flags
(:func:`domain_tables`); every case here is also checked against the
reference folds over the scan results (:mod:`tables_oracle`), by hand
and over random scans (a Hypothesis differential).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_connection_record
from repro.analysis.adoption import domain_tables
from repro.analysis.asorg import organization_table
from repro.analysis.compliance import domain_flags
from repro.analysis.webserver import webserver_shares
from repro.core.classify import SpinBehaviour
from repro.internet.asdb import build_default_asdb
from repro.internet.population import (
    ListGroup,
    Population,
    PopulationConfig,
)
from repro.web.scanner import DomainScanResult, ScanDataset

from tables_oracle import reference_tables

#: At this seed the fixture's six domains resolve to distinct IPv4
#: addresses, but for exactly one CZDS domain, which is in com/net/org;
#: one resolved CZDS domain is outside com/net/org.
FIXTURE_SEED = 213
#: ``values_seen`` of a connection by its spin mask (bit 0: a 0 was seen).
VALUES = {0: set(), 1: {False}, 2: {True}, 3: {False, True}}


def connection(population, domain, behaviour, success=True, mask=None, ip_version=4):
    """A connection of ``domain`` to its resolved address."""
    record = make_connection_record(behaviour=behaviour, domain=domain.name)
    record.ip = population.resolved_ip(domain, ip_version)
    record.ip_version = ip_version
    record.success = success
    if mask is None:
        mask = {SpinBehaviour.ALL_ZERO: 1, SpinBehaviour.ALL_ONE: 2}.get(behaviour, 3)
    record.observation.values_seen = set(VALUES[mask])
    return record


def scan_result(population, domain, connections=(), ip_version=4):
    """``domain``'s result as the scanner builds it: resolution and
    address from the population, QUIC from the connections."""
    ip = population.resolved_ip(domain, ip_version)
    return DomainScanResult(
        domain=domain,
        resolved=ip is not None,
        quic_support=any(c.success for c in connections),
        resolved_ip=ip,
        connections=list(connections),
    )


def tables(population, dataset):
    """Both routes over ``dataset``; they must agree."""
    got = domain_tables(
        domain_flags(dataset.results), population, dataset.ip_version, dataset.week_label
    )
    assert got == reference_tables(dataset, population)
    return got


def small_population(seed=3, toplist=6, czds=24):
    return Population(PopulationConfig(toplist_domains=toplist, czds_domains=czds, seed=seed))


def build_fixture():
    """Five CZDS domains and one toplist domain with known behaviour.

    The domains, their resolution and addresses come from a generated
    population; behaviours go to the domains by role, and what the
    tables count comes from the scan results built here.
    """
    population = small_population(FIXTURE_SEED, toplist=1, czds=5)
    records = list(population.iter_targets())
    addresses = {r.name: population.resolved_ip(r, 4) for r in records}
    resolved = [ip for ip in addresses.values() if ip is not None]
    assert len(set(resolved)) == len(resolved) == 5
    (top,) = [r for r in records if r.in_toplist]
    czds = [r for r in records if r.in_czds]
    (unresolved,) = [r for r in czds if addresses[r.name] is None]
    (outside,) = [r for r in czds if not ListGroup.COM_NET_ORG.holds(r)]
    assert ListGroup.COM_NET_ORG.holds(unresolved) and addresses[outside.name]
    spin, zero, grease = [r for r in czds if r.name not in (unresolved.name, outside.name)]
    behaviours = {
        spin.name: SpinBehaviour.SPIN,
        zero.name: SpinBehaviour.ALL_ZERO,
        grease.name: SpinBehaviour.GREASE,
        top.name: SpinBehaviour.ALL_ONE,
    }
    dataset = ScanDataset(week_label="cw20-2023", ip_version=4)
    for record in records:
        behaviour = behaviours.get(record.name)
        connections = [] if behaviour is None else [connection(population, record, behaviour)]
        dataset.results.append(scan_result(population, record, connections))
    return population, dataset


class TestSupportOverview:
    def test_domain_counts(self):
        overview, _ = tables(*build_fixture())
        czds = overview.row(ListGroup.CZDS)
        assert czds.domains_total == 5
        assert czds.domains_resolved == 4
        assert czds.domains_quic == 3
        assert czds.domains_spin == 1  # grease does not count as Spin
        assert czds.domain_spin_share == pytest.approx(1 / 3)

    def test_ip_counts(self):
        overview, _ = tables(*build_fixture())
        czds = overview.row(ListGroup.CZDS)
        assert czds.ips_resolved == 4  # includes the non-QUIC resolved IP
        assert czds.ips_quic == 3
        assert czds.ips_spin == 1
        assert czds.ip_spin_share == pytest.approx(1 / 3)

    def test_group_separation(self):
        overview, _ = tables(*build_fixture())
        toplists = overview.row(ListGroup.TOPLISTS)
        assert toplists.domains_total == 1
        assert toplists.domains_quic == 1
        assert toplists.domains_spin == 0
        cno = overview.row(ListGroup.COM_NET_ORG)
        assert cno.domains_total == 4  # every CZDS domain but the one outside

    def test_empty_groups_safe(self):
        population = Population(PopulationConfig(toplist_domains=0, czds_domains=0))
        dataset = ScanDataset(week_label="x", ip_version=4)
        overview, configuration = tables(population, dataset)
        assert overview.row(ListGroup.CZDS).domain_spin_share == 0.0
        assert configuration.row(ListGroup.CZDS).all_zero_share == 0.0


class TestConfigurationTable:
    def test_behaviour_counts(self):
        _, table = tables(*build_fixture())
        czds = table.row(ListGroup.CZDS)
        assert czds.quic_domains == 3
        assert czds.all_zero == 1
        assert czds.spin == 1
        assert czds.grease == 1
        assert czds.all_one == 0
        top = table.row(ListGroup.TOPLISTS)
        assert top.all_one == 1

    def test_shares(self):
        _, table = tables(*build_fixture())
        czds = table.row(ListGroup.CZDS)
        assert czds.all_zero_share == pytest.approx(1 / 3)
        assert czds.grease_share == pytest.approx(1 / 3)


def one_domain_scan(population, pick, connections_of, ip_version=4):
    """A full scan of ``population`` in which the first domain ``pick``
    accepts gets ``connections_of(domain)``; every other domain none."""
    dataset = ScanDataset(week_label="cw20-2023", ip_version=ip_version)
    chosen = None
    for domain in population.iter_targets():
        connections = ()
        if chosen is None and pick(domain):
            chosen, connections = domain, connections_of(domain)
        dataset.results.append(scan_result(population, domain, connections, ip_version))
    assert chosen is not None
    return dataset, chosen


def czds_row(population, dataset):
    overview, configuration = tables(population, dataset)
    return overview.row(ListGroup.CZDS), configuration.row(ListGroup.CZDS)


class TestEdgeCases:
    """Each case through both routes, plus what it must count."""

    def test_resolved_but_not_quic(self):
        population = small_population()
        dataset, _ = one_domain_scan(
            population,
            lambda d: d.in_czds and d.resolves,
            lambda d: [connection(population, d, SpinBehaviour.SPIN, success=False)],
        )
        support, configuration = czds_row(population, dataset)
        assert support.domains_resolved > 0 and support.ips_resolved > 0
        assert support.domains_quic == support.ips_quic == configuration.quic_domains == 0

    def test_v6_without_aaaa_is_unresolved(self):
        population = small_population(czds=64)
        dataset, chosen = one_domain_scan(
            population, lambda d: d.in_czds and d.resolves and not d.has_aaaa, lambda d: [],
            ip_version=6,
        )
        assert population.resolved_ip(chosen, 6) is None
        assert population.resolved_ip(chosen, 4) is not None
        support, _ = czds_row(population, dataset)
        czds = [d for d in population.iter_targets() if d.in_czds]
        assert support.domains_resolved == sum(d.resolves and d.has_aaaa for d in czds)

    def test_success_with_only_no_packets(self):
        """QUIC, but in no Table 3 column."""
        population = small_population()
        dataset, _ = one_domain_scan(
            population,
            lambda d: d.in_czds and d.resolves,
            lambda d: [connection(population, d, SpinBehaviour.NO_PACKETS, mask=0)],
        )
        support, configuration = czds_row(population, dataset)
        assert support.domains_quic == configuration.quic_domains == 1
        assert support.domains_spin == 0
        assert configuration.all_zero + configuration.all_one == 0
        assert configuration.spin + configuration.grease == 0

    def test_mixed_all_zero_and_all_one_is_grease(self):
        population = small_population()
        dataset, _ = one_domain_scan(
            population,
            lambda d: d.in_czds and d.resolves,
            lambda d: [
                connection(population, d, SpinBehaviour.ALL_ZERO),
                connection(population, d, SpinBehaviour.ALL_ONE),
            ],
        )
        _, configuration = czds_row(population, dataset)
        assert (configuration.grease, configuration.quic_domains) == (1, 1)

    def test_both_spin_values_only_on_a_failed_connection(self):
        population = small_population()
        dataset, _ = one_domain_scan(
            population,
            lambda d: d.in_czds and d.resolves,
            lambda d: [
                connection(population, d, SpinBehaviour.SPIN, success=False, mask=3),
                connection(population, d, SpinBehaviour.ALL_ZERO),
            ],
        )
        support, configuration = czds_row(population, dataset)
        assert (support.domains_quic, support.domains_spin) == (1, 0)
        assert configuration.all_zero == 1

    def test_duplicate_domain_result_last_wins(self):
        population = small_population()
        dataset, chosen = one_domain_scan(
            population,
            lambda d: d.in_czds and d.resolves,
            lambda d: [connection(population, d, SpinBehaviour.SPIN)],
        )
        again = [connection(population, chosen, SpinBehaviour.ALL_ONE)]
        dataset.results.append(scan_result(population, chosen, again))
        support, configuration = czds_row(population, dataset)
        assert (support.domains_spin, configuration.all_one) == (0, 1)

    def test_empty_population(self):
        population = Population(PopulationConfig(toplist_domains=0, czds_domains=0))
        for ip_version in (4, 6):
            overview, configuration = tables(
                population, ScanDataset(week_label="x", ip_version=ip_version)
            )
            assert all(row.domains_total == 0 for row in overview.rows.values())
            assert all(row.quic_domains == 0 for row in configuration.rows.values())


CONNECTIONS = st.lists(
    st.tuples(
        st.booleans(), st.sampled_from(list(SpinBehaviour)), st.sampled_from(sorted(VALUES))
    ),
    max_size=3,
)


class TestAgainstReferenceFolds:
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**16),
        toplist=st.integers(min_value=0, max_value=12),
        czds=st.integers(min_value=0, max_value=40),
        ip_version=st.sampled_from([4, 6]),
        data=st.data(),
    )
    def test_random_scans(self, seed, toplist, czds, ip_version, data):
        """Random connections on every resolved domain, and random
        repeated results, give the reference folds' tables."""
        population = small_population(seed, toplist, czds)
        dataset = ScanDataset(week_label="cw20-2023", ip_version=ip_version)
        domains = list(population.iter_targets())
        repeats = data.draw(st.lists(st.sampled_from(domains), max_size=4)) if domains else []
        for domain in domains + repeats:
            connections = []
            if population.resolved_ip(domain, ip_version) is not None:
                connections = [
                    connection(population, domain, behaviour, success, mask, ip_version)
                    for success, behaviour, mask in data.draw(CONNECTIONS)
                ]
            dataset.results.append(scan_result(population, domain, connections, ip_version))
        tables(population, dataset)


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
        hostinger = next(row for row in table.all_rows if row.org_name == "Hostinger")
        assert hostinger.spin_connections == 3
        assert hostinger.spin_share == 1.0
        assert hostinger.spin_rank == 1
        assert sum(row.total_connections for row in table.all_rows) == 8

    def test_failed_connections_excluded(self):
        asdb = build_default_asdb()
        record = make_connection_record(spin_rtts=[], stack_rtts=[])
        record.success = False
        table = organization_table([record], asdb)
        assert table.all_rows == []


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
