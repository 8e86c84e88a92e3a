"""The synthetic domain population and its stack processes."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.internet.population import (
    ListGroup,
    PopulationConfig,
    build_population,
)
from repro.web.server_profiles import STACKS


@pytest.fixture(scope="module")
def population():
    return build_population(
        PopulationConfig(toplist_domains=600, czds_domains=3000, seed=42)
    )


def members(population, group):
    """The domains of one population view, in list order."""
    return [d for d in population.domains if group.holds(d)]


class TestConstruction:
    def test_counts(self, population):
        assert len(members(population, ListGroup.TOPLISTS)) == 600
        assert len(members(population, ListGroup.CZDS)) == 3000

    def test_com_net_org_is_czds_subset(self, population):
        cno = members(population, ListGroup.COM_NET_ORG)
        czds = set(d.name for d in members(population, ListGroup.CZDS))
        assert all(d.name in czds for d in cno)
        assert all(d.zone in ("com", "net", "org") for d in cno)
        # ~84.5 % of CZDS domains live in com/net/org.
        assert 0.78 < len(cno) / 3000 < 0.90

    def test_resolve_rates_near_marginals(self, population):
        czds = members(population, ListGroup.CZDS)
        resolved = sum(d.resolves for d in czds) / len(czds)
        assert 0.80 < resolved < 0.89

        toplist = members(population, ListGroup.TOPLISTS)
        resolved_top = sum(d.resolves for d in toplist) / len(toplist)
        assert 0.63 < resolved_top < 0.78

    def test_quic_rates_near_marginals(self, population):
        czds = [d for d in members(population, ListGroup.CZDS) if d.resolves]
        quic = sum(d.quic_enabled for d in czds) / len(czds)
        assert 0.09 < quic < 0.16

    def test_determinism(self):
        config = PopulationConfig(toplist_domains=50, czds_domains=100, seed=5)
        a = build_population(config)
        b = build_population(config)
        assert [d.provider_name for d in a.domains] == [
            d.provider_name for d in b.domains
        ]

    def test_unresolved_have_no_provider(self, population):
        for domain in population.domains:
            if not domain.resolves:
                assert domain.provider_name is None


class TestHostLookup:
    def test_ip_stable_and_in_provider_prefix(self, population):
        import ipaddress

        from repro.internet.providers import provider_by_name

        domain = next(d for d in population.domains if d.quic_enabled)
        ip_a = population.resolved_ip(domain, 4)
        ip_b = population.resolved_ip(domain, 4)
        assert ip_a == ip_b
        provider = provider_by_name(domain.provider_name)
        network = ipaddress.ip_network(provider.v4_prefix)
        assert ipaddress.IPv4Address(ip_a.value) in network

    def test_v6_requires_aaaa(self, population):
        domain = next(
            d for d in population.domains if d.resolves and not d.has_aaaa
        )
        assert population.resolved_ip(domain, 6) is None
        assert population.resolved_ip(domain, 4) is not None

    def test_unresolved_rejected(self, population):
        domain = next(d for d in population.domains if not d.resolves)
        assert population.resolved_ip(domain, 4) is None
        assert population.resolved_ip(domain, 6) is None

    def test_bad_version_rejected(self, population):
        domain = next(d for d in population.domains if d.resolves)
        with pytest.raises(ValueError):
            population.resolved_ip(domain, 5)


class TestStackProcess:
    def test_stack_is_stable_within_a_week(self, population):
        domain = next(d for d in population.domains if d.quic_enabled)
        assert population.stack_of(domain, 4, epoch=10) == population.stack_of(
            domain, 4, epoch=10
        )

    def test_stack_names_valid(self, population):
        for domain in population.domains:
            if domain.quic_enabled:
                stack = population.stack_of(domain, 4, epoch=0)
                assert stack in STACKS

    def test_weekly_marginal_matches_mix(self, population):
        """Stationarity: across many domains and weeks, hyperscaler
        domains never spin while shared-hosting domains spin at roughly
        the calibrated stack-mix rate."""
        from repro.internet.providers import provider_by_name

        hostinger = [
            d
            for d in population.domains
            if d.quic_enabled and d.provider_name == "hostinger"
        ]
        if len(hostinger) < 10:
            pytest.skip("too few hostinger domains at this scale")
        spin_capable = 0
        total = 0
        for domain in hostinger:
            for epoch in (0, 20, 40, 60):
                stack = population.stack_of(domain, 4, epoch)
                total += 1
                spin_capable += STACKS[stack].spin_config.ever_spins
        share = spin_capable / total
        expected = sum(
            w
            for s, w in provider_by_name("hostinger").stack_mix
            if STACKS[s].spin_config.ever_spins
        )
        assert expected - 0.15 < share < expected + 0.15

    def test_stack_persists_across_most_weeks(self, population):
        """With persistence 0.97, consecutive weeks rarely differ."""
        changes = 0
        comparisons = 0
        domains = [d for d in population.domains if d.quic_enabled][:150]
        for domain in domains:
            previous = population.stack_of(domain, 4, epoch=0)
            for epoch in range(1, 9):
                current = population.stack_of(domain, 4, epoch)
                comparisons += 1
                changes += current != previous
                previous = current
        assert changes / comparisons < 0.08

    def test_churn_actually_happens_long_term(self, population):
        domains = [d for d in population.domains if d.quic_enabled][:200]
        changed = sum(
            population.stack_of(d, 4, 0) != population.stack_of(d, 4, 60)
            for d in domains
        )
        assert changed > 0


class TestConfigValidation:
    def test_rates_validated(self):
        with pytest.raises(ValueError):
            PopulationConfig(quic_rate_czds=1.5)
        with pytest.raises(ValueError):
            PopulationConfig(zone_density_scale=0.0)
        with pytest.raises(ValueError):
            PopulationConfig(stack_persistence_tiers=((1.0, 1.0),))
        with pytest.raises(ValueError):
            PopulationConfig(stack_persistence_tiers=())
        with pytest.raises(ValueError):
            PopulationConfig(toplist_domains=-1)


#: Sizes that put block edges (63/64/65) and a toplist -> CZDS switch
#: inside a block (70) on the table, beside arbitrary ones.
SIZES = st.one_of(st.sampled_from([0, 1, 63, 64, 65, 70, 130]), st.integers(0, 200))


def _range_checks(make, data) -> None:
    """``make()`` builds one population; any range, any index and a
    fresh instance agree with the whole list."""
    population = make()
    whole = population.domains
    n = len(whole)
    assert n == population.domain_count
    edges = [i for i in (0, 63, 64, 65, 127, 128, 129, n) if i <= n]
    bound = st.one_of(st.sampled_from(edges), st.integers(0, n))
    a, b = sorted((data.draw(bound, label="a"), data.draw(bound, label="b")))
    assert population.materialize_range(a, b) == whole[a:b]
    assert make().materialize_range(a, b) == whole[a:b]
    for index in {a, b - 1, n - 1} & set(range(n)):
        assert population.materialize_range(index, index + 1) == [whole[index]]
    assert list(population.iter_targets()) == whole


class TestBlockDraws:
    """Record *i* is a function of (config, i // BLOCK_SIZE) and
    its place in that block, so every access path draws the same list."""

    @settings(max_examples=40, deadline=None)
    @given(toplist=SIZES, czds=SIZES, seed=st.integers(0, 2**32), data=st.data())
    def test_any_range_is_the_lists_slice(self, toplist, czds, seed, data):
        config = PopulationConfig(toplist_domains=toplist, czds_domains=czds, seed=seed)
        _range_checks(lambda: build_population(config), data)
