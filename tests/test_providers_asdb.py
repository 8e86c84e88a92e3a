"""Provider catalog and the synthetic AS database."""

import dataclasses
import ipaddress
import random

import pytest

from repro.internet.asdb import AsDatabase, IpAddr, build_default_asdb
from repro.internet.providers import (
    NO_QUIC_PROVIDERS,
    PROVIDERS,
    provider_by_name,
)
from repro.web.server_profiles import STACKS


class TestProviderCatalog:
    def test_stack_mixes_reference_known_stacks(self):
        for provider in PROVIDERS:
            for stack_name, _ in provider.stack_mix:
                assert stack_name in STACKS, f"{provider.name} uses unknown {stack_name}"

    def test_stack_mix_weights_sum_to_one(self):
        for provider in PROVIDERS:
            assert sum(w for _, w in provider.stack_mix) == pytest.approx(1.0)

    def test_table2_spin_expectations(self):
        """Expected per-connection spin shares derived from the stack
        mixes match the paper's Table 2 (within a few points)."""
        expectations = {
            "cloudflare": 0.0,
            "google": 0.001,
            "fastly": 0.0,
            "hostinger": 0.519,
            "ovh": 0.604,
            "a2hosting": 0.591,
            "singlehop": 0.591,
            "servercentral": 0.676,
        }
        for name, target in expectations.items():
            provider = provider_by_name(name)
            expected = sum(
                weight * STACKS[stack].spin_config.expected_spin_share()
                for stack, weight in provider.stack_mix
            )
            assert expected == pytest.approx(target, abs=0.04), name

    def test_prefixes_do_not_overlap(self):
        networks = [
            ipaddress.ip_network(p.v4_prefix)
            for p in (*PROVIDERS, *NO_QUIC_PROVIDERS)
        ]
        for index, a in enumerate(networks):
            for b in networks[index + 1 :]:
                assert not a.overlaps(b), f"{a} overlaps {b}"

    def test_lookup_by_name(self):
        assert provider_by_name("hostinger").org_name == "Hostinger"
        with pytest.raises(KeyError):
            provider_by_name("aws")

    def test_no_quic_providers_have_empty_mixes(self):
        for provider in NO_QUIC_PROVIDERS:
            assert not provider.supports_quic
            assert provider.stack_mix == ()


class TestAsDatabase:
    def test_named_provider_lookup(self):
        asdb = build_default_asdb()
        cloudflare = provider_by_name("cloudflare")
        base = int(ipaddress.ip_network(cloudflare.v4_prefix).network_address)
        entry = asdb.lookup(IpAddr(base + 100, 4))
        assert entry.asn == 13335
        assert entry.org_name == "Cloudflare"

    def test_ipv6_lookup(self):
        asdb = build_default_asdb()
        google = provider_by_name("google")
        base = int(ipaddress.ip_network(google.v6_prefix).network_address)
        entry = asdb.lookup(IpAddr(base + 5, 6))
        assert entry.org_name == "Google"

    def test_unrouted_ip_returns_none(self):
        asdb = build_default_asdb()
        assert asdb.lookup(IpAddr(int(ipaddress.IPv4Address("1.1.1.1")), 4)) is None

    def test_long_tail_slices_are_distinct_orgs(self):
        asdb = build_default_asdb()
        tail = provider_by_name("other-hosting")
        base = int(ipaddress.ip_network(tail.v4_prefix).network_address)
        first = asdb.lookup(IpAddr(base + 10, 4))
        second = asdb.lookup(IpAddr(base + 10 + 256, 4))
        assert first.org_name != second.org_name
        assert first.asn != second.asn

    def test_same_slice_same_org(self):
        asdb = build_default_asdb()
        tail = provider_by_name("other-hosting")
        base = int(ipaddress.ip_network(tail.v4_prefix).network_address)
        assert asdb.lookup(IpAddr(base + 1, 4)) == asdb.lookup(IpAddr(base + 2, 4))

    def test_version_mismatch_prefix_rejected(self):
        bad = provider_by_name("cloudflare")
        object.__setattr__  # frozen dataclass: construct a raw fake instead
        with pytest.raises(ValueError):
            AsDatabase(
                [
                    type(bad)(
                        **{
                            **bad.__dict__,
                            "name": "broken",
                            "v4_prefix": "2606:4700::/32",
                        }
                    )
                ]
            )


class TestIpAddr:
    def test_rendering(self):
        assert str(IpAddr(int(ipaddress.IPv4Address("10.0.0.1")), 4)) == "10.0.0.1"
        assert str(IpAddr(1, 6)) == "::1"

    def test_validation(self):
        with pytest.raises(ValueError):
            IpAddr(2**32, 4)
        with pytest.raises(ValueError):
            IpAddr(1, 5)

    def test_hashable_for_set_counting(self):
        assert len({IpAddr(1, 4), IpAddr(1, 4), IpAddr(1, 6)}) == 2


def linear_lookup(asdb: AsDatabase, ip: IpAddr):
    """``AsDatabase.lookup`` as it was: one comparison per prefix, in the
    database's order (longest first, catalog order on a tie)."""
    total_bits = 32 if ip.version == 4 else 128
    for record in asdb._records:
        if record.version != ip.version:
            continue
        shift = total_bits - record.prefix_length
        if (ip.value >> shift) == (record.network >> shift):
            return asdb._entry_for(record, ip.value)
    return None


def _with_prefixes(template, name, asn, v4_prefix, v6_prefix):
    return dataclasses.replace(
        template, name=name, org_name=name.title(), asn=asn,
        v4_prefix=v4_prefix, v6_prefix=v6_prefix,
    )


class TestPrefixTables:
    """The per-length dict probe against the linear scan it replaced."""

    @pytest.fixture(scope="class")
    def databases(self):
        template = provider_by_name("cloudflare")
        tail = provider_by_name("other-hosting")
        nested = AsDatabase([
            _with_prefixes(template, "outer", 1, "10.0.0.0/8", "2001:db8::/32"),
            _with_prefixes(template, "inner", 2, "10.1.0.0/16", "2001:db8:1::/48"),
            # The same prefixes again: the earlier provider wins the tie.
            _with_prefixes(template, "shadowed", 3, "10.1.0.0/16", "2001:db8:1::/48"),
            _with_prefixes(tail, "slices", 0, "10.1.2.0/24", "2001:db8:1:2::/64"),
            _with_prefixes(template, "host", 4, "10.1.2.3/32", "2001:db8:1:2::3/128"),
            _with_prefixes(template, "everything", 5, "0.0.0.0/0", "::/0"),
        ])
        return build_default_asdb(), nested

    def test_every_prefix_boundary(self, databases):
        for asdb in databases:
            for record in asdb._records:
                bits = 32 if record.version == 4 else 128
                size = 1 << (bits - record.prefix_length)
                for value in (
                    record.network - 1, record.network, record.network + 1,
                    record.network + size - 1, record.network + size,
                    record.network + size + 1,
                ):
                    if 0 <= value < 1 << bits:
                        ip = IpAddr(value, record.version)
                        assert asdb.lookup(ip) == linear_lookup(asdb, ip), str(ip)

    def test_random_addresses(self, databases):
        rng = random.Random(20230520)
        for asdb in databases:
            for _ in range(5_000):
                for ip in (
                    IpAddr(rng.getrandbits(32), 4), IpAddr(rng.getrandbits(128), 6),
                ):
                    assert asdb.lookup(ip) == linear_lookup(asdb, ip), str(ip)
                    assert asdb.lookup_value(ip.value, ip.version) == asdb.lookup(ip)

    def test_longest_prefix_and_ties(self, databases):
        _, nested = databases
        def v4(text):
            return IpAddr(int(ipaddress.IPv4Address(text)), 4)

        assert nested.lookup(v4("10.1.2.3")).org_name == "Host"
        assert nested.lookup(v4("10.1.2.4")).org_name == "Slices #0"
        assert nested.lookup(v4("10.1.3.4")).org_name == "Inner"
        assert nested.lookup(v4("10.2.0.1")).org_name == "Outer"
        assert nested.lookup(v4("11.0.0.1")).org_name == "Everything"
        assert nested.lookup(IpAddr(1, 6)).org_name == "Everything"

    def test_the_default_database_is_built_once(self):
        assert build_default_asdb() is build_default_asdb()


def _block_samples(asdb: AsDatabase, rng: random.Random):
    """``(address, version)`` pairs to hold to their block: both ends of
    every prefix and of four long-tail slices per long-tail prefix, one
    either side of each, and random addresses inside each prefix."""
    for record in asdb._records:
        bits = 32 if record.version == 4 else 128
        size = 1 << (bits - record.prefix_length)
        slice_size = 1 << (8 if record.version == 4 else 64)
        starts = [record.network, record.network + size]
        if not record.provider.asn:
            starts += [record.network + k * slice_size for k in (1, 2, 255, 256)]
        for start in starts:
            for value in (start - 1, start, start + 1):
                if 0 <= value < 1 << bits:
                    yield value, record.version
        for _ in range(20):
            yield record.network + rng.randrange(size), record.version


class TestAddressBlocks:
    """``AsDatabase.block_bits``: every address of an aligned block maps
    to its first address's entry, and the width comes from the catalog."""

    def assert_blocks_hold(self, asdb):
        rng = random.Random(20230520)
        for value, version in _block_samples(asdb, rng):
            bits = asdb.block_bits[version]
            first = value >> bits << bits
            entry = asdb.lookup_value(first, version)
            assert asdb.lookup_value(value, version) == entry, (value, version)
            # ... and so does a random address of the same block.
            other = first + rng.randrange(1 << bits)
            assert asdb.lookup_value(other, version) == entry, (other, version)

    def test_default_catalog(self):
        asdb = build_default_asdb()
        assert asdb.block_bits == {4: 8, 6: 64}
        self.assert_blocks_hold(asdb)

    def test_a_longer_prefix_narrows_the_block(self):
        template = provider_by_name("cloudflare")
        narrow = AsDatabase([
            *PROVIDERS,
            _with_prefixes(template, "narrow", 7, "10.9.8.16/28", "2001:db8:9::/48"),
        ])
        assert narrow.block_bits == {4: 4, 6: 64}
        self.assert_blocks_hold(narrow)
        # The default width would merge the /28 with its neighbours.
        inside = int(ipaddress.IPv4Address("10.9.8.16"))
        assert narrow.lookup_value(inside, 4).org_name == "Narrow"
        assert narrow.lookup_value(inside >> 8 << 8, 4) is None
