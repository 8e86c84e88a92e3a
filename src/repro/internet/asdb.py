"""IP-to-AS-organization attribution.

The paper maps each contacted IP to its origin ASN using BGP data from
RIPE's RIS archive and then to an organization via CAIDA's as2org
dataset (Section 4.2).  The synthetic equivalent is built directly from
the provider catalog: every provider owns one IPv4 and one IPv6 prefix;
aggregated long-tail providers ("<other hosting>", …) are expanded into
many small synthetic ASes — one per /24-equivalent slice of their
prefix — so the Table 2 analysis sees a realistic long tail of distinct
organizations rather than one artificial giant.
"""

from __future__ import annotations

import functools
import ipaddress
import zlib
from dataclasses import dataclass
from typing import Iterable

from repro.internet.providers import NO_QUIC_PROVIDERS, PROVIDERS, Provider

__all__ = ["AsDatabase", "AsEntry", "IpAddr", "build_default_asdb"]

#: Base of the synthetic private-use ASN range for long-tail slices.
_SYNTHETIC_ASN_BASE = 4_200_000_000
#: Long-tail slice width: one synthetic AS per 2**_SLICE_HOST_BITS
#: addresses (a /24 for IPv4).
_SLICE_HOST_BITS_V4 = 8
_SLICE_HOST_BITS_V6 = 64


@dataclass(frozen=True)
class IpAddr:
    """A compact IP address: integer value plus version."""

    value: int
    version: int  # 4 or 6

    def __post_init__(self) -> None:
        if self.version not in (4, 6):
            raise ValueError(f"bad IP version {self.version}")
        limit = 1 << (32 if self.version == 4 else 128)
        if not 0 <= self.value < limit:
            raise ValueError("IP integer out of range for its version")

    def __str__(self) -> str:
        if self.version == 4:
            return str(ipaddress.IPv4Address(self.value))
        return str(ipaddress.IPv6Address(self.value))


@dataclass(frozen=True)
class AsEntry:
    """Result of an AS lookup: origin ASN and its organization."""

    asn: int
    org_name: str


@dataclass(frozen=True)
class _PrefixRecord:
    network: int
    prefix_length: int
    version: int
    provider: Provider


class AsDatabase:
    """Longest-prefix-match IP→AS lookup built from a provider catalog."""

    def __init__(self, providers: Iterable[Provider]):
        self._records: list[_PrefixRecord] = []
        for provider in providers:
            for prefix, version in (
                (provider.v4_prefix, 4),
                (provider.v6_prefix, 6),
            ):
                network = ipaddress.ip_network(prefix)
                if network.version != version:
                    raise ValueError(f"{provider.name}: {prefix} is not IPv{version}")
                self._records.append(
                    _PrefixRecord(
                        network=int(network.network_address),
                        prefix_length=network.prefixlen,
                        version=version,
                        provider=provider,
                    )
                )
        # Longer prefixes win, the earlier provider on a tie.
        self._records.sort(key=lambda record: -record.prefix_length)
        # Per IP version, one ``{network >> shift: record}`` table per
        # distinct prefix length, longest first: a lookup is one dict
        # probe per length in use, not one comparison per prefix.
        self._tables: dict[int, list[tuple[int, dict[int, _PrefixRecord]]]] = {4: [], 6: []}
        for record in self._records:
            tables = self._tables[record.version]
            shift = (32 if record.version == 4 else 128) - record.prefix_length
            if not tables or tables[-1][0] != shift:
                tables.append((shift, {}))
            tables[-1][1].setdefault(record.network >> shift, record)
        #: Per IP version, the widest aligned block (``2**bits``
        #: addresses) in which every address maps to the same entry: no
        #: wider than the longest prefix in use nor than a long-tail slice.
        self.block_bits = {
            version: min([slice_bits] + [shift for shift, _ in self._tables[version]])
            for version, slice_bits in ((4, _SLICE_HOST_BITS_V4), (6, _SLICE_HOST_BITS_V6))
        }

    def lookup(self, ip: IpAddr) -> AsEntry | None:
        """Map an IP to its AS entry, or ``None`` if unrouted."""
        return self.lookup_value(ip.value, ip.version)

    def lookup_value(self, value: int, version: int) -> AsEntry | None:
        """:meth:`lookup` for an address held as integer and version."""
        for shift, table in self._tables[version]:
            record = table.get(value >> shift)
            if record is not None:
                return self._entry_for(record, value)
        return None

    def _entry_for(self, record: _PrefixRecord, value: int) -> AsEntry:
        provider = record.provider
        if provider.asn:
            return AsEntry(asn=provider.asn, org_name=provider.org_name)
        # Long-tail provider: derive a synthetic per-slice AS.
        host_bits = _SLICE_HOST_BITS_V4 if record.version == 4 else _SLICE_HOST_BITS_V6
        slice_index = (value - record.network) >> host_bits
        # A stable (process-independent) per-provider ASN block.
        provider_block = zlib.crc32(provider.name.encode("utf-8")) % 997
        asn = _SYNTHETIC_ASN_BASE + provider_block * 100_000 + slice_index
        return AsEntry(asn=asn, org_name=f"{provider.org_name.strip('<>')} #{slice_index}")


@functools.cache
def build_default_asdb() -> AsDatabase:
    """The AS database covering the full default provider catalog.

    Built once per process: the catalog is constant and the database is
    never mutated after construction.
    """
    return AsDatabase((*PROVIDERS, *NO_QUIC_PROVIDERS))
