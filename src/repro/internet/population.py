"""Synthetic target population (Section 3.1 of the paper).

The paper assembles ~219 M domains from four toplists (Alexa, Umbrella,
Majestic, Tranco) and 1140 CZDS zone files.  This module builds a
scaled-down population with the same structure: two population views
(*Toplists* and *CZDS*, with .com/.net/.org as the highlighted CZDS
subset), per-domain DNS resolution (A and AAAA), hosting-provider
assignment, and host (IP) allocation with provider-specific
domains-per-IP density.

Webserver stacks — and with them spin-bit capability — are attached to
*serving entities*: one stack per host for small deployments (one
server, one software), one stack per domain (vhost) for dense shared
hosting.  Stacks evolve week over week as a Markov process whose
stationary distribution is exactly the calibrated stack mix: any single
week reproduces the paper's cross-sectional tables, while the weekly
persistence produces the longitudinal churn Figure 2 measures.

Scale is configurable; all published ratios (resolve rates, QUIC rates,
provider mixes) are preserved, so Tables 1-4 reproduce at any scale with
counts shrinking proportionally.

The domain index is the unit of determinism: each aligned block of
:data:`BLOCK_SIZE` indexes draws its records from its own RNG stream,
so any range — a worker's shard, one domain, the whole list — is drawn
from the blocks it touches, in any process, without the domains before
it.  A population at the paper's scale is scanned without ever holding
its domain list.
"""

from __future__ import annotations

import functools
import hashlib
import ipaddress
from dataclasses import dataclass
from enum import Enum
from typing import Iterable

from repro._util.rng import derive_rng
from repro._util.stats import weighted_choice
from repro.internet.asdb import IpAddr
from repro.internet.providers import NO_QUIC_PROVIDERS, PROVIDERS, Provider

__all__ = [
    "DomainRecord",
    "ListGroup",
    "Population",
    "PopulationConfig",
    "build_population",
    "names_digest",
]

#: CZDS zone mix: .com dominates, matching the paper's com/net/org share
#: of 183.0 M / 216.5 M ≈ 84.5 %.
_ZONES = (
    ("com", 0.715),
    ("net", 0.075),
    ("org", 0.055),
    ("info", 0.03),
    ("xyz", 0.03),
    ("online", 0.025),
    ("site", 0.02),
    ("shop", 0.02),
    ("top", 0.015),
    ("store", 0.015),
)
_ZONE_NAMES = tuple(zone for zone, _ in _ZONES)
_ZONE_WEIGHTS = tuple(weight for _, weight in _ZONES)

_COM_NET_ORG = frozenset({"com", "net", "org"})

_TOPLIST_SOURCES = ("alexa", "umbrella", "majestic", "tranco")

#: Providers denser than this run per-domain (vhost) stacks; sparser
#: ones run one stack per host.
_VHOST_DENSITY_THRESHOLD = 40.0

#: How far the weekly stack-churn walk looks back before falling back to
#: the entity's base draw (covers the whole campaign and then some).
_MAX_CHURN_LOOKBACK_WEEKS = 160

#: Records are drawn in aligned blocks of this many indexes, one RNG
#: stream per block: a range costs the blocks it touches, and one stream
#: seeding is shared by 64 records instead of paid per record.
BLOCK_SIZE = 64


def names_digest(targets: Iterable[DomainRecord]) -> tuple[int, str]:
    """``(count, digest)`` of the names joined by ``|``, in order, hashed
    one name at a time so an iterator of targets never becomes a list."""
    names = hashlib.sha256()
    count = 0
    for domain in targets:
        if count:
            names.update(b"|")
        names.update(domain.name.encode("utf-8"))
        count += 1
    return count, names.hexdigest()[:16]


class ListGroup(Enum):
    """The population views of Tables 1/3/4."""

    TOPLISTS = "toplists"
    CZDS = "czds"
    COM_NET_ORG = "com/net/org"

    def holds(self, domain: DomainRecord) -> bool:
        """Whether ``domain`` belongs to this view."""
        if self is ListGroup.TOPLISTS:
            return domain.in_toplist
        return domain.in_czds if self is ListGroup.CZDS else domain.in_com_net_org


@dataclass(frozen=True)
class PopulationConfig:
    """Scale and rate knobs of the synthetic population.

    Default rates are the paper's CW 20/2023 IPv4 marginals: 71 % / 85 %
    of toplist / CZDS domains resolve; 28.2 % / 12.1 % of resolved
    domains answer QUIC.  ``zone_density_scale`` shrinks the zone-view
    domains-per-IP densities so host pools keep statistical granularity
    at reduced population scales (relative densities across providers —
    which drive the IP-level spin shares — are preserved).
    """

    toplist_domains: int = 4_000
    czds_domains: int = 30_000
    resolve_rate_toplist: float = 0.709
    resolve_rate_czds: float = 0.849
    quic_rate_toplist: float = 0.282
    quic_rate_czds: float = 0.121
    zone_density_scale: float = 0.15
    #: Deployment-stability tiers: (weekly keep-probability, weight).
    #: Each serving entity is assigned one tier; the complement of the
    #: keep-probability triggers a re-draw from the provider's stack
    #: mix.  The heterogeneity produces the spread-out week counts of
    #: Figure 2 (a single churn rate would bunch domains binomially).
    stack_persistence_tiers: tuple[tuple[float, float], ...] = (
        (0.997, 0.25),
        (0.99, 0.25),
        (0.975, 0.25),
        (0.94, 0.25),
    )
    seed: int = 20230520

    def __post_init__(self) -> None:
        if self.toplist_domains < 0 or self.czds_domains < 0:
            raise ValueError("domain counts must be non-negative")
        for rate in (
            self.resolve_rate_toplist,
            self.resolve_rate_czds,
            self.quic_rate_toplist,
            self.quic_rate_czds,
        ):
            if not 0.0 <= rate <= 1.0:
                raise ValueError("rates must be in [0, 1]")
        if not 0.0 < self.zone_density_scale <= 1.0:
            raise ValueError("zone_density_scale must be in (0, 1]")
        if not self.stack_persistence_tiers:
            raise ValueError("at least one persistence tier is required")
        for persistence, weight in self.stack_persistence_tiers:
            if not 0.0 <= persistence < 1.0:
                raise ValueError("tier persistence must be in [0, 1)")
            if weight <= 0.0:
                raise ValueError("tier weights must be positive")


@dataclass
class DomainRecord:
    """One domain of the target population."""

    name: str
    zone: str
    in_toplist: bool
    in_czds: bool
    toplist_sources: tuple[str, ...] = ()
    resolves: bool = False
    quic_enabled: bool = False
    provider_name: str | None = None
    host_index_v4: int | None = None
    has_aaaa: bool = False
    host_index_v6: int | None = None

    @property
    def in_com_net_org(self) -> bool:
        return self.in_czds and self.zone in _COM_NET_ORG


@dataclass
class _HostPool:
    """One provider's server pool for a (group, IP version) region.

    ``address_stride`` spaces hosts inside the prefix: 1 for single-AS
    providers, one AS-slice width for aggregated long-tail providers so
    every host falls into its own synthetic origin AS (Table 2's broad
    base of small organizations).
    """

    provider: Provider
    base_address: int
    version: int
    size: int
    label: str
    address_stride: int = 1

    def ip_of(self, index: int) -> IpAddr:
        if not 0 <= index < self.size:
            raise IndexError(f"host index {index} outside pool of {self.size}")
        return IpAddr(
            value=self.base_address + index * self.address_stride,
            version=self.version,
        )


class Population:
    """Domains by index, plus host pools and stack processes.

    Indexes ``[0, toplist_domains)`` are toplist domains, the rest CZDS.
    Record *i* is drawn from the RNG stream of its aligned block
    (``derive_rng(seed, "population-block", i // BLOCK_SIZE)``), in index
    order inside the block, so any range is regenerated from the blocks
    it touches, identically in every process.
    """

    def __init__(self, config: PopulationConfig):
        self.config = config
        self._pools = _build_pools(config)
        self._domains: list[DomainRecord] | None = None
        #: (entity label, epoch) → stack name; bounded by one campaign.
        self._stack_cache: dict[tuple[str, int], str] = {}
        self._persistence_cache: dict[str, float] = {}

    # ------------------------------------------------------------------
    # Lookups
    # ------------------------------------------------------------------

    def resolved_ip(self, domain: DomainRecord, version: int) -> IpAddr | None:
        """The address serving ``domain`` over IPv4 or IPv6, which the
        scanner connects to and the adoption tables count; ``None`` if
        ``domain`` does not resolve (over IPv6: has no AAAA record)."""
        if not domain.resolves or (version == 6 and not domain.has_aaaa):
            return None
        pool, index = self._placement(domain, version)
        return pool.ip_of(index)

    def stack_of(self, domain: DomainRecord, version: int, epoch: int = 0) -> str | None:
        """The webserver stack answering for ``domain`` in week ``epoch``.

        ``None`` for domains hosted by non-QUIC providers.  For dense
        shared hosting — and for IPv6 deployments that assign (nearly)
        one address per domain — the stack is a per-domain (vhost)
        property; for the long tail over IPv4 it is the host's.  Week
        over week the stack follows the Markov churn process (see
        module docs).
        """
        if domain.provider_name is None:
            raise ValueError(f"{domain.name} does not resolve")
        provider = _provider(domain.provider_name)
        if not provider.supports_quic:
            return None
        group = "toplist" if domain.in_toplist else "zone"
        if version == 4:
            density = (
                provider.domains_per_ip_toplist_v4
                if group == "toplist"
                else provider.domains_per_ip_zone_v4
            )
        else:
            density = provider.domains_per_ip_v6
        vhost = density >= _VHOST_DENSITY_THRESHOLD or (
            version == 6 and provider.domains_per_ip_v6 < 3.0
        )
        if vhost:
            entity = f"vhost/{domain.name}"
        else:
            pool, index = self._placement(domain, version)
            entity = f"host/{pool.label}/{index}"
        return self._stack_at(provider, entity, epoch)

    def provider_of(self, domain: DomainRecord) -> Provider:
        """The hosting provider of a resolved domain."""
        if domain.provider_name is None:
            raise ValueError(f"{domain.name} does not resolve")
        return _provider(domain.provider_name)

    # ------------------------------------------------------------------
    # Range-addressed access
    # ------------------------------------------------------------------

    @property
    def domain_count(self) -> int:
        return self.config.toplist_domains + self.config.czds_domains

    @property
    def domains(self) -> list[DomainRecord]:
        """Every domain as one list, drawn on first touch and kept.

        The scan path never asks for it (it reads :meth:`iter_targets`
        and :meth:`materialize_range`), so a scan holds no list.
        """
        if self._domains is None:
            self._domains = self.materialize_range(0, self.domain_count)
        return self._domains

    def materialize_range(self, start: int, stop: int) -> list[DomainRecord]:
        """The domains at positions ``[start, stop)``, from their blocks."""
        start, stop = max(0, start), min(stop, self.domain_count)
        if start >= stop:
            return []
        records = []
        for block in range(start // BLOCK_SIZE, -(-stop // BLOCK_SIZE)):
            records.extend(self._draw_block(block))
        skip = start % BLOCK_SIZE
        return records[skip : skip + stop - start]

    def iter_targets(self):
        """Yield every domain in population order, one block at a time."""
        for block in range(-(-self.domain_count // BLOCK_SIZE)):
            yield from self._draw_block(block)

    @functools.cached_property
    def targets_digest(self) -> tuple[int, str]:
        """:func:`names_digest` of every domain, from one walk of the
        population however many scan fingerprints ask for it."""
        return names_digest(self.iter_targets())

    def trim_caches(self, limit: int = 200_000) -> None:
        """Drop stack/persistence caches once they exceed ``limit``.

        Vhost serving entities are per-domain, so over a 10 M-domain scan
        these caches would otherwise grow without bound.  Entries are
        pure functions of ``(seed, entity, epoch)``, so trimming changes
        timing, never results.
        """
        if len(self._stack_cache) > limit:
            self._stack_cache.clear()
        if len(self._persistence_cache) > limit:
            self._persistence_cache.clear()

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _draw_block(self, block: int) -> list[DomainRecord]:
        """Draw the records of one aligned block from its own stream."""
        config = self.config
        rng = derive_rng(config.seed, "population-block", block)
        first = block * BLOCK_SIZE
        records = []
        for index in range(first, min(first + BLOCK_SIZE, self.domain_count)):
            toplist = index < config.toplist_domains
            sources: tuple[str, ...] = ()
            zone = weighted_choice(rng, _ZONE_NAMES, _ZONE_WEIGHTS)
            if toplist:
                name = f"top{index:07d}.{zone}"
                # Tagged with the toplists that contain it
                # (deduplicated union, Sec. 3.1.1).
                sources = tuple(
                    source for source in _TOPLIST_SOURCES if rng.random() < 0.45
                ) or ("tranco",)
            else:
                name = f"domain{index - config.toplist_domains:09d}.{zone}"
            record = DomainRecord(
                name=name,
                zone=zone,
                in_toplist=toplist,
                in_czds=not toplist,
                toplist_sources=sources,
            )
            self._resolve(record, rng, "toplist" if toplist else "zone")
            records.append(record)
        return records

    def _resolve(self, record: DomainRecord, rng, group: str) -> None:
        """DNS + hosting assignment for one domain."""
        toplist = group == "toplist"
        config = self.config
        if rng.random() >= (
            config.resolve_rate_toplist if toplist else config.resolve_rate_czds
        ):
            return
        record.resolves = True
        record.quic_enabled = rng.random() < (
            config.quic_rate_toplist if toplist else config.quic_rate_czds
        )
        provider = weighted_choice(
            rng, *_hosting_mix(record.quic_enabled, group, record.zone in _COM_NET_ORG)
        )
        record.provider_name = provider.name
        record.host_index_v4 = rng.randrange(self._pools[provider.name, group, 4].size)
        aaaa = (
            provider.aaaa_fraction_toplist if toplist else provider.aaaa_fraction_zone
        )
        if record.quic_enabled and provider.aaaa_spin_stack_multiplier != 1.0:
            # Dual-stack deployment correlates with the (modern) server
            # stack: spin-capable vhosts are likelier to carry AAAA records
            # (Table 4's >60 % IPv6 host-level spin support).
            from repro.web.server_profiles import STACKS

            stack_name = self.stack_of(record, 6, epoch=0)
            if stack_name is not None and STACKS[stack_name].spin_config.ever_spins:
                aaaa = min(1.0, aaaa * provider.aaaa_spin_stack_multiplier)
            else:
                aaaa *= 0.6
        if rng.random() < aaaa:
            record.has_aaaa = True
            pool_v6 = self._pools[provider.name, group, 6]
            record.host_index_v6 = rng.randrange(pool_v6.size)

    def _placement(self, domain: DomainRecord, version: int) -> tuple[_HostPool, int]:
        if domain.provider_name is None:
            raise ValueError(f"{domain.name} does not resolve")
        group = "toplist" if domain.in_toplist else "zone"
        provider = _provider(domain.provider_name)
        if version == 4:
            index = domain.host_index_v4
        elif version == 6:
            if not domain.has_aaaa:
                raise ValueError(f"{domain.name} has no AAAA record")
            index = domain.host_index_v6
        else:
            raise ValueError(f"bad IP version {version}")
        if index is None:
            raise ValueError(f"{domain.name} has no IPv{version} host")
        return self._pools[(provider.name, group, version)], index

    def _entity_persistence(self, entity: str) -> float:
        """The entity's stability tier (stable once assigned)."""
        cached = self._persistence_cache.get(entity)
        if cached is None:
            rng = derive_rng(self.config.seed, "persistence", entity)
            tiers = self.config.stack_persistence_tiers
            cached = weighted_choice(
                rng, [p for p, _ in tiers], [w for _, w in tiers]
            )
            self._persistence_cache[entity] = cached
        return cached

    def _stack_at(self, provider: Provider, entity: str, epoch: int) -> str:
        """Evaluate the Markov stack process for ``entity`` at ``epoch``.

        The stack changes between week ``e-1`` and ``e`` with the
        complement of the entity's persistence tier; the value after a
        change (and the base value) is drawn i.i.d. from the provider's
        mix, so every week's marginal distribution is exactly the mix.
        """
        cached = self._stack_cache.get((entity, epoch))
        if cached is not None:
            return cached
        seed = self.config.seed
        redraw_probability = 1.0 - self._entity_persistence(entity)
        draw_epoch = None
        floor = max(0, epoch - _MAX_CHURN_LOOKBACK_WEEKS)
        for candidate in range(epoch, floor - 1, -1):
            flip = derive_rng(seed, "stack-flip", entity, candidate).random()
            if flip < redraw_probability:
                draw_epoch = candidate
                break
        rng = derive_rng(seed, "stack-draw", entity, draw_epoch)
        names = [name for name, _ in provider.stack_mix]
        weights = [weight for _, weight in provider.stack_mix]
        stack = weighted_choice(rng, names, weights)
        self._stack_cache[(entity, epoch)] = stack
        return stack


def _fit_to_prefix(
    prefix: str, offset: int, size: int, stride: int, provider_name: str
) -> int:
    """Clamp a host pool to its provider's prefix capacity.

    At paper-scale populations (10M+ zone domains) the long-tail
    aggregate's one-host-per-/24 layout outgrows its /12; beyond that
    point additional domains share the existing hosts (a higher
    effective domains-per-IP) instead of failing the build.  Pools
    that fit are returned unchanged, so every previously-buildable
    population is bit-identical.
    """
    capacity = ipaddress.ip_network(prefix).num_addresses
    available = (capacity - offset) // stride
    if available < 1:
        raise ValueError(
            f"{provider_name}: prefix {prefix} exhausted at offset {offset}"
        )
    return min(size, available)


_PROVIDER_INDEX = {p.name: p for p in (*PROVIDERS, *NO_QUIC_PROVIDERS)}


def _provider(name: str) -> Provider:
    return _PROVIDER_INDEX[name]


def build_population(config: PopulationConfig | None = None) -> Population:
    """Generate the synthetic population for one measurement campaign.

    Deterministic in ``config.seed``: the same configuration always
    yields the identical population, hosts, and stack processes.
    """
    return Population(config or PopulationConfig())


@functools.cache
def _hosting_mix(quic: bool, group: str, com_net_org: bool):
    """The providers a resolved domain is hosted by, and their weights."""
    catalog = PROVIDERS if quic else NO_QUIC_PROVIDERS
    if group == "toplist":
        return catalog, tuple(p.quic_weight_toplist for p in catalog)
    if com_net_org:
        return catalog, tuple(p.quic_weight_zone * p.cno_multiplier for p in catalog)
    return catalog, tuple(p.quic_weight_zone for p in catalog)


def _build_pools(config: PopulationConfig) -> dict[tuple[str, str, int], _HostPool]:
    """Size and place every provider's host pools.

    Pool sizes follow the expected number of domains a provider serves
    in each (group, version) region divided by its (scaled) domains-
    per-IP density; regions are laid out sequentially inside the
    provider's prefix.
    """
    expected = {
        "toplist": config.toplist_domains * config.resolve_rate_toplist,
        "zone": config.czds_domains * config.resolve_rate_czds,
    }
    quic_rate = {
        "toplist": config.quic_rate_toplist,
        "zone": config.quic_rate_czds,
    }
    pools = {}

    for catalog, is_quic in ((PROVIDERS, True), (NO_QUIC_PROVIDERS, False)):
        weight_total = {
            "toplist": sum(p.quic_weight_toplist for p in catalog),
            "zone": sum(p.quic_weight_zone for p in catalog),
        }
        for provider in catalog:
            # Long-tail aggregates spread one host per AS slice (a /24
            # for IPv4, a /64-aligned block for IPv6).
            regions = {
                4: [provider.v4_prefix, 16, 256 if provider.asn == 0 else 1],
                6: [provider.v6_prefix, 16, (1 << 64) if provider.asn == 0 else 1],
            }
            for group in ("toplist", "zone"):
                weight = (
                    provider.quic_weight_toplist
                    if group == "toplist"
                    else provider.quic_weight_zone
                ) / weight_total[group]
                share = quic_rate[group] if is_quic else (1.0 - quic_rate[group])
                domain_count = expected[group] * share * weight
                if group == "toplist":
                    dpi_v4 = provider.domains_per_ip_toplist_v4
                    dpi_v6 = max(1.0, provider.domains_per_ip_v6)
                else:
                    dpi_v4 = max(
                        1.0, provider.domains_per_ip_zone_v4 * config.zone_density_scale
                    )
                    dpi_v6 = max(
                        1.0, provider.domains_per_ip_v6 * config.zone_density_scale
                    )
                for version, density in ((4, dpi_v4), (6, dpi_v6)):
                    prefix, offset, stride = regions[version]
                    size = _fit_to_prefix(
                        prefix, offset, max(1, round(domain_count / density)),
                        stride, provider.name,
                    )
                    pools[(provider.name, group, version)] = _HostPool(
                        provider=provider,
                        base_address=int(ipaddress.ip_network(prefix).network_address)
                        + offset,
                        version=version,
                        size=size,
                        label=f"{provider.name}/{group}/v{version}",
                        address_stride=stride,
                    )
                    regions[version][1] += size * stride + 64
    return pools

