"""Adoption and configuration — Tables 1 (IPv4), 3 and 4 (IPv6) of the paper.

Per population view (Toplists, CZDS, com/net/org), Tables 1 and 4 count
domains and distinct IPs — total, resolved, QUIC, and the share of QUIC
ones that spin; Table 3 classifies every QUIC domain into All Zero / All
One / Spin / Grease (Section 4.3).  All three count one scan's
``{domain: flags}`` map (:mod:`repro.analysis.compliance`: from scan
results or a week file's ``domains``) over the input list, which alone
gives list views and resolved addresses.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Mapping

from repro.analysis.compliance import FLAG_SEEN_SPIN, FLAG_SUCCESS, seen_behaviours
from repro.core.classify import SpinBehaviour, classify_domain
from repro.internet.population import ListGroup, Population

__all__ = [
    "ConfigurationRow",
    "ConfigurationTable",
    "SupportOverview",
    "SupportRow",
    "domain_tables",
]


@dataclass(frozen=True)
class SupportRow:
    """One population view's adoption numbers (a Table 1/4 block)."""

    group: ListGroup
    domains_total: int
    domains_resolved: int
    domains_quic: int
    domains_spin: int
    ips_resolved: int
    ips_quic: int
    ips_spin: int

    @property
    def domain_spin_share(self) -> float:
        """Spin domains as a fraction of QUIC domains (Table 1 Spin %)."""
        return self.domains_spin / self.domains_quic if self.domains_quic else 0.0

    @property
    def ip_spin_share(self) -> float:
        """Spin IPs as a fraction of QUIC IPs."""
        return self.ips_spin / self.ips_quic if self.ips_quic else 0.0

    @property
    def domains_per_quic_ip(self) -> float:
        """QUIC domains per QUIC IP (the paper's density observation)."""
        return self.domains_quic / self.ips_quic if self.ips_quic else 0.0


@dataclass(frozen=True)
class SupportOverview:
    """All three population views of one weekly scan."""

    week_label: str
    ip_version: int
    rows: dict[ListGroup, SupportRow]

    def row(self, group: ListGroup) -> SupportRow:
        return self.rows[group]


@dataclass(frozen=True)
class ConfigurationRow:
    """One population view's Table 3 row."""

    group: ListGroup
    quic_domains: int
    all_zero: int
    all_one: int
    spin: int
    grease: int

    @property
    def all_zero_share(self) -> float:
        return self.all_zero / self.quic_domains if self.quic_domains else 0.0

    @property
    def all_one_share(self) -> float:
        return self.all_one / self.quic_domains if self.quic_domains else 0.0

    @property
    def grease_share(self) -> float:
        return self.grease / self.quic_domains if self.quic_domains else 0.0


@dataclass(frozen=True)
class ConfigurationTable:
    """Table 3 for all three population views."""

    week_label: str
    ip_version: int
    rows: dict[ListGroup, ConfigurationRow]

    def row(self, group: ListGroup) -> ConfigurationRow:
        return self.rows[group]


def domain_tables(
    flags: Mapping[str, int],
    population: Population,
    ip_version: int,
    week_label: str,
) -> tuple[SupportOverview, ConfigurationTable]:
    """Tables 1/4 and 3 of one scan, in one walk of the input list.

    A domain is QUIC when ``flags`` says a connection succeeded, Spin
    when a successful connection passed the grease filter with both
    spin values (the column Tables 1 and 3 share), and its Table 3 class
    is :func:`classify_domain` of the behaviours its successful
    connections showed.  A resolved domain counts toward its views'
    resolved totals whether or not ``flags`` names it; its address
    (:meth:`Population.resolved_ip`) is the one its connections used.
    """
    domains = {group: Counter() for group in ListGroup}
    ips = {group: {"resolved": set(), "quic": set(), "spin": set()} for group in ListGroup}
    classes = {group: Counter() for group in ListGroup}
    for domain in population.iter_targets():
        views = [group for group in ListGroup if group.holds(domain)]
        ip = population.resolved_ip(domain, ip_version)
        states, verdict = ["total"], None
        if ip is not None:
            states.append("resolved")
            bits = flags.get(domain.name, 0)
            if bits & FLAG_SUCCESS:
                states.append("quic")
                verdict = classify_domain(seen_behaviours(bits))
                if bits & FLAG_SEEN_SPIN:
                    states.append("spin")
        for view in views:
            domains[view].update(states)
            for state in states[1:]:
                ips[view][state].add(ip)
            if verdict is not None:
                classes[view][verdict] += 1

    support, configuration = {}, {}
    for group in ListGroup:
        count, addresses, verdicts = domains[group], ips[group], classes[group]
        support[group] = SupportRow(
            group=group,
            domains_total=count["total"],
            domains_resolved=count["resolved"],
            domains_quic=count["quic"],
            domains_spin=count["spin"],
            ips_resolved=len(addresses["resolved"]),
            ips_quic=len(addresses["quic"]),
            ips_spin=len(addresses["spin"]),
        )
        configuration[group] = ConfigurationRow(
            group=group,
            quic_domains=count["quic"],
            all_zero=verdicts[SpinBehaviour.ALL_ZERO],
            all_one=verdicts[SpinBehaviour.ALL_ONE],
            spin=verdicts[SpinBehaviour.SPIN],
            grease=verdicts[SpinBehaviour.GREASE],
        )
    return (
        SupportOverview(week_label=week_label, ip_version=ip_version, rows=support),
        ConfigurationTable(week_label=week_label, ip_version=ip_version, rows=configuration),
    )
