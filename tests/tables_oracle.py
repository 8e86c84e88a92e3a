"""The reference Tables 1, 3 and 4 the one-pass counting is checked against.

Two independent folds over a scan's :class:`DomainScanResult` objects —
never over flag maps — each deduplicating the results by domain name
(last wins) and taking list views from the result's own record:

* :class:`SupportFold` — Tables 1 and 4: resolved / QUIC / Spin domains
  and their distinct addresses (the connections' ``ip`` for QUIC and
  Spin, ``resolved_ip`` for resolved);
* :class:`ConfigurationFold` — Table 3: :func:`classify_domain` of each
  QUIC domain's successful connections.

:func:`repro.analysis.adoption.domain_tables` must agree with both.
"""

from __future__ import annotations

from typing import Iterable

from repro.analysis.adoption import (
    ConfigurationRow,
    ConfigurationTable,
    SupportOverview,
    SupportRow,
)
from repro.core.classify import SpinBehaviour, classify_domain
from repro.internet.population import ListGroup, Population


def _views(domain) -> list[ListGroup]:
    views = []
    if domain.in_toplist:
        views.append(ListGroup.TOPLISTS)
    if domain.in_czds:
        views.append(ListGroup.CZDS)
        if domain.in_com_net_org:
            views.append(ListGroup.COM_NET_ORG)
    return views


class _GroupCounters:
    """Mutable per-view accumulator feeding one :class:`SupportRow`."""

    def __init__(self) -> None:
        self.domains_resolved = 0
        self.domains_quic = 0
        self.domains_spin = 0
        self.ips_resolved: set = set()
        self.ips_quic: set = set()
        self.ips_spin: set = set()


class SupportFold:
    def __init__(self, population: Population) -> None:
        self._population = population
        self._counters = {group: _GroupCounters() for group in ListGroup}

    def update_many(self, results: Iterable) -> None:
        for result in results:
            if not result.resolved:
                continue
            views = [self._counters[group] for group in _views(result.domain)]
            resolved_ip = result.resolved_ip
            quic = result.quic_support
            quic_ips: list = []
            spin_ips: list = []
            if quic:
                for connection in result.connections:
                    if not connection.success:
                        continue
                    quic_ips.append(connection.ip)
                    if connection.behaviour.value == "spin":
                        spin_ips.append(connection.ip)
            for view in views:
                view.domains_resolved += 1
                if resolved_ip is not None:
                    view.ips_resolved.add(resolved_ip)
                if not quic:
                    continue
                view.domains_quic += 1
                view.ips_quic.update(quic_ips)
                if spin_ips:
                    view.domains_spin += 1
                    view.ips_spin.update(spin_ips)

    def finish(self, week_label: str, ip_version: int) -> SupportOverview:
        rows = {}
        for group in ListGroup:
            counter = self._counters[group]
            rows[group] = SupportRow(
                group=group,
                domains_total=sum(
                    group in _views(domain) for domain in self._population.iter_targets()
                ),
                domains_resolved=counter.domains_resolved,
                domains_quic=counter.domains_quic,
                domains_spin=counter.domains_spin,
                ips_resolved=len(counter.ips_resolved),
                ips_quic=len(counter.ips_quic),
                ips_spin=len(counter.ips_spin),
            )
        return SupportOverview(week_label=week_label, ip_version=ip_version, rows=rows)


class ConfigurationFold:
    def __init__(self) -> None:
        self._quic_domains = {group: 0 for group in ListGroup}
        self._counters = {
            group: {behaviour: 0 for behaviour in SpinBehaviour} for group in ListGroup
        }

    def update_many(self, results: Iterable) -> None:
        for result in results:
            if not result.quic_support:
                continue
            behaviour = classify_domain(
                [c.behaviour for c in result.connections if c.success]
            )
            for view in _views(result.domain):
                self._quic_domains[view] += 1
                self._counters[view][behaviour] += 1

    def finish(self, week_label: str, ip_version: int) -> ConfigurationTable:
        rows = {}
        for group in ListGroup:
            counters = self._counters[group]
            rows[group] = ConfigurationRow(
                group=group,
                quic_domains=self._quic_domains[group],
                all_zero=counters[SpinBehaviour.ALL_ZERO],
                all_one=counters[SpinBehaviour.ALL_ONE],
                spin=counters[SpinBehaviour.SPIN],
                grease=counters[SpinBehaviour.GREASE],
            )
        return ConfigurationTable(week_label=week_label, ip_version=ip_version, rows=rows)


def reference_tables(dataset, population: Population):
    """``(SupportOverview, ConfigurationTable)`` of ``dataset`` by the
    reference folds."""
    results_by_name = {result.domain.name: result for result in dataset.results}
    support, configuration = SupportFold(population), ConfigurationFold()
    support.update_many(results_by_name.values())
    configuration.update_many(results_by_name.values())
    return (
        support.finish(dataset.week_label, dataset.ip_version),
        configuration.finish(dataset.week_label, dataset.ip_version),
    )
