"""One-call regeneration of the paper's full result set.

:func:`generate_paper_report` runs the complete study — IPv4 and IPv6
reference scans, the accuracy pool, the 12-week longitudinal study —
over one population and renders every table and figure as text.  It is
the library's "reproduce the paper" entry point (`repro report` on the
command line); :meth:`PaperReport.metrics` names its numbers for the
band table the benchmark harness judges (``benchmarks/bands.json``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.analysis.accuracy import accuracy_study
from repro.analysis.adoption import domain_tables
from repro.analysis.asorg import organization_table
from repro.analysis.compliance import ComplianceFold, domain_flags, scan_flags
from repro.analysis.report import (
    render_compliance_histogram,
    render_configuration_table,
    render_org_table,
    render_series_summary,
    render_support_overview,
)
from repro.analysis.versions import version_distribution
from repro.analysis.webserver import webserver_shares
from repro.campaign.schedule import DEFAULT_CAMPAIGN
from repro.internet.asdb import build_default_asdb
from repro.internet.population import ListGroup, Population
from repro.web.scanner import ScanConfig, Scanner

__all__ = ["PaperReport", "generate_paper_report"]

#: Table 2's named rows: metric key, AS organization, ``OrgRow`` fields.
_ORGS = (
    ("cloudflare", "Cloudflare", "total_rank spin_share"),
    ("google", "Google", "total_rank spin_share"),
    ("fastly", "Fastly", "spin_share"),
    ("hostinger", "Hostinger", "total_connections spin_share spin_rank"),
    ("ovh", "OVH SAS", "total_connections spin_share"),
    ("a2_hosting", "A2 Hosting", "total_connections spin_share"),
    ("singlehop", "SingleHop", "total_connections spin_share"),
    ("server_central", "Server Central", "total_connections spin_share"),
    ("other", "<other>", "total_connections spin_share"),
)


def _ratio(a: object, b: object, field: str) -> float:
    """``a.field / b.field``, NaN when the denominator is zero."""
    denominator = getattr(b, field)
    return getattr(a, field) / denominator if denominator else math.nan


@dataclass
class PaperReport:
    """The rendered report plus the underlying analysis objects.

    ``records`` is the accuracy pool (the CW 20 IPv4 connections plus two
    re-scans of every spin-active domain, ``spin_domains``); ``webservers``
    are the Section 4.2 shares over the CW 20 IPv4 connections alone.
    """

    text: str
    support_v4: object
    support_v6: object
    organizations: object
    configuration: object
    compliance: object | None
    accuracy: object
    records: list
    webservers: list
    spin_domains: list

    def metrics(self) -> dict[str, float]:
        """Every number of the paper's tables and figures, by name.

        A relation between two numbers (a ratio, a difference, a rank) is
        a number of its own, so that one band rule judges them all.  An
        organization or rank missing from the run is missing here.
        """
        m: dict[str, float] = {}
        v4, v6 = {}, {}
        for group in ListGroup:
            key = group.name.lower()
            v4[key], v6[key] = self.support_v4.row(group), self.support_v6.row(group)
            config = self.configuration.row(group)
            for field in ("domain_spin_share", "ip_spin_share", "domains_quic"):
                m[f"table1.{field}.{key}"] = getattr(v4[key], field)
                m[f"table4.{field}.{key}"] = getattr(v6[key], field)
            for field in ("all_zero_share", "all_one_share", "grease_share"):
                m[f"table3.{field}.{key}"] = getattr(config, field)
            m[f"table3.spin_minus_table1.{key}"] = config.spin - v4[key].domains_spin
        for field, x, y in (
            ("domain_spin_share", "czds", "toplists"),
            ("domain_spin_share", "com_net_org", "czds"),
            ("ip_spin_share", "czds", "toplists"),
            ("domains_per_quic_ip", "czds", "toplists"),
        ):
            m[f"table1.{field}.{x}_over_{y}"] = _ratio(v4[x], v4[y], field)
        for field, key in (
            ("ip_spin_share", "czds"), ("domains_resolved", "czds"),
            ("domains_per_quic_ip", "czds"), ("domain_spin_share", "toplists"),
        ):
            m[f"table4.{field}.{key}_v6_over_v4"] = _ratio(v6[key], v4[key], field)
        czds = self.configuration.row(ListGroup.CZDS)
        m["table3.all_zero_over_all_one.czds"] = czds.all_zero / max(czds.all_one, 1)
        orgs = {row.org_name: row for row in self.organizations.all_rows}
        orgs["<other>"] = self.organizations.other
        for key, name, fields in _ORGS:
            for field in fields.split():
                value = getattr(orgs.get(name), field, None)
                if value is not None:
                    m[f"table2.{key}.{field}"] = value
        accuracy = self.accuracy
        spin = accuracy.spin_received
        for field in ("connections", "overestimate_share", "underestimate_share",
                      "within_25ms_share", "over_200ms_share"):
            m[f"fig3.{field}"] = getattr(spin, field)
        m["fig3.changed_share"] = accuracy.reordering.changed_share
        m["fig3.improved_share"] = accuracy.reordering.improved_share
        m["fig3.sorted_within_25ms_delta"] = abs(
            accuracy.spin_sorted.within_25ms_share - spin.within_25ms_share
        )
        for field in ("within_25pct_share", "within_factor2_share", "over_factor3_share"):
            m[f"fig4.{field}"] = getattr(spin, field)
        m["fig4.factor2_minus_25pct"] = spin.within_factor2_share - spin.within_25pct_share
        m["fig4.grease_over_spin_connections"] = _ratio(
            accuracy.grease_received, spin, "connections"
        )
        if self.compliance is not None:
            compliance = self.compliance
            observed, rfc9000 = compliance.observed_shares, compliance.rfc9000_shares
            m["fig2.n_weeks"] = compliance.n_weeks
            m["fig2.considered_domains"] = compliance.considered_domains
            m["fig2.observed_share_sum"] = sum(observed)
            m["fig2.all_weeks_share"] = observed[-1]
            m["fig2.all_weeks_minus_rfc9000"] = observed[-1] - rfc9000[-1]
            m["fig2.all_weeks_minus_rfc9312"] = observed[-1] - compliance.rfc9312_shares[-1]
            m["fig2.middle_mass_minus_rfc9000"] = sum(observed[2:9]) - sum(rfc9000[2:9])
            m["fig2.max_other_share"] = max(observed[:-1])
            m["fig2.min_other_share"] = min(observed[:-1])
        shares = {share.server_header: share.share for share in self.webservers}
        litespeed = shares.get("LiteSpeed", 0.0)
        imunify = next((v for k, v in shares.items() if "imunify360" in k), 0.0)
        m["webserver.litespeed_share"] = litespeed
        m["webserver.imunify360_share"] = imunify
        m["webserver.litespeed_plus_imunify360"] = litespeed + imunify
        m["webserver.hyperscaler_share"] = sum(
            shares.get(header, 0.0) for header in ("cloudflare", "Fastly")
        )
        return m


def generate_paper_report(
    population: Population,
    scan_config: ScanConfig | None = None,
    longitudinal_weeks: int = 12,
    longitudinal_domain_cap: int = 1_200,
    include_longitudinal: bool = True,
) -> PaperReport:
    """Run every experiment of the paper over ``population``.

    ``longitudinal_domain_cap`` bounds the Figure 2 workload (weekly
    re-scans are the expensive part); set ``include_longitudinal=False``
    to skip it entirely.
    """
    scanner = Scanner(population, scan_config)
    sections: list[str] = []

    v4 = scanner.scan(week_label="cw20-2023", ip_version=4)
    support4, configuration = domain_tables(
        domain_flags(v4.results), population, 4, v4.week_label
    )
    sections.append("== Table 1: IPv4 adoption overview ==")
    sections.append(render_support_overview(support4))

    asdb = build_default_asdb()
    cno_connections = [
        record
        for result in v4.results
        if ListGroup.COM_NET_ORG.holds(result.domain)
        for record in result.connections
    ]
    organizations = organization_table(cno_connections, asdb)
    sections.append("\n== Table 2: AS organizations (com/net/org) ==")
    sections.append(render_org_table(organizations))

    sections.append("\n== Table 3: spin configuration ==")
    sections.append(render_configuration_table(configuration))

    compliance = None
    if include_longitudinal:
        quic_domains = [d for d in population.iter_targets() if d.quic_enabled]
        weeks = DEFAULT_CAMPAIGN.select_spread_weeks(longitudinal_weeks)
        fold = ComplianceFold(len(weeks))
        fold.update_many(
            scan_flags(
                scanner,
                quic_domains[:longitudinal_domain_cap],
                [(week.label, 0) for week in weeks],
            )
        )
        compliance = fold.finish()
        sections.append("\n== Figure 2: weeks with spin enabled ==")
        sections.append(render_compliance_histogram(compliance))

    v6 = scanner.scan(week_label="cw20-2023", ip_version=6)
    support6, _ = domain_tables(domain_flags(v6.results), population, 6, v6.week_label)
    sections.append("\n== Table 4: IPv6 adoption overview ==")
    sections.append(render_support_overview(support6))

    # Accuracy pool: the CW 20 connections plus two extra weeks of the
    # spin-active domains.
    records = list(v4.connection_records())
    webservers = webserver_shares(records)
    spin_domains = [r.domain for r in v4.results if r.shows_spin_activity]
    for label in ("cw18-2023", "cw19-2023"):
        records.extend(
            scanner.scan(week_label=label, domains=spin_domains).connection_records()
        )
    accuracy = accuracy_study(records)
    sections.append("\n== Figures 3/4: RTT accuracy ==")
    sections.append(render_series_summary(accuracy.spin_received))
    impact = accuracy.reordering
    sections.append(
        f"reordering: {impact.changed_share * 100:.2f} % of connections "
        f"change under packet-number sorting"
    )

    sections.append("\n== Webserver attribution (spinning connections) ==")
    for share in webservers[:6]:
        sections.append(
            f"  {share.server_header:30s} {share.connections:6d}"
            f" {share.share * 100:5.1f} %"
        )

    sections.append("\n== Negotiated QUIC versions ==")
    for share in version_distribution(records):
        sections.append(
            f"  {share.label:14s} {share.connections:6d} {share.share * 100:5.1f} %"
        )

    return PaperReport(
        text="\n".join(sections),
        support_v4=support4,
        support_v6=support6,
        organizations=organizations,
        configuration=configuration,
        compliance=compliance,
        accuracy=accuracy,
        records=records,
        webservers=webservers,
        spin_domains=spin_domains,
    )
