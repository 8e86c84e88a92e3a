"""One-call regeneration of the paper's full result set.

:func:`generate_paper_report` runs the complete study — IPv4 and IPv6
reference scans, the accuracy pool, the 12-week longitudinal study —
over one population and renders every table and figure as text.  It is
the library's "reproduce the paper" entry point (`repro report` on the
command line); the benchmark harness covers the same ground with
assertions attached.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.accuracy import accuracy_study
from repro.analysis.asorg import organization_table
from repro.analysis.compliance import compliance_histogram
from repro.analysis.config import configuration_table
from repro.analysis.report import (
    render_compliance_histogram,
    render_configuration_table,
    render_org_table,
    render_series_summary,
    render_support_overview,
)
from repro.analysis.support import support_overview
from repro.analysis.versions import version_distribution
from repro.analysis.webserver import webserver_shares
from repro.campaign.runner import CampaignRunner
from repro.campaign.schedule import DEFAULT_CAMPAIGN
from repro.internet.asdb import build_default_asdb
from repro.internet.population import ListGroup, Population
from repro.web.scanner import ScanConfig, Scanner

__all__ = ["PaperReport", "generate_paper_report"]


@dataclass
class PaperReport:
    """The rendered report plus the underlying analysis objects."""

    text: str
    support_v4: object
    support_v6: object
    organizations: object
    configuration: object
    compliance: object | None
    accuracy: object


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
    support4 = support_overview(v4, population)
    sections.append("== Table 1: IPv4 adoption overview ==")
    sections.append(render_support_overview(support4))

    asdb = build_default_asdb()
    cno_names = {d.name for d in population.group_members(ListGroup.COM_NET_ORG)}
    cno_connections = [
        record
        for result in v4.results
        if result.domain.name in cno_names
        for record in result.connections
    ]
    organizations = organization_table(cno_connections, asdb)
    sections.append("\n== Table 2: AS organizations (com/net/org) ==")
    sections.append(render_org_table(organizations))

    configuration = configuration_table(v4, population)
    sections.append("\n== Table 3: spin configuration ==")
    sections.append(render_configuration_table(configuration))

    compliance = None
    if include_longitudinal:
        runner = CampaignRunner(population, DEFAULT_CAMPAIGN, scan_config)
        quic_domains = [d for d in population.iter_targets() if d.quic_enabled]
        subset = quic_domains[:longitudinal_domain_cap]
        longitudinal = runner.run_longitudinal(longitudinal_weeks, domains=subset)
        compliance = compliance_histogram(longitudinal)
        sections.append("\n== Figure 2: weeks with spin enabled ==")
        sections.append(render_compliance_histogram(compliance))

    v6 = scanner.scan(week_label="cw20-2023", ip_version=6)
    support6 = support_overview(v6, population)
    sections.append("\n== Table 4: IPv6 adoption overview ==")
    sections.append(render_support_overview(support6))

    # Accuracy pool: the CW 20 connections plus two extra weeks of the
    # spin-active domains (cf. benchmarks/conftest.py).
    records = list(v4.connection_records())
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
    for share in webserver_shares(records)[:6]:
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
    )
