"""Plain-text rendering of the paper's tables and figures.

The benchmark harness prints the same rows the paper reports; these
helpers keep the formatting in one place.  Histograms render as simple
unicode bar charts so Figures 2-4 are inspectable on a terminal.
"""

from __future__ import annotations

from typing import Sequence

from repro._util.stats import Histogram
from repro.analysis.accuracy import SeriesSummary
from repro.analysis.adoption import ConfigurationTable, SupportOverview
from repro.analysis.asorg import OrgTable
from repro.analysis.compliance import ComplianceHistogram
from repro.internet.population import ListGroup

__all__ = [
    "render_analysis_sections",
    "render_compliance_histogram",
    "render_configuration_table",
    "render_histogram",
    "render_org_table",
    "render_series_summary",
    "render_support_overview",
    "render_table",
]

_BAR_WIDTH = 40


def render_table(headers: Sequence[str], rows: Sequence[Sequence[object]]) -> str:
    """Align ``rows`` under ``headers`` with right-padded columns."""
    cells = [list(map(str, headers))] + [[str(value) for value in row] for row in rows]
    widths = [max(len(row[i]) for row in cells) for i in range(len(headers))]
    lines = []
    for index, row in enumerate(cells):
        lines.append("  ".join(value.ljust(widths[i]) for i, value in enumerate(row)))
        if index == 0:
            lines.append("  ".join("-" * widths[i] for i in range(len(headers))))
    return "\n".join(lines)


def render_support_overview(overview: SupportOverview) -> str:
    """Table 1 / Table 4 layout."""
    rows = []
    for group in ListGroup:
        row = overview.row(group)
        rows.append(
            (
                group.value,
                "#Domains",
                row.domains_total,
                row.domains_resolved,
                row.domains_quic,
                f"{row.domain_spin_share * 100:.1f} %",
            )
        )
        rows.append(
            (
                "",
                "#IPs",
                "",
                row.ips_resolved,
                row.ips_quic,
                f"{row.ip_spin_share * 100:.1f} %",
            )
        )
    title = f"IPv{overview.ip_version} overview for {overview.week_label}"
    table = render_table(
        ("Group", "", "Total", "Resolved", "QUIC", "Spin"), rows
    )
    return f"{title}\n{table}"


def render_org_table(table: OrgTable) -> str:
    """Table 2 layout: top orgs by volume plus the <other> aggregate."""
    rows = []
    for row in table.top_rows:
        rows.append(
            (
                row.total_rank,
                row.total_connections,
                row.org_name,
                row.spin_connections,
                f"{row.spin_share * 100:.1f} %",
                row.spin_rank if row.spin_rank is not None else "-",
            )
        )
    other = table.other
    share = (
        f"{other.spin_connections / other.total_connections * 100:.1f} %"
        if other.total_connections
        else "-"
    )
    rows.append(("", other.total_connections, other.org_name, other.spin_connections, share, ""))
    return render_table(
        ("Rank", "Total #", "AS Organization", "Spin #", "Spin %", "Spin Rank"), rows
    )


def render_configuration_table(table: ConfigurationTable) -> str:
    """Table 3 layout."""
    rows = []
    for group in ListGroup:
        row = table.row(group)
        rows.append(
            (
                group.value,
                f"{row.all_zero} ({row.all_zero_share * 100:.1f} %)",
                f"{row.all_one} ({row.all_one_share * 100:.2f} %)",
                row.spin,
                f"{row.grease} ({row.grease_share * 100:.3f} %)",
            )
        )
    return render_table(("Group", "All Zero", "All One", "Spin", "Grease"), rows)


def _bar(fraction: float, scale: float) -> str:
    filled = int(round(_BAR_WIDTH * fraction / scale)) if scale > 0 else 0
    return "#" * filled


def render_histogram(histogram: Histogram) -> str:
    """A histogram as labeled text bars (relative frequencies)."""
    fractions = histogram.fractions()
    total = histogram.total
    under = histogram.underflow / total if total else 0.0
    over = histogram.overflow / total if total else 0.0
    scale = max([*fractions, under, over, 1e-9])
    lines = []
    edges = histogram.edges
    lines.append(f"{'< ' + format(edges[0], 'g'):>16}  {under * 100:5.1f} %  {_bar(under, scale)}")
    for low, high, fraction in zip(edges, edges[1:], fractions):
        label = f"[{low:g}, {high:g})"
        lines.append(f"{label:>16}  {fraction * 100:5.1f} %  {_bar(fraction, scale)}")
    lines.append(f"{'>= ' + format(edges[-1], 'g'):>16}  {over * 100:5.1f} %  {_bar(over, scale)}")
    return "\n".join(lines)


def render_series_summary(series: SeriesSummary) -> str:
    """One Figure 3/4 series with its headline shares."""
    lines = [
        f"{series.label}: {series.connections} connections",
        f"  overestimating: {series.overestimate_share * 100:.1f} %",
        f"  |abs| <= 25 ms: {series.within_25ms_share * 100:.1f} %",
        f"  abs > 200 ms:   {series.over_200ms_share * 100:.1f} %",
        f"  within 25 %:    {series.within_25pct_share * 100:.1f} %",
        f"  within 2x:      {series.within_factor2_share * 100:.1f} %",
        f"  over 3x:        {series.over_factor3_share * 100:.1f} %",
        "  abs difference histogram (ms):",
        render_histogram(series.abs_histogram),
        "  mapped ratio histogram:",
        render_histogram(series.ratio_histogram),
    ]
    return "\n".join(lines)


def render_analysis_sections(results, wanted: str = "all") -> str:
    """The ``repro analyze`` stdout block for ``results``.

    ``results`` is the ``{section: result}`` mapping an
    :class:`~repro.analysis.engine.AnalysisEngine` run returns (or its
    count-based service-summary reconstruction — the section objects are
    duck-typed).  Shared between the CLI and the service query API so a
    summary-served section is byte-identical to the CLI's output by
    construction.
    """
    from repro.faults.taxonomy import render_failure_table

    lines: list[str] = []
    if wanted in ("orgs", "all"):
        lines.append("== AS organizations (Table 2 style) ==")
        lines.append(render_org_table(results["orgs"]))
        lines.append("")
    if wanted in ("webservers", "all"):
        lines.append("== webserver attribution (spinning connections) ==")
        for share in results["webservers"][:6]:
            lines.append(
                f"  {share.server_header:30s} {share.connections:6d}"
                f" {share.share * 100:5.1f} %"
            )
        lines.append("")
    if wanted in ("accuracy", "all"):
        lines.append("== RTT accuracy (Figures 3/4 style) ==")
        lines.append(render_series_summary(results["accuracy"].spin_received))
        lines.append("")
    if wanted in ("versions", "all"):
        lines.append("== negotiated QUIC versions ==")
        for share in results["versions"]:
            lines.append(
                f"  {share.label:14s} {share.connections:6d}"
                f" {share.share * 100:5.1f} %"
            )
        lines.append("")
    if wanted in ("filters", "all"):
        lines.append("== RFC 9312 filter study ==")
        for outcome in results["filters"].outcomes():
            lines.append(
                f"  {outcome.label:22s} n={outcome.connections:5d}"
                f"  within25%={outcome.within_25pct_share * 100:5.1f} %"
                f"  underest={outcome.underestimate_share * 100:4.1f} %"
                f"  lost={outcome.connections_lost}"
            )
    if wanted in ("failures", "all"):
        if wanted == "all":
            lines.append("")
        lines.append("== failure taxonomy ==")
        lines.append(render_failure_table(results["failures"]))
    return "\n".join(lines)


def render_compliance_histogram(histogram: ComplianceHistogram) -> str:
    """Figure 2 as text: observed vs. the two RFC reference curves."""
    lines = [
        f"domains considered: {histogram.considered_domains} "
        f"(spin-active, connected in all {histogram.n_weeks} weeks)",
        f"{'weeks':>6}  {'observed':>9}  {'RFC9000':>8}  {'RFC9312':>8}",
    ]
    for index in range(histogram.n_weeks):
        lines.append(
            f"{index + 1:>6}  {histogram.observed_shares[index] * 100:8.1f} %"
            f"  {histogram.rfc9000_shares[index] * 100:6.1f} %"
            f"  {histogram.rfc9312_shares[index] * 100:6.1f} %"
            f"  {_bar(histogram.observed_shares[index], max(histogram.observed_shares) or 1)}"
        )
    return "\n".join(lines)
