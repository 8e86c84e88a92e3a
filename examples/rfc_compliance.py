#!/usr/bin/env python3
"""Longitudinal RFC-compliance study: the paper's Figure 2.

Selects 12 measurement weeks spread across the CW 15/2022 - CW 20/2023
campaign, scans the same QUIC-enabled domains every week, keeps those
that spun at least once and connected every week, and histograms the
number of weeks with spin activity against the RFC 9000 (1-in-16) and
RFC 9312 (1-in-8) theoretical reference curves.

Run:  python examples/rfc_compliance.py [n_czds_domains]
"""

import sys

from repro.analysis.compliance import ComplianceFold, scan_flags
from repro.analysis.report import render_compliance_histogram
from repro.campaign.schedule import DEFAULT_CAMPAIGN
from repro.internet.population import PopulationConfig, build_population
from repro.web.scanner import Scanner


def main() -> None:
    czds = int(sys.argv[1]) if len(sys.argv) > 1 else 6_000
    population = build_population(
        PopulationConfig(toplist_domains=0, czds_domains=czds, seed=17)
    )
    quic_domains = [d for d in population.iter_targets() if d.quic_enabled]
    print(f"{len(quic_domains)} QUIC-enabled domains; scanning them in 12 "
          f"weeks spread across {DEFAULT_CAMPAIGN.first.label} .. "
          f"{DEFAULT_CAMPAIGN.last.label} ...")
    weeks = [(week.label, 0) for week in DEFAULT_CAMPAIGN.select_spread_weeks(12)]
    fold = ComplianceFold(len(weeks))
    fold.update_many(scan_flags(Scanner(population), quic_domains, weeks))

    histogram = fold.finish()
    print()
    print(render_compliance_histogram(histogram))

    print(f"\nshare spinning in all 12 weeks: "
          f"{histogram.share_spinning_every_week * 100:.1f} % "
          f"(RFC 9000 reference: {histogram.rfc9000_shares[-1] * 100:.1f} %, "
          f"RFC 9312: {histogram.rfc9312_shares[-1] * 100:.1f} %)")
    if histogram.share_spinning_every_week < histogram.rfc9000_shares[-1]:
        print("→ domains spin less than the RFC mandate allows: the "
              "1-in-16 disable rule appears to be followed (plus "
              "longer-term deployment churn), matching the paper")


if __name__ == "__main__":
    main()
