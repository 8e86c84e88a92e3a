#!/usr/bin/env python3
"""Adoption scan: a small-scale rerun of the paper's Tables 1-3.

Builds a synthetic web population (toplists + CZDS zones, hosted across
the calibrated provider catalog), scans every domain with the HTTP/3
scanner, and prints the adoption overview (Table 1), the AS-organization
attribution (Table 2), the spin-configuration table (Table 3), and the
webserver attribution of Section 4.2.

Run:  python examples/adoption_scan.py [n_czds_domains]
"""

import sys

from repro.analysis.adoption import domain_tables
from repro.analysis.asorg import organization_table
from repro.analysis.compliance import domain_flags
from repro.analysis.report import (
    render_configuration_table,
    render_org_table,
    render_support_overview,
)
from repro.analysis.webserver import webserver_shares
from repro.internet.asdb import build_default_asdb
from repro.internet.population import ListGroup, PopulationConfig, build_population
from repro.web.scanner import Scanner


def main() -> None:
    czds = int(sys.argv[1]) if len(sys.argv) > 1 else 8_000
    config = PopulationConfig(
        toplist_domains=max(500, czds // 8), czds_domains=czds, seed=20230520
    )
    print(f"building population: {config.toplist_domains} toplist + "
          f"{config.czds_domains} CZDS domains ...")
    population = build_population(config)

    print("scanning (one HTTP/3 fetch chain per domain) ...")
    dataset = Scanner(population).scan(week_label="cw20-2023", ip_version=4)

    support, configuration = domain_tables(
        domain_flags(dataset.results), population, dataset.ip_version, dataset.week_label
    )
    print("\n=== Table 1: adoption overview ===")
    print(render_support_overview(support))

    print("\n=== Table 2: AS organizations (com/net/org) ===")
    connections = [
        record
        for result in dataset.results
        if ListGroup.COM_NET_ORG.holds(result.domain)
        for record in result.connections
    ]
    print(render_org_table(organization_table(connections, build_default_asdb())))

    print("\n=== Table 3: spin configuration ===")
    print(render_configuration_table(configuration))

    print("\n=== Webserver attribution (spinning connections) ===")
    for share in webserver_shares(dataset.connection_records())[:5]:
        print(f"  {share.server_header:30s} {share.connections:6d} "
              f"{share.share * 100:5.1f} %")


if __name__ == "__main__":
    main()
