#!/usr/bin/env python3
"""Measure the paper's numbers and re-render EXPERIMENTS.md's band tables.

Runs ``benchmarks/studies.py``'s ``measure_all()`` at the harness
population (~2 min), writes the run to ``benchmarks/results.json``
(commit, population, seed and every metric value), then rewrites each
table of EXPERIMENTS.md that sits between ``<!-- bands: SOURCE -->`` and
``<!-- /bands -->`` from the rows of ``benchmarks/bands.json`` whose
``source`` is SOURCE.  Everything outside the markers is hand-written
and left alone.

Usage:
    PYTHONPATH=src python scripts/render_experiments.py
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
EXPERIMENTS = REPO / "EXPERIMENTS.md"
sys.path.insert(0, str(REPO / "benchmarks"))

import studies  # noqa: E402

MARKED = re.compile(r"(<!-- bands: (.+?) -->\n).*?(<!-- /bands -->)", re.DOTALL)


def _band(row: dict) -> str:
    low, high = row["low"], row["high"]
    if low is None and high is None:
        return "—"
    if high is None:
        return f"≥ {low}"
    if low is None:
        return f"≤ {high}"
    return f"= {low}" if low == high else f"{low} – {high}"


def render(text: str, rows: list[dict], metrics: dict) -> str:
    """``text`` with every marked table rendered from ``rows`` and ``metrics``."""
    marked = {match.group(2) for match in MARKED.finditer(text)}
    sources = {row["source"] for row in rows}
    if marked != sources:
        raise ValueError(f"sources without a marker: {sorted(sources - marked)}; "
                         f"markers without a row: {sorted(marked - sources)}")

    def table(match: re.Match) -> str:
        lines = ["| Metric | Paper | Band | This run |", "|---|---|---|---|"]
        lines += [
            f"| `{row['metric']}` | {row['paper']} | {_band(row)} "
            f"| {metrics[row['metric']]:.4g} |"
            for row in rows
            if row["source"] == match.group(2)
        ]
        return match.group(1) + "\n".join(lines) + "\n" + match.group(3)

    return MARKED.sub(table, text)


def main() -> int:
    metrics = studies.measure_all()
    commit = subprocess.run(
        ["git", "describe", "--always", "--dirty"],
        cwd=REPO, capture_output=True, text=True, check=True,
    ).stdout.strip()
    results = {
        "commit": commit,
        "population": studies.HARNESS,
        "longitudinal_domains": studies.LONGITUDINAL_DOMAINS,
        "metrics": metrics,
    }
    studies.RESULTS.write_text(json.dumps(results, indent=1, sort_keys=True) + "\n")
    text = render(EXPERIMENTS.read_text(), studies.load_bands(), metrics)
    EXPERIMENTS.write_text(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
