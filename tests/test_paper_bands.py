"""The band table at tier-1 scale, and EXPERIMENTS.md rendered from it.

``benchmarks/bands.json`` holds one band per number of the paper.  Its
``tier1`` rows also hold at ``repro report``'s default population
(1 000 toplist + 8 000 CZDS domains), judged here on one
:func:`generate_paper_report` run without the Figure 2 study; the
``harness`` rows need the harness population of
``benchmarks/test_paper_bands.py``.
"""

import importlib.util
import json
from pathlib import Path

import pytest

import repro
from repro.analysis.paper_report import generate_paper_report

REPO = Path(__file__).resolve().parent.parent
EXPERIMENTS = REPO / "EXPERIMENTS.md"

_spec = importlib.util.spec_from_file_location(
    "render_experiments", REPO / "scripts" / "render_experiments.py"
)
render_experiments = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(render_experiments)
studies = render_experiments.studies

ROWS = studies.load_bands()
TIER1 = [row for row in ROWS if row["scale"] == "tier1"]


@pytest.fixture(scope="module")
def metrics():
    population = repro.build_population(
        repro.PopulationConfig(toplist_domains=1_000, czds_domains=8_000, seed=20230520)
    )
    return generate_paper_report(population, include_longitudinal=False).metrics()


@pytest.mark.parametrize("row", TIER1, ids=[row["metric"] for row in TIER1])
def test_tier1_band(row, metrics):
    value = metrics[row["metric"]]
    assert studies.holds(row, value), f"{value!r} outside [{row['low']}, {row['high']}]"


def test_experiments_md_is_rendered_from_the_band_table(metrics):
    for row in ROWS:
        assert None in (row["low"], row["high"]) or row["low"] <= row["high"], row
        assert row["source"] and row["paper"], row
        assert row["scale"] in ("harness", "tier1"), row
    assert {row["metric"] for row in TIER1} <= set(metrics)
    results = json.loads(studies.RESULTS.read_text())["metrics"]
    assert all(studies.holds(row, results[row["metric"]]) for row in ROWS)
    text = EXPERIMENTS.read_text()
    assert render_experiments.render(text, ROWS, results) == text
