"""The paper's numbers against their bands, at the harness population.

One case per row of ``bands.json`` (its id is the metric), judged on one
:func:`studies.measure_all` run (~2 min on a 2-core host)::

    PYTHONPATH=src python -m pytest benchmarks/test_paper_bands.py
"""

from __future__ import annotations

import pytest

from studies import holds, load_bands, measure_all

ROWS = load_bands()


@pytest.fixture(scope="module")
def measured():
    return measure_all()


@pytest.mark.parametrize("row", ROWS, ids=[row["metric"] for row in ROWS])
def test_band(row, measured):
    assert row["metric"] in measured, "no study measures this metric"
    value = measured[row["metric"]]
    assert holds(row, value), f"{value!r} outside [{row['low']}, {row['high']}]"


def test_every_measured_metric_has_one_row(measured):
    metrics = [row["metric"] for row in ROWS]
    assert len(metrics) == len(set(metrics))
    assert set(metrics) == set(measured)
