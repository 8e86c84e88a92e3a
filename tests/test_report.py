"""Text rendering of tables and figures."""

from conftest import make_connection_record
from repro._util.stats import Histogram
from repro.analysis.accuracy import accuracy_study
from repro.analysis.asorg import organization_table
from repro.analysis.compliance import ComplianceHistogram
from repro.analysis.report import (
    render_compliance_histogram,
    render_histogram,
    render_org_table,
    render_series_summary,
    render_table,
)
from repro.internet.asdb import build_default_asdb


class TestRenderTable:
    def test_alignment_and_separator(self):
        text = render_table(("a", "bb"), [(1, 2), (333, 4)])
        lines = text.splitlines()
        assert lines[0].startswith("a")
        assert set(lines[1]) <= {"-", " "}
        assert len(lines) == 4
        # Columns align: the separator is as wide as the widest cell.
        assert lines[1].split("  ")[0] == "---"


class TestRenderHistogram:
    def test_contains_bins_and_tails(self):
        hist = Histogram(edges=(0.0, 10.0, 20.0))
        hist.extend([5.0, 15.0, 25.0, -3.0])
        text = render_histogram(hist)
        assert "< 0" in text
        assert ">= 20" in text
        assert "[0, 10)" in text
        assert "25.0 %" in text

    def test_empty_histogram_safe(self):
        text = render_histogram(Histogram(edges=(0.0, 1.0)))
        assert "0.0 %" in text


class TestRenderSeries:
    def test_headline_numbers_present(self):
        record = make_connection_record(spin_rtts=[300.0], stack_rtts=[50.0])
        series = accuracy_study([record]).spin_received
        text = render_series_summary(series)
        assert "Spin (R)" in text
        assert "overestimating: 100.0 %" in text
        assert "mapped ratio histogram" in text


class TestRenderOrgTable:
    def test_other_row_last(self):
        asdb = build_default_asdb()
        table = organization_table([make_connection_record()], asdb, top_n=1)
        text = render_org_table(table)
        assert text.splitlines()[-1].lstrip().startswith("")
        assert "<other>" in text


class TestRenderCompliance:
    def test_weeks_and_references_listed(self):
        histogram = ComplianceHistogram(n_weeks=3, counts=[2, 3, 5])
        text = render_compliance_histogram(histogram)
        assert "RFC9000" in text and "RFC9312" in text
        assert "domains considered: 10" in text
        assert text.count("%") >= 9
