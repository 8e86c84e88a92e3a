"""The paper's analysis pipeline: Tables 1-4, Figures 2-4, and the
Section 6 extension studies (artifacts, filters, long connections,
version distribution)."""

from repro.analysis.artifacts import export_records
from repro.analysis.engine import AnalysisEngine, RecordFold, build_record_folds
from repro.analysis.filter_study import (
    FilterFold,
    FilterOutcome,
    FilterStudy,
    run_filter_study,
)
from repro.analysis.longform import (
    SamplePositionProfile,
    per_sample_deviation_profile,
    windowed_accuracy,
)
from repro.analysis.paper_report import PaperReport, generate_paper_report
from repro.analysis.timeline import render_spin_timeline
from repro.analysis.versions import VersionFold, VersionShare, version_distribution

from repro.analysis.accuracy import (
    ABS_DIFF_EDGES_MS,
    AccuracyFold,
    RATIO_EDGES,
    AccuracyStudy,
    ReorderingImpact,
    SeriesSummary,
    accuracy_study,
)
from repro.analysis.asorg import OrgFold, OrgRow, OrgTable, organization_table
from repro.analysis.compliance import (
    ComplianceFold,
    ComplianceHistogram,
    rfc_reference_shares,
    scan_flags,
)
from repro.analysis.config import (
    ConfigurationFold,
    ConfigurationRow,
    ConfigurationTable,
    configuration_table,
)
from repro.analysis.report import (
    render_compliance_histogram,
    render_configuration_table,
    render_histogram,
    render_org_table,
    render_series_summary,
    render_support_overview,
    render_table,
)
from repro.analysis.support import (
    SupportFold,
    SupportOverview,
    SupportRow,
    support_overview,
)
from repro.analysis.webserver import WebserverFold, WebserverShare, webserver_shares

__all__ = [
    "ABS_DIFF_EDGES_MS",
    "AccuracyFold",
    "AnalysisEngine",
    "ComplianceFold",
    "ConfigurationFold",
    "FilterFold",
    "OrgFold",
    "RecordFold",
    "SupportFold",
    "VersionFold",
    "WebserverFold",
    "build_record_folds",
    "FilterOutcome",
    "FilterStudy",
    "SamplePositionProfile",
    "VersionShare",
    "export_records",
    "per_sample_deviation_profile",
    "run_filter_study",
    "version_distribution",
    "windowed_accuracy",
    "AccuracyStudy",
    "ComplianceHistogram",
    "ConfigurationRow",
    "ConfigurationTable",
    "OrgRow",
    "OrgTable",
    "RATIO_EDGES",
    "ReorderingImpact",
    "SeriesSummary",
    "SupportOverview",
    "SupportRow",
    "WebserverShare",
    "accuracy_study",
    "configuration_table",
    "organization_table",
    "render_compliance_histogram",
    "render_configuration_table",
    "render_histogram",
    "render_org_table",
    "render_series_summary",
    "PaperReport",
    "generate_paper_report",
    "render_spin_timeline",
    "render_support_overview",
    "render_table",
    "rfc_reference_shares",
    "scan_flags",
    "support_overview",
    "webserver_shares",
]
