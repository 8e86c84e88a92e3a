"""Mergeable per-week summary state for the measurement service.

A :class:`WeekSummary` holds, for one calendar week, exactly the integer
counters the analysis sections are computed from: the fold-internal
state of every :mod:`repro.analysis` section (org/webserver/version
counters, the accuracy series' :class:`~repro.analysis.accuracy.SeriesStats`,
the filter study's :class:`~repro.analysis.filter_study.FilterOutcomeStats`,
the failure taxonomy counts) plus the adoption/compliance counters the
HTTP API serves directly.

Everything merges by plain addition (dict-union-with-add for the
counter maps, bin-wise addition for histograms), which is commutative
and associative — so folding artifacts in any order, or re-merging
per-week summaries into an all-weeks summary, produces the same state a
single :class:`~repro.analysis.engine.AnalysisEngine` pass over the
union of records would.  Shares are only ever computed at render time
as the same exact ``int / int`` divisions the folds use, which is what
makes the service's answers *byte*-identical to ``repro analyze``, not
just numerically close.

Serialization is canonical: ``to_json`` emits sorted keys and sorted
artifact lists, so two summaries with equal state are equal bytes on
disk regardless of the submission order that built them.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from repro.analysis.accuracy import AccuracyStudy, ReorderingImpact, SeriesStats
from repro.analysis.filter_study import FilterOutcomeStats, FilterStudy
from repro.artifacts.cbr import RecordBatch

__all__ = ["WeekSummarizer", "WeekSummary", "combine_weeks"]

_SUMMARY_SCHEMA = 1

#: Domain flag bits: the domain had a successful connection / showed
#: spin activity at least once in the week.  OR-merge keeps them stable
#: under duplicate and out-of-order folds.
FLAG_SUCCESS = 1
FLAG_SPIN = 2

_ACCURACY_SERIES = (
    ("spin_received", "Spin (R)"),
    ("spin_sorted", "Spin (S)"),
    ("grease_received", "Grease (R)"),
    ("grease_sorted", "Grease (S)"),
)


@dataclass
class WeekSummary:
    """All per-week counters, mergeable and JSON-round-trippable."""

    week: str
    #: Content fingerprints of the artifacts folded in — the per-week
    #: idempotence ledger.  A crash between two week files leaves this
    #: list authoritative: re-folding an artifact skips weeks that
    #: already carry its fingerprint.
    artifacts: list[str] = field(default_factory=list)

    # adoption / compliance counters
    domains: dict[str, int] = field(default_factory=dict)
    connections_total: int = 0
    connections_success: int = 0
    connections_spinning: int = 0
    behaviours: dict[str, int] = field(default_factory=dict)

    # analysis-section counters (fold-internal state, persisted)
    org_totals: dict[str, int] = field(default_factory=dict)
    org_spins: dict[str, int] = field(default_factory=dict)
    webservers: dict[str, int] = field(default_factory=dict)
    versions: dict[int, int] = field(default_factory=dict)
    accuracy: dict[str, SeriesStats] = field(default_factory=dict)
    reordering: ReorderingImpact = field(default_factory=ReorderingImpact)
    filters: list[FilterOutcomeStats] = field(default_factory=list)
    failures_total: int = 0
    failures_succeeded: int = 0
    failure_kinds: dict[str, int] = field(default_factory=dict)

    # -- merging -------------------------------------------------------

    def merge(self, other: "WeekSummary") -> None:
        """Fold another summary in (commutative counter addition)."""
        for name in other.artifacts:
            if name not in self.artifacts:
                self.artifacts.append(name)
        for name, flags in other.domains.items():
            self.domains[name] = self.domains.get(name, 0) | flags
        self.connections_total += other.connections_total
        self.connections_success += other.connections_success
        self.connections_spinning += other.connections_spinning
        _add_counts(self.behaviours, other.behaviours)
        _add_counts(self.org_totals, other.org_totals)
        _add_counts(self.org_spins, other.org_spins)
        _add_counts(self.webservers, other.webservers)
        _add_counts(self.versions, other.versions)
        for key, series in other.accuracy.items():
            mine = self.accuracy.get(key)
            if mine is None:
                self.accuracy[key] = SeriesStats.from_dict(series.as_dict())
            else:
                mine.merge(series)
        impact = self.reordering
        impact.connections_compared += other.reordering.connections_compared
        impact.connections_changed += other.reordering.connections_changed
        impact.changed_below_1ms += other.reordering.changed_below_1ms
        impact.changed_improved += other.reordering.changed_improved
        if not self.filters:
            self.filters = [
                FilterOutcomeStats.from_dict(entry.as_dict())
                for entry in other.filters
            ]
        else:
            for mine, theirs in zip(self.filters, other.filters):
                mine.merge(theirs)
        self.failures_total += other.failures_total
        self.failures_succeeded += other.failures_succeeded
        _add_counts(self.failure_kinds, other.failure_kinds)

    # -- serving -------------------------------------------------------

    def analysis_results(self) -> dict:
        """The ``{section: result}`` mapping ``repro analyze`` renders.

        Each section is rebuilt from the persisted counters through the
        same ``*_from_counts`` constructors the folds' ``finish()`` use,
        so :func:`repro.analysis.report.render_analysis_sections` over
        this mapping is byte-identical to the CLI's output over the same
        records — without touching a single artifact chunk.
        """
        from repro.analysis.asorg import org_table_from_counts
        from repro.analysis.versions import version_distribution_from_counts
        from repro.analysis.webserver import webserver_shares_from_counts
        from repro.faults.taxonomy import failure_summary_from_counts

        accuracy = AccuracyStudy(
            spin_received=self._series("spin_received"),
            spin_sorted=self._series("spin_sorted"),
            grease_received=self._series("grease_received"),
            grease_sorted=self._series("grease_sorted"),
            reordering=self.reordering,
        )
        filters = self.filters or _empty_filter_stats()
        return {
            "orgs": org_table_from_counts(self.org_totals, self.org_spins),
            "webservers": webserver_shares_from_counts(self.webservers),
            "accuracy": accuracy,
            "versions": version_distribution_from_counts(self.versions),
            "filters": FilterStudy(*filters),
            "failures": failure_summary_from_counts(
                self.failures_total, self.failures_succeeded, self.failure_kinds
            ),
        }

    def adoption(self) -> dict:
        """The ``/v1/adoption`` payload: domain and connection adoption."""
        success = sum(1 for flags in self.domains.values() if flags & FLAG_SUCCESS)
        spinning = sum(1 for flags in self.domains.values() if flags & FLAG_SPIN)
        return {
            "week": self.week,
            "domains_seen": len(self.domains),
            "domains_success": success,
            "domains_spinning": spinning,
            "domain_spin_share": spinning / success if success else 0.0,
            "connections_total": self.connections_total,
            "connections_success": self.connections_success,
            "connections_spinning": self.connections_spinning,
            "connection_spin_share": (
                self.connections_spinning / self.connections_success
                if self.connections_success
                else 0.0
            ),
            "artifacts": len(self.artifacts),
        }

    def compliance(self) -> dict:
        """The ``/v1/compliance`` payload: behaviour-class distribution."""
        from repro.core.classify import SpinBehaviour

        order = [behaviour.value for behaviour in SpinBehaviour]
        total = self.connections_total
        counts = {
            key: self.behaviours.get(key, 0)
            for key in order + sorted(set(self.behaviours) - set(order))
        }
        return {
            "week": self.week,
            "connections_total": total,
            "behaviours": counts,
            "behaviour_shares": {
                key: (count / total if total else 0.0)
                for key, count in counts.items()
            },
        }

    def _series(self, key: str) -> SeriesStats:
        series = self.accuracy.get(key)
        if series is not None:
            return series
        label = dict(_ACCURACY_SERIES)[key]
        return SeriesStats(label=label)

    # -- serialization -------------------------------------------------

    def to_json(self) -> str:
        """Canonical JSON: equal state → equal bytes, any fold order."""
        data = {
            "schema": _SUMMARY_SCHEMA,
            "week": self.week,
            "artifacts": sorted(self.artifacts),
            "domains": self.domains,
            "connections_total": self.connections_total,
            "connections_success": self.connections_success,
            "connections_spinning": self.connections_spinning,
            "behaviours": self.behaviours,
            "org_totals": self.org_totals,
            "org_spins": self.org_spins,
            "webservers": self.webservers,
            "versions": {str(key): count for key, count in self.versions.items()},
            "accuracy": {
                key: series.as_dict() for key, series in self.accuracy.items()
            },
            "reordering": {
                "connections_compared": self.reordering.connections_compared,
                "connections_changed": self.reordering.connections_changed,
                "changed_below_1ms": self.reordering.changed_below_1ms,
                "changed_improved": self.reordering.changed_improved,
            },
            "filters": [entry.as_dict() for entry in self.filters],
            "failures_total": self.failures_total,
            "failures_succeeded": self.failures_succeeded,
            "failure_kinds": self.failure_kinds,
        }
        return json.dumps(data, sort_keys=True, indent=1) + "\n"

    @classmethod
    def from_json(cls, text: str | bytes) -> "WeekSummary":
        data = json.loads(text)
        summary = cls(week=data["week"])
        summary.artifacts = list(data.get("artifacts") or [])
        summary.domains = {
            name: int(flags) for name, flags in (data.get("domains") or {}).items()
        }
        summary.connections_total = int(data.get("connections_total", 0))
        summary.connections_success = int(data.get("connections_success", 0))
        summary.connections_spinning = int(data.get("connections_spinning", 0))
        summary.behaviours = _int_counts(data.get("behaviours"))
        summary.org_totals = _int_counts(data.get("org_totals"))
        summary.org_spins = _int_counts(data.get("org_spins"))
        summary.webservers = _int_counts(data.get("webservers"))
        summary.versions = {
            int(key): int(count)
            for key, count in (data.get("versions") or {}).items()
        }
        summary.accuracy = {
            key: SeriesStats.from_dict(entry)
            for key, entry in (data.get("accuracy") or {}).items()
        }
        impact = data.get("reordering") or {}
        summary.reordering = ReorderingImpact(
            connections_compared=int(impact.get("connections_compared", 0)),
            connections_changed=int(impact.get("connections_changed", 0)),
            changed_below_1ms=int(impact.get("changed_below_1ms", 0)),
            changed_improved=int(impact.get("changed_improved", 0)),
        )
        summary.filters = [
            FilterOutcomeStats.from_dict(entry)
            for entry in (data.get("filters") or [])
        ]
        summary.failures_total = int(data.get("failures_total", 0))
        summary.failures_succeeded = int(data.get("failures_succeeded", 0))
        summary.failure_kinds = _int_counts(data.get("failure_kinds"))
        return summary


class WeekSummarizer:
    """Accumulates one week's :class:`WeekSummary` batch by batch.

    Runs the exact analysis folds over each batch and, when finished,
    extracts their mergeable state — the single shared code path that
    guarantees summary-served sections match a direct fold.  The
    adoption/compliance counters come off the same columns.
    """

    def __init__(self, week: str, asdb) -> None:
        from repro.analysis.engine import build_record_folds

        self._summary = WeekSummary(week=week)
        self._folds = build_record_folds("all", asdb=asdb)

    def update(self, batch: RecordBatch) -> None:
        for fold in self._folds:
            fold.update_many(batch)
        summary = self._summary
        summary.connections_total += len(batch)
        summary.connections_success += sum(batch.successes)
        summary.connections_spinning += batch.masks.count(3)
        domains = summary.domains
        behaviours = summary.behaviours
        for domain, success, mask, behaviour in zip(
            batch.domains, batch.successes, batch.masks, batch.behaviours
        ):
            flags = (FLAG_SUCCESS if success else 0) | (FLAG_SPIN if mask == 3 else 0)
            domains[domain] = domains.get(domain, 0) | flags
            key = behaviour.value
            behaviours[key] = behaviours.get(key, 0) + 1

    def finish(self) -> WeekSummary:
        summary = self._summary
        orgs, webservers, accuracy, versions, filters, failures = self._folds
        summary.org_totals, summary.org_spins = orgs.counts()
        summary.webservers = webservers.counts()
        summary.versions = versions.counts()
        study = accuracy.finish()
        summary.accuracy = {
            key: SeriesStats.from_summary(getattr(study, key))
            for key, _ in _ACCURACY_SERIES
        }
        summary.reordering = study.reordering
        summary.filters = [
            FilterOutcomeStats.from_outcome(outcome)
            for outcome in filters.finish().outcomes()
        ]
        total, succeeded, kinds = failures.counts()
        summary.failures_total = total
        summary.failures_succeeded = succeeded
        summary.failure_kinds = kinds
        return summary


def combine_weeks(summaries) -> WeekSummary:
    """``summaries`` merged into one ``week="all"`` summary.

    Counter merges are commutative and exact, so this equals the
    summary a single fold over the union of all records would give.
    """
    combined = WeekSummary(week="all")
    for summary in summaries:
        combined.merge(summary)
    return combined


def _add_counts(target: dict, source: dict) -> None:
    for key, count in source.items():
        target[key] = target.get(key, 0) + count


def _int_counts(data) -> dict:
    return {key: int(count) for key, count in (data or {}).items()}


def _empty_filter_stats() -> list[FilterOutcomeStats]:
    """The four filter-study rows of an empty record set.

    Labels must match :class:`~repro.analysis.filter_study.FilterFold`'s
    defaults so an empty week renders identically to an empty fold.
    """
    return [
        FilterOutcomeStats(label="raw"),
        FilterOutcomeStats(label="static >= 1 ms"),
        FilterOutcomeStats(label="hold-time 0.125"),
        FilterOutcomeStats(label="static + hold-time"),
    ]
