"""Mergeable per-week summary state for the measurement service.

A :class:`WeekSummary` is, for one calendar week, the six record folds
of :mod:`repro.analysis` plus the adoption/compliance counters the HTTP
API serves directly.  It follows the folds' own protocol
(:mod:`repro.analysis.engine`): ``update(batch)`` feeds them,
``state()`` is the union of their states under the summary's own
counters, ``merge(state)`` adds such a dict in — and a week file is that
dict as JSON, so the analysis sections are declared once, by their fold.

Everything merges by plain addition (dict-union-with-add for the
counter maps, bin-wise addition for histograms), which is commutative
and associative — so folding artifacts in any order, or re-merging
per-week summaries into an all-weeks summary, produces the same state a
single :class:`~repro.analysis.engine.AnalysisEngine` pass over the
union of records would.  Shares are only ever computed at render time,
by the folds' own ``finish()``, which is what makes the service's
answers *byte*-identical to ``repro analyze``, not just numerically
close.

Serialization is canonical and compact: ``to_json`` emits sorted keys
and sorted artifact lists with no ``indent`` (the C encoder), so equal
state is equal bytes on disk whatever submission order built it.
"""

from __future__ import annotations

import json
from collections import Counter
from typing import Mapping

from repro._util.stats import add_counts
from repro.analysis.compliance import FLAG_SPIN, FLAG_SUCCESS, connection_flags
from repro.analysis.engine import build_record_folds
from repro.artifacts.cbr import RecordBatch

__all__ = ["WeekSummary"]

_SUMMARY_SCHEMA = 1


class WeekSummary:
    """All per-week counters, mergeable and JSON-round-trippable."""

    def __init__(self, week: str, asdb=None) -> None:
        self.week = week
        #: Content fingerprints of the artifacts folded in — the per-week
        #: idempotence ledger.  A crash between two week files leaves this
        #: list authoritative: re-folding an artifact skips weeks that
        #: already carry its fingerprint.
        self.artifacts: list[str] = []
        # adoption / compliance counters; ``domains`` holds the week's
        # per-domain flags (:mod:`repro.analysis.compliance`), which
        # OR-merge keeps stable under duplicate and out-of-order folds.
        self.domains: dict[str, int] = {}
        self.connections_total = 0
        self.connections_success = 0
        self.connections_spinning = 0
        self.behaviours: dict[str, int] = {}
        #: The analysis sections (``asdb`` is what ``orgs`` attributes
        #: addresses with; the default database when omitted).
        self.folds = build_record_folds("all", asdb=asdb)

    # -- the fold protocol ---------------------------------------------

    def update(self, batch: RecordBatch) -> None:
        for fold in self.folds:
            fold.update_many(batch)
        self.connections_total += len(batch)
        self.connections_success += sum(batch.successes)
        self.connections_spinning += batch.masks.count(3)
        domains = self.domains
        for domain, flags in zip(
            batch.domains,
            map(connection_flags, batch.successes, batch.masks, batch.behaviours),
        ):
            domains[domain] = domains.get(domain, 0) | flags
        add_counts(
            self.behaviours,
            {behaviour.value: count for behaviour, count in Counter(batch.behaviours).items()},
        )

    def state(self) -> dict:
        data = {
            "artifacts": sorted(self.artifacts),
            "domains": self.domains,
            "connections_total": self.connections_total,
            "connections_success": self.connections_success,
            "connections_spinning": self.connections_spinning,
            "behaviours": self.behaviours,
        }
        for fold in self.folds:
            data.update(fold.state())
        return data

    def merge(self, state: Mapping) -> None:
        """Add a summary's ``state()`` in (commutative counter addition)."""
        for name in state.get("artifacts") or ():
            if name not in self.artifacts:
                self.artifacts.append(name)
        domains = self.domains
        for name, flags in (state.get("domains") or {}).items():
            domains[name] = domains.get(name, 0) | int(flags)
        self.connections_total += int(state.get("connections_total", 0))
        self.connections_success += int(state.get("connections_success", 0))
        self.connections_spinning += int(state.get("connections_spinning", 0))
        add_counts(self.behaviours, state.get("behaviours"))
        for fold in self.folds:
            fold.merge(state)

    # -- serving -------------------------------------------------------

    def analysis_results(self) -> dict:
        """The ``{section: result}`` mapping ``repro analyze`` renders.

        Each section is its fold's ``finish()`` over the merged
        counters, so :func:`repro.analysis.report.render_analysis_sections`
        over this mapping is byte-identical to the CLI's output over the
        same records — without touching a single artifact chunk.
        """
        return {fold.name: fold.finish() for fold in self.folds}

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

    # -- serialization -------------------------------------------------

    def to_json(self) -> str:
        """Canonical JSON: equal state → equal bytes, any fold order."""
        data = {"schema": _SUMMARY_SCHEMA, "week": self.week, **self.state()}
        return json.dumps(data, sort_keys=True) + "\n"

    @classmethod
    def from_json(cls, text: str | bytes) -> "WeekSummary":
        data = json.loads(text)
        summary = cls(week=data["week"])
        summary.merge(data)
        return summary

