"""Single-pass streaming analysis engine.

Every analysis section of the repro pipeline is a **fold**: an
accumulator object with

* ``name`` — the section identifier (``"orgs"``, ``"accuracy"``, ...);
* ``update_many(batch)`` — absorb one
  :class:`~repro.artifacts.cbr.RecordBatch`, reading its columns (the
  loop lives *inside* the fold and runs over the parallel columns it
  needs — or, for the accuracy and filter folds, over the batch's one
  derived column, ``batch.comparable``: each spinning connection's
  Section 5.1 metrics, computed once per batch and shared by both; no
  fold touches a :class:`~repro.web.scanner.ConnectionRecord`, so none
  is built for it);
* ``finish()`` — produce the section's result object (the same type the
  section's classic function returns) from nothing but the state;
* ``state()`` — the fold's commutative counters as a JSON-able dict,
  under keys no other fold uses (they are the keys of the service's
  week files); a fold accumulates *in* these counters, so its memory
  does not grow with the connections it has seen;
* ``merge(state)`` — add such a dict in.  Keys it lacks count as empty,
  so loading a persisted fold is merging into a fresh one, and
  ``fold(A).merge(fold(B).state())`` finishes equal to ``fold(A + B)``.

:class:`AnalysisEngine` drives any number of folds over one shared
stream of record batches, so ``repro analyze`` with every section
enabled decodes the artifact exactly once and holds one batch in memory
at a time.  Plain lists of records are turned into batches once, at the
edge (:meth:`AnalysisEngine.run` and the classic per-section functions
— :func:`~repro.analysis.asorg.organization_table`,
:func:`~repro.analysis.accuracy.accuracy_study`, ...), so every input
takes the same code path and gives the same results.

Folds declare whether they read the *records* of a batch, and then
which edge lists, via the class attributes ``needs_edges_received`` /
``needs_edges_sorted``; the engine aggregates them so the cbr reader can
skip the edge blocks no built record will show (projection pushdown).
The six folds here read columns only and declare ``False``.  Absent
attributes count as *needed* — unknown folds never see partial records.

The domain-scoped sections read no batch: they count per-scan
``{domain: flags}`` maps (:mod:`repro.analysis.compliance`) — the
``domains`` map a week file stores, or
:func:`~repro.analysis.compliance.domain_flags` of scan results.
:func:`~repro.analysis.adoption.domain_tables` answers Tables 1, 3 and
4 from one map and the input list in one pass;
:class:`~repro.analysis.compliance.ComplianceFold` (Figure 2, the
follow-up) counts ``n`` maps.
"""

from __future__ import annotations

from typing import Any, Iterable, Mapping, Protocol, Sequence

from repro.artifacts.cbr import RecordBatch
from repro.telemetry import Telemetry
from repro.web.scanner import ConnectionRecord

__all__ = ["RECORD_SECTIONS", "AnalysisEngine", "RecordFold", "build_record_folds"]

#: The record-based analysis sections, in report order — the one list
#: the CLI's ``--section`` choices and ``/v1/analyze`` read.
RECORD_SECTIONS = ("orgs", "webservers", "accuracy", "versions", "filters", "failures")


class RecordFold(Protocol):
    """What the engine requires of a connection-record fold."""

    name: str

    def update_many(self, batch: RecordBatch) -> None: ...

    def state(self) -> dict: ...

    def merge(self, state: Mapping) -> None: ...

    def finish(self) -> Any: ...


class AnalysisEngine:
    """Runs a set of folds over one stream of record batches."""

    def __init__(self, folds: Sequence[RecordFold], telemetry=None) -> None:
        names = [fold.name for fold in folds]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate fold names: {names}")
        self.folds = list(folds)
        #: :class:`repro.telemetry.Telemetry` (``None``: off); with its
        #: ``profiler`` set, per-fold self time is attributed under
        #: ``fold:<section>`` phases (``repro profile --analyze``).
        self.telemetry = Telemetry.resolve(telemetry)
        self._phased_folds = [(f"fold:{fold.name}", fold) for fold in self.folds]

    @property
    def needs_edges_received(self) -> bool:
        return any(
            getattr(fold, "needs_edges_received", True) for fold in self.folds
        )

    @property
    def needs_edges_sorted(self) -> bool:
        return any(getattr(fold, "needs_edges_sorted", True) for fold in self.folds)

    def run(
        self,
        batches: Iterable[RecordBatch | Sequence[ConnectionRecord]],
        predicate=None,
        stats=None,
    ) -> dict[str, Any]:
        """One pass over ``batches``; returns ``{section: result}``.

        Results preserve the fold order given at construction.  A batch
        may be a plain list of records; it is given columns here.
        ``predicate`` (a :class:`repro.analysis.query.Predicate`) is the
        residual filter of a pushed-down query: every batch is filtered
        before the folds see it, so the same folds over a zone-pruned
        chunk stream produce byte-identical sections to a full scan.
        ``stats`` (a :class:`~repro.analysis.query.QueryStats`) counts
        scanned and matched records when given.
        """
        from repro.analysis.query import filter_batch

        phase = self.telemetry.phase
        folds = self._phased_folds
        filtered = predicate is not None or stats is not None
        with phase("analyze"):
            for batch in batches:
                if filtered:
                    with phase("filter"):
                        batch = filter_batch(batch, predicate, stats)
                else:
                    batch = RecordBatch.coerce(batch)
                if not batch:
                    continue
                for name, fold in folds:
                    with phase(name):
                        fold.update_many(batch)
            results = {}
            for name, fold in folds:
                with phase(name):
                    results[fold.name] = fold.finish()
        return results


def build_record_folds(sections: Iterable[str], asdb=None) -> list[RecordFold]:
    """The record-stream folds behind ``repro analyze``'s sections.

    ``sections`` is any iterable of section names (``"all"`` selects
    every record-based section); ``asdb`` is required for ``orgs`` and
    built on demand when omitted.  Fold order follows the CLI's section
    order regardless of the input order.
    """
    from repro.analysis.accuracy import AccuracyFold
    from repro.analysis.asorg import OrgFold
    from repro.analysis.filter_study import FilterFold
    from repro.analysis.versions import VersionFold
    from repro.analysis.webserver import WebserverFold
    from repro.faults.taxonomy import FailureFold

    if isinstance(sections, str):
        sections = (sections,)
    wanted = set(sections)
    if "all" in wanted:
        wanted.update(RECORD_SECTIONS)
    folds: list[RecordFold] = []
    if "orgs" in wanted:
        if asdb is None:
            from repro.internet.asdb import build_default_asdb

            asdb = build_default_asdb()
        folds.append(OrgFold(asdb))
    if "webservers" in wanted:
        folds.append(WebserverFold())
    if "accuracy" in wanted:
        folds.append(AccuracyFold())
    if "versions" in wanted:
        folds.append(VersionFold())
    if "filters" in wanted:
        folds.append(FilterFold())
    if "failures" in wanted:
        folds.append(FailureFold())
    unknown = wanted - {"all", *RECORD_SECTIONS}
    if unknown:
        raise ValueError(f"unknown analysis sections: {sorted(unknown)}")
    return folds
