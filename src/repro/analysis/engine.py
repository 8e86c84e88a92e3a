"""Single-pass streaming analysis engine.

Every analysis section of the repro pipeline is a **fold**: an
accumulator object with

* ``name`` — the section identifier (``"orgs"``, ``"accuracy"``, ...);
* ``update_many(batch)`` — absorb one
  :class:`~repro.artifacts.cbr.RecordBatch`, reading its columns (the
  loop lives *inside* the fold and runs over two to five parallel
  columns; no fold touches a :class:`~repro.web.scanner.ConnectionRecord`,
  so none is built for it);
* ``finish()`` — produce the section's result object (the same type the
  section's classic function returns).

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

The domain-scoped sections (support, config, compliance) fold over
domain results / weekly activity flags instead of connection records;
their folds live next to their classic functions
(:class:`~repro.analysis.support.SupportFold`,
:class:`~repro.analysis.config.ConfigurationFold`,
:class:`~repro.analysis.compliance.ComplianceFold`).
"""

from __future__ import annotations

from typing import Any, Iterable, Protocol, Sequence

from repro.artifacts.cbr import RecordBatch
from repro.web.scanner import ConnectionRecord

__all__ = ["AnalysisEngine", "RecordFold", "build_record_folds"]


class RecordFold(Protocol):
    """What the engine requires of a connection-record fold."""

    name: str

    def update_many(self, batch: RecordBatch) -> None: ...

    def finish(self) -> Any: ...


class AnalysisEngine:
    """Runs a set of folds over one stream of record batches."""

    def __init__(self, folds: Sequence[RecordFold], telemetry=None) -> None:
        names = [fold.name for fold in folds]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate fold names: {names}")
        self.folds = list(folds)
        #: Optional :class:`repro.telemetry.Telemetry`; when its
        #: ``profiler`` is set, per-fold self time is attributed under
        #: ``fold:<section>`` phases (``repro profile --analyze``).
        self.telemetry = telemetry

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
        folds = self.folds
        profiler = (
            self.telemetry.profiler if self.telemetry is not None else None
        )
        if profiler is not None:
            return self._run_profiled(batches, predicate, stats, profiler)
        if predicate is not None or stats is not None:
            from repro.analysis.query import filter_batch

            for batch in batches:
                matched = filter_batch(batch, predicate, stats)
                if matched:
                    for fold in folds:
                        fold.update_many(matched)
        else:
            for batch in batches:
                batch = RecordBatch.coerce(batch)
                for fold in folds:
                    fold.update_many(batch)
        return {fold.name: fold.finish() for fold in folds}

    def _run_profiled(self, batches, predicate, stats, profiler):
        """The profiling twin of :meth:`run`: same results, per-fold
        phases.  A separate loop so the unprofiled hot path stays free
        of per-batch-per-fold context managers."""
        from repro.analysis.query import filter_batch

        folds = self.folds
        with profiler.phase("analyze"):
            for batch in batches:
                if predicate is not None or stats is not None:
                    with profiler.phase("filter"):
                        batch = filter_batch(batch, predicate, stats)
                else:
                    batch = RecordBatch.coerce(batch)
                if not batch:
                    continue
                for fold in folds:
                    with profiler.phase(f"fold:{fold.name}"):
                        fold.update_many(batch)
            results = {}
            for fold in folds:
                with profiler.phase(f"fold:{fold.name}"):
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
        wanted |= {"orgs", "webservers", "accuracy", "versions", "filters", "failures"}
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
    unknown = wanted - {
        "all", "orgs", "webservers", "accuracy", "versions", "filters", "failures",
    }
    if unknown:
        raise ValueError(f"unknown analysis sections: {sorted(unknown)}")
    return folds
