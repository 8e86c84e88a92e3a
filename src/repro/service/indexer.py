"""Incremental week indexer: fold each artifact exactly once.

The indexer is the middle layer of the service plane: it decodes each
freshly spooled ``cbr`` artifact *once*, groups its records by their
week stamp, and merges the per-week counter summaries
(:class:`~repro.service.summary.WeekSummary`) into persistent
``week-<label>.json`` files.  The query API then answers from those
files without ever touching raw chunks again.

Idempotence has two layers:

* ``ledger.log`` — the fast path: one appended ``<fingerprint>`` line
  per completed fold (:func:`~repro._util.files.append_line`).  The line
  goes *last*, after every week file, so the ledger never claims work
  that was not completed, and only terminated lines count: a tail torn
  by a crash, or still being written, is no claim at all.
* the per-week ``artifacts`` lists — the correctness mechanism: merging
  a week slice and recording the fingerprint happen in the same atomic
  file replace.  A crash between two week files therefore leaves a
  half-folded artifact whose re-fold skips exactly the weeks already
  carrying its fingerprint — the resumed summaries are byte-identical
  to an uninterrupted fold.  An index whose ledger is lost (or is the
  retired ``ledger.json``, which nothing reads) re-checks every
  artifact against these lists once and double-counts nothing.

Deterministic fault injection (:mod:`repro.faults` discipline): the
constructor takes a ``fault_hook`` callable invoked with an event label
at every persistence point; tests crash the fold mid-flight by raising
from the hook, with no wall clock or signal handling involved.
"""

from __future__ import annotations

import functools
import os
from pathlib import Path
from typing import Callable

from repro._util.files import append_line, replace_file
from repro.service.summary import WeekSummary
from repro.telemetry import Telemetry

__all__ = ["WeekIndexer"]

_LEDGER_NAME = "ledger.log"
_WEEK_PREFIX = "week-"
_WEEK_SUFFIX = ".json"
_WEEK_LABEL = slice(len(_WEEK_PREFIX), -len(_WEEK_SUFFIX))
_PREFIX = slice(None, len(_WEEK_PREFIX))
_SUFFIX = slice(-len(_WEEK_SUFFIX), None)

#: Week bucket for records predating the scanner's week stamping.
UNSTAMPED_WEEK = "unstamped"


class WeekIndexer:
    """Folds spooled artifacts into per-week summary files."""

    def __init__(
        self,
        directory: str | os.PathLike,
        asdb=None,
        fault_hook: Callable[[str], None] | None = None,
        telemetry=None,
    ) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self._ledger_path = self.directory / _LEDGER_NAME
        self._week_stem = os.path.join(self.directory, _WEEK_PREFIX)
        self._asdb = asdb
        self._fault_hook = fault_hook
        #: :class:`repro.telemetry.Telemetry` (``None``: off).  Folds emit
        #: ``index:<fingerprint>`` spans with per-week children; both
        #: are pure functions of the folded content, so they live in the
        #: deterministic trace.
        self.telemetry = Telemetry.resolve(telemetry)

    @property
    def asdb(self):
        if self._asdb is None:
            from repro.internet.asdb import build_default_asdb

            self._asdb = build_default_asdb()
        return self._asdb

    # -- folding -------------------------------------------------------

    def _fold(self, path: str | os.PathLike, fingerprint: str, ledger: set[str]) -> None:
        """Fold one artifact the ledger does not list into the week
        summaries.

        Partially folded artifacts (crash before the ledger write)
        re-enter here and finish only their missing weeks.  The
        fingerprint joins ``ledger`` (read by the caller) as it joins
        the file.
        """
        telemetry = self.telemetry
        with telemetry.tracer.span(f"index:{fingerprint}") as span:
            deltas, corrupt = self._summarize(path, fingerprint)
            records = 0
            for week in sorted(deltas):
                # A week's row is recorded with its file, before the
                # fault point: the log then holds exactly the merges
                # that are durable, and a re-fold after a crash (which
                # skips them) adds only the rest.
                if self._merge_week(week, deltas[week], fingerprint):
                    telemetry.tracer.event(
                        f"week:{week}", records=deltas[week].connections_total
                    )
                    self._fault("week-written")
                records += deltas[week].connections_total
            append_line(self._ledger_path, fingerprint.encode("ascii"))
            ledger.add(fingerprint)
            span.annotate(weeks=len(deltas), records=records)
            if corrupt:
                # A damaged chunk's records are lost to the index; the
                # fold still completes, so the loss must show here.
                span.annotate(corrupt_chunks=corrupt)
                telemetry.registry.counter("index.chunks_corrupt").inc(corrupt)
            telemetry.registry.counter("index.artifacts_folded").inc()
            telemetry.registry.counter("index.weeks_merged").inc(len(deltas))
        # Likewise after the fold's own row: the fold is complete once
        # the ledger lists it.
        self._fault("ledger-written")

    def fold_pending(self, spool) -> list[str]:
        """Fold every spooled artifact the ledger does not list yet.

        Returns the fingerprints actually folded, in fingerprint order
        (which the week files' bytes do not depend on).
        The ledger is read once, here, however many artifacts follow,
        and pending work comes from the spool's names: an artifact the
        ledger lists costs one set lookup.
        """
        ledger = self.ledger()
        pending = [fp for fp in spool.fingerprints() if fp not in ledger]
        for fingerprint in pending:
            self._fold(spool.artifact_path(fingerprint), fingerprint, ledger)
        return pending

    def _summarize(
        self, path: str | os.PathLike, fingerprint: str
    ) -> tuple[dict[str, WeekSummary], int]:
        """Decode once, group each batch's rows by week stamp, and feed
        every week's summary its rows — no record is ever built.
        Returns the week deltas and the number of chunks skipped as
        damaged."""
        from repro.artifacts import open_record_batches

        asdb = self.asdb
        deltas: dict[str, WeekSummary] = {}
        with open_record_batches(
            str(path), want_edges_received=False, want_edges_sorted=False,
            errors="count",
        ) as source:
            for batch in source.batches():
                rows_of: dict[str, list[int]] = {}
                for row, week in enumerate(batch.weeks):
                    rows_of.setdefault(week or UNSTAMPED_WEEK, []).append(row)
                for week, rows in rows_of.items():
                    delta = deltas.get(week)
                    if delta is None:
                        delta = deltas[week] = WeekSummary(week, asdb)
                        delta.artifacts.append(fingerprint)
                    delta.update(batch.take(rows))
            return deltas, source.corrupt_chunks

    def _merge_week(
        self, week: str, delta: WeekSummary, fingerprint: str
    ) -> bool:
        """Merge ``delta`` into the week's file (a new week's file is
        ``delta``); ``False`` if a crashed fold already merged it."""
        current = self.load_week(week) or delta
        if current is not delta:
            if fingerprint in current.artifacts:
                return False
            current.merge(delta.state())
        replace_file(self.week_path(week), current.to_json().encode("utf-8"))
        return True

    # -- ledger --------------------------------------------------------

    def ledger(self) -> set[str]:
        """Fingerprints whose fold completed (every week file written)."""
        return ledger_artifacts(self.ledger_bytes())

    def ledger_bytes(self) -> bytes:
        """The ledger file as it is, torn tail and all (``b""``: none)."""
        try:
            with open(self._ledger_path, "rb") as stream:
                return stream.read()
        except OSError:
            return b""

    def version(self) -> tuple[int, int, int] | None:
        """Cache tag for the API layer: changes whenever a fold completes.

        The ledger's stat key, ``(st_ino, st_size, st_mtime_ns)`` —
        one ``os.stat`` per API request; ``None`` while there is no
        ledger.  Every fold appends a line, so the size grows and the
        key moves on every fold, however many land in one timestamp
        tick.
        """
        try:
            stat = os.stat(self._ledger_path)
        except OSError:
            return None
        return (stat.st_ino, stat.st_size, stat.st_mtime_ns)

    # -- reading -------------------------------------------------------

    def week_path(self, week: str) -> Path:
        return self.directory / f"{_WEEK_PREFIX}{week}.json"

    def weeks(self) -> list[str]:
        """Indexed week labels, in calendar order (unstamped last)."""
        # Sliced, not startswith/endswith: a listing costs no call per name.
        labels = [
            name[_WEEK_LABEL]
            for name in os.listdir(self.directory)
            if name[_PREFIX] == _WEEK_PREFIX and name[_SUFFIX] == _WEEK_SUFFIX
        ]
        return sorted(labels, key=_week_sort_key)

    def week_bytes(self, week: str) -> bytes | None:
        """The week file as written (replaced atomically, so never torn)."""
        try:
            with open(f"{self._week_stem}{week}.json", "rb") as stream:
                return stream.read()
        except OSError:
            return None

    def load_week(self, week: str) -> WeekSummary | None:
        data = self.week_bytes(week)
        return None if data is None else WeekSummary.from_json(data)

    def load_combined(self) -> WeekSummary:
        """All weeks on disk merged into one ``week="all"`` summary."""
        combined = WeekSummary(week="all")
        for summary in filter(None, map(self.load_week, self.weeks())):
            combined.merge(summary.state())
        return combined

    # -- internals -----------------------------------------------------

    def _fault(self, event: str) -> None:
        if self._fault_hook is not None:
            self._fault_hook(event)


def ledger_artifacts(data: bytes) -> set[str]:
    """The fingerprints the ledger file ``data`` lists: its terminated
    lines.  A damaged line names no artifact, which only costs a
    re-check against the per-week artifact lists, never a double fold."""
    return set(data.decode("ascii", "replace").split("\n")[:-1])


@functools.lru_cache(maxsize=1024)
def _week_sort_key(label: str):
    from repro.campaign.schedule import CalendarWeek

    try:
        week = CalendarWeek.from_label(label)
    except (ValueError, TypeError):
        return (1, 0, 0, label)
    return (0, week.year, week.week, label)
