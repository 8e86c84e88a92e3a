"""Content-addressed artifact spool for the measurement service.

The campaign daemon and external submitters drop finished ``cbr``
artifacts here; the incremental indexer folds them into week summaries.
Artifacts are stored under their own content fingerprint
(``sha256(payload)[:16]``), so resubmitting the same bytes — a retried
upload, a daemon restart, a replayed batch — lands on the same file and
is recognized as a duplicate before any decoding happens.

Two files per spool directory:

* ``artifacts/<fingerprint>.cbr`` — the payloads, written atomically
  (tmp + rename) so a crash mid-submit never leaves a torn artifact
  under a valid name;
* ``manifest.jsonl`` — one appended JSON line per event
  (:func:`~repro._util.files.append_line`): artifact submissions (with
  size and source label) and completed daemon scans (with their
  :func:`repro.faults.scan_fingerprint` identity).  The manifest is
  advisory metadata: reading takes terminated lines and skips damaged
  ones, and the artifact set is always recoverable from the directory
  listing alone.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
from dataclasses import dataclass
from pathlib import Path

from repro._util.files import append_line, replace_file
from repro.artifacts.cbr import _read_head
from repro.faults.checkpoint import scan_digest
from repro.telemetry import Telemetry

__all__ = ["SpoolEntry", "SpoolStore", "artifact_fingerprint", "scan_digest"]

_ARTIFACT_DIR = "artifacts"
_MANIFEST_NAME = "manifest.jsonl"


def artifact_fingerprint(payload: bytes) -> str:
    """Content address of one artifact payload."""
    return hashlib.sha256(payload).hexdigest()[:16]


@dataclass(frozen=True)
class SpoolEntry:
    """One spooled artifact: its content address and storage path."""

    fingerprint: str
    path: Path
    size: int
    #: ``False`` when the submission matched an already-spooled payload.
    new: bool = True


class SpoolStore:
    """Artifact intake under one directory (created on demand)."""

    def __init__(self, directory: str | os.PathLike, telemetry=None) -> None:
        self.directory = Path(directory)
        self.artifact_dir = self.directory / _ARTIFACT_DIR
        self.artifact_dir.mkdir(parents=True, exist_ok=True)
        self.manifest_path = self.directory / _MANIFEST_NAME
        #: :class:`repro.telemetry.Telemetry` (``None``: off); intake volume
        #: counters only (content-derived, hence still deterministic).
        self.telemetry = Telemetry.resolve(telemetry)

    # -- submissions ---------------------------------------------------

    def submit_bytes(self, payload: bytes, source: str = "submit") -> SpoolEntry:
        """Store one artifact payload; duplicates are no-ops.

        The returned entry's ``new`` flag tells the caller whether the
        payload was actually written (and hence whether the indexer has
        anything to do that the ledger will not already reject).
        """
        fingerprint = artifact_fingerprint(payload)
        path = self.artifact_path(fingerprint)
        registry = self.telemetry.registry
        registry.counter("spool.submissions").inc()
        if path.is_file():
            registry.counter("spool.duplicates").inc()
            return SpoolEntry(
                fingerprint=fingerprint, path=path, size=len(payload), new=False
            )
        registry.counter("spool.bytes").inc(len(payload))
        replace_file(path, payload)
        self._append_manifest(
            {
                "event": "artifact",
                "fingerprint": fingerprint,
                "bytes": len(payload),
                "source": source,
            }
        )
        return SpoolEntry(
            fingerprint=fingerprint, path=path, size=len(payload), new=True
        )

    def submit_file(self, path: str | os.PathLike, source: str | None = None) -> SpoolEntry:
        """Spool an existing cbr artifact file by content.

        A file whose head is not cbr's (a JSONL export, anything else)
        raises :class:`~repro.artifacts.cbr.CbrFormatError` and nothing
        is written: spooled, it would fold as one corrupt chunk and
        still be listed as done.
        """
        payload = Path(path).read_bytes()
        _read_head(io.BytesIO(payload))
        return self.submit_bytes(payload, source=source or str(path))

    def artifact_path(self, fingerprint: str) -> Path:
        return self.artifact_dir / f"{fingerprint}.cbr"

    def fingerprints(self) -> list[str]:
        """Every spooled artifact's fingerprint, sorted — one listing.

        Listed from the directory, not the manifest, so a lost or
        damaged manifest never hides payloads from the indexer.  Names
        only: a caller that skips most of them (the indexer, against its
        ledger) pays no ``stat`` for those.  ``.tmp`` siblings of a
        submit in flight do not end in ``.cbr``.
        """
        return sorted(
            name[:-4]
            for name in os.listdir(self.artifact_dir)
            if name.endswith(".cbr") and not name.startswith(".")
        )

    def artifacts(self) -> list[SpoolEntry]:
        """Every spooled artifact, in fingerprint order, with its size."""
        entries = []
        for fingerprint in self.fingerprints():
            path = self.artifact_path(fingerprint)
            entries.append(
                SpoolEntry(
                    fingerprint=fingerprint,
                    path=path,
                    size=path.stat().st_size,
                    new=False,
                )
            )
        return entries

    # -- daemon scan ledger --------------------------------------------

    def record_scan(self, fingerprint: dict, artifact: str) -> None:
        """Mark one campaign scan as completed and spooled.

        ``fingerprint`` is the :func:`repro.faults.scan_fingerprint`
        dict; ``artifact`` the content address its dataset landed under.
        Written *after* the artifact itself, so a crash between the two
        re-runs the scan — which resubmits the identical payload and
        the indexer's ledger makes the re-fold a no-op.
        """
        self._append_manifest(
            {"event": "scan", "fingerprint": fingerprint, "artifact": artifact}
        )

    def completed_scans(self) -> dict[str, str]:
        """Map scan-identity digest → artifact fingerprint."""
        scans: dict[str, str] = {}
        for entry in self._manifest_entries():
            if entry.get("event") == "scan" and "artifact" in entry:
                scans[scan_digest(entry.get("fingerprint") or {})] = entry["artifact"]
        return scans

    def _manifest_entries(self) -> list[dict]:
        try:
            with open(self.manifest_path, "rb") as stream:
                lines = stream.read().split(b"\n")[:-1]  # terminated lines
        except OSError:
            return []
        entries = []
        for line in lines:
            try:
                data = json.loads(line)  # jsonl-ok: the manifest codec itself
            except ValueError:
                continue  # a line torn by a crash mid-append
            if isinstance(data, dict):
                entries.append(data)
        return entries

    def _append_manifest(self, entry: dict) -> None:
        line = json.dumps(entry, sort_keys=True).encode("utf-8")
        append_line(self.manifest_path, line)
