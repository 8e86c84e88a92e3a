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
* ``manifest.jsonl`` — one appended JSON line per event: artifact
  submissions (with size and source label) and completed daemon scans
  (with their :func:`repro.faults.scan_fingerprint` identity).  The
  manifest is advisory metadata: reading tolerates damaged lines, and
  the artifact set is always recoverable from the directory listing
  alone.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
from dataclasses import dataclass
from pathlib import Path

from repro._util.files import replace_file
from repro.artifacts.cbr import _read_head
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

    def artifacts(self) -> list[SpoolEntry]:
        """Every spooled artifact, in fingerprint order.

        Listed from the directory, not the manifest, so a lost or
        damaged manifest never hides payloads from the indexer.
        """
        entries = []
        for path in sorted(self.artifact_dir.glob("*.cbr")):
            entries.append(
                SpoolEntry(
                    fingerprint=path.stem,
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
        if not self.manifest_path.is_file():
            return []
        entries = []
        try:
            lines = self.manifest_path.read_text(encoding="utf-8").splitlines()
        except OSError:
            return []
        for line in lines:
            try:
                data = json.loads(line)  # jsonl-ok: the manifest codec itself
            except json.JSONDecodeError:
                continue  # torn tail after a crash mid-append
            if isinstance(data, dict):
                entries.append(data)
        return entries

    def _append_manifest(self, entry: dict) -> None:
        line = json.dumps(entry, sort_keys=True) + "\n"
        with open(self.manifest_path, "a+b") as stream:
            # After a crash mid-append the file ends in a torn line: start
            # a new one, or this entry is glued to the fragment and lost.
            if stream.tell():
                stream.seek(-1, os.SEEK_END)
                if stream.read(1) != b"\n":
                    line = "\n" + line
            stream.write(line.encode("utf-8"))


def scan_digest(fingerprint: dict) -> str:
    """Stable digest of a scan-identity dict (manifest lookup key)."""
    canonical = json.dumps(fingerprint, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]
