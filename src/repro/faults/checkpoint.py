"""Crash-safe campaign resume from per-shard checkpoints.

``repro scan --checkpoint-dir DIR`` persists every finished shard of
domain results as one atomically-written columnar binary file
(``shard-NNNNN.cbr``, :data:`~repro.artifacts.cbr.KIND_DOMAINS` chunks)
plus a manifest binding the directory to the scan's identity (seed,
week, IP version, probe, target list, shard size).  A killed scan
resumes by loading the finished shards and scanning only the rest;
because each domain's randomness is independently derived and the
circuit breaker runs over emitted results (never from checkpointed
state), the resumed dataset is bit-identical to an uninterrupted run.
``repro convert DIR out.cbr`` merges a checkpoint directory into one
artifact by copying CRC-verified chunk frames — no decode, no
re-encode.

Robustness rules: a missing, truncated, or otherwise unreadable shard
file — including one in the retired ``shard-NNNNN.jsonl`` format — is
treated as "not scanned yet" and simply re-scanned; a manifest
that does not match the requested scan raises :class:`CheckpointError`
(silently mixing two campaigns would corrupt the dataset).
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Sequence

from repro._util.files import replace_file

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.internet.population import DomainRecord
    from repro.web.scanner import DomainScanResult

__all__ = [
    "CheckpointError",
    "CheckpointStore",
    "encode_domain_results",
    "results_from_cbr_payload",
    "scan_fingerprint",
]

_MANIFEST_SCHEMA = 1


class CheckpointError(ValueError):
    """Raised when a checkpoint directory cannot serve the scan."""


def scan_fingerprint(
    seed: int,
    week_label: str,
    ip_version: int,
    probe: int,
    targets: Iterable["DomainRecord"],
    config_repr: str,
) -> dict:
    """Identity of one scan, for manifest compatibility checks.

    The target list is folded to a digest so manifests stay small; it is
    hashed name by name, so ``targets`` may be any iterable — a
    population's ``iter_targets()`` never becomes a list (the digest
    equals that of the names joined by ``|``).  The scan config enters
    via its ``repr`` (frozen dataclasses render every field), so
    resuming under a different fault plan or resilience setting is
    rejected instead of silently mixing regimes.
    """
    names = hashlib.sha256()
    count = 0
    for domain in targets:
        if count:
            names.update(b"|")
        names.update(domain.name.encode("utf-8"))
        count += 1
    config_digest = hashlib.sha256(config_repr.encode("utf-8")).hexdigest()[:16]
    return {
        "seed": seed,
        "week": week_label,
        "ip_version": ip_version,
        "probe": probe,
        "targets": count,
        "targets_digest": names.hexdigest()[:16],
        "config_digest": config_digest,
    }


def encode_domain_results(results: Sequence["DomainScanResult"]) -> bytes:
    """Encode domain results as one cbr ``KIND_DOMAINS`` byte stream.

    The format shared by checkpoint shard files and the parallel
    engine's worker→parent IPC payloads: both sides of the process
    boundary speak compact columnar frames instead of pickled object
    graphs, and a worker payload is a shard file byte for byte.
    """
    import io

    from repro.artifacts.cbr import KIND_DOMAINS, CbrWriter

    buffer = io.BytesIO()
    writer = CbrWriter(buffer, kind=KIND_DOMAINS)
    for result in results:
        writer.write_domain_result(result)
    writer.close()
    return buffer.getvalue()


def results_from_cbr_payload(
    payload: bytes, targets: Sequence["DomainRecord"], strict: bool = False
) -> "list[DomainScanResult] | None":
    """Decode a ``KIND_DOMAINS`` cbr payload back to scan results.

    Each decoded domain is re-bound to the caller's
    :class:`DomainRecord` (the payload carries only the name).  With
    ``strict=False`` any damage — torn frames, a count or name mismatch
    — returns ``None`` (checkpoint semantics: re-scan); with
    ``strict=True`` it raises, because a corrupt in-memory IPC payload
    is a bug, not a crash artifact.
    """
    import io

    from repro.artifacts.cbr import CbrFormatError, CbrReader
    from repro.web.scanner import DomainScanResult

    try:
        reader = CbrReader(io.BytesIO(payload))
        domains = [data for batch in reader.domain_batches() for data in batch]
    except (ValueError, CbrFormatError):
        if strict:
            raise
        return None
    if len(domains) != len(targets):
        if strict:
            raise CheckpointError(
                f"shard payload holds {len(domains)} domains, "
                f"expected {len(targets)}"
            )
        return None  # interrupted mid-write before the rename
    results = []
    for domain, data in zip(targets, domains):
        if data.name != domain.name:
            if strict:
                raise CheckpointError(
                    f"shard payload domain {data.name!r} != target "
                    f"{domain.name!r}"
                )
            return None
        results.append(
            DomainScanResult(
                domain=domain,
                resolved=data.resolved,
                quic_support=data.quic_support,
                resolved_ip=data.resolved_ip,
                connections=data.connections,
                failure=data.failure,
            )
        )
    return results


class CheckpointStore:
    """Shard-granular result persistence under one directory."""

    MANIFEST_NAME = "manifest.json"

    def __init__(self, directory: str | os.PathLike, fingerprint: dict, chunk: int):
        if chunk < 1:
            raise CheckpointError("checkpoint chunk must be >= 1")
        self.directory = Path(directory)
        self.chunk = chunk
        self.fingerprint = fingerprint
        self.shards_loaded = 0
        self.shards_saved = 0
        self.directory.mkdir(parents=True, exist_ok=True)
        manifest = {
            "schema": _MANIFEST_SCHEMA,
            "chunk": chunk,
            "fingerprint": fingerprint,
        }
        path = self.directory / self.MANIFEST_NAME
        if path.is_file():
            try:
                existing = json.loads(path.read_text(encoding="utf-8"))
            except (OSError, json.JSONDecodeError) as exc:
                raise CheckpointError(
                    f"unreadable checkpoint manifest {path}: {exc}"
                ) from exc
            if existing != manifest:
                raise CheckpointError(
                    f"checkpoint directory {self.directory} belongs to a "
                    "different scan (seed/week/targets/config mismatch); "
                    "use a fresh directory"
                )
        else:
            text = json.dumps(manifest, sort_keys=True) + "\n"
            replace_file(path, text.encode("utf-8"))

    def shard_path(self, shard_index: int) -> Path:
        return self.directory / f"shard-{shard_index:05d}.cbr"

    def save_shard(
        self, shard_index: int, shard: "Sequence[DomainScanResult] | bytes"
    ) -> None:
        """Persist one finished shard atomically (write + rename).

        ``shard`` is the results, or the cbr payload a pool worker
        already encoded them to (written as is — the parent never
        re-encodes what a worker produced).  Shards are columnar binary
        (``cbr``, :data:`KIND_DOMAINS` chunks), so ``repro convert`` can
        merge a checkpoint directory into one artifact by frame
        concatenation — no re-decode.
        """
        payload = shard if isinstance(shard, bytes) else encode_domain_results(shard)
        replace_file(self.shard_path(shard_index), payload)
        self.shards_saved += 1

    def load_shard(
        self, shard_index: int, targets: Sequence["DomainRecord"]
    ) -> "list[DomainScanResult] | None":
        """Load one shard; ``None`` when absent or damaged (re-scan it)."""
        try:
            payload = self.shard_path(shard_index).read_bytes()
        except OSError:
            return None
        results = results_from_cbr_payload(payload, targets)
        if results is not None:
            self.shards_loaded += 1
        return results
