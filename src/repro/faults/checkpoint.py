"""Crash-safe campaign resume from per-shard checkpoints.

``repro scan --checkpoint-dir DIR`` persists every finished shard of
domain results as one atomically-written columnar binary file
(``DIR/<name>/shard-NNNNN.cbr``, :data:`~repro.artifacts.cbr.KIND_DOMAINS`
chunks).  ``<name>`` is a digest of the scan's identity (seed, week, IP
version, probe, target list, config) and of the shard size, so the path
is the identity: a scan opens its own directory and never sees another
scan's shards.  A killed scan resumes by loading the finished shards
and scanning only the rest; because each domain's randomness is
independently derived and the circuit breaker runs over emitted results
(never from checkpointed state), the resumed dataset is bit-identical
to an uninterrupted run.  ``repro convert DIR/<name> out.cbr`` merges
one scan's shards into one artifact by copying CRC-verified chunk
frames — no decode, no re-encode.

Robustness rule: a missing, truncated, or otherwise unreadable shard
file — including one in the retired ``shard-NNNNN.jsonl`` format, or
one left directly under ``DIR`` by the retired manifest layout — is
treated as "not scanned yet" and simply re-scanned.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Sequence

from repro._util.files import replace_file

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.internet.population import DomainRecord, Population
    from repro.web.scanner import DomainScanResult

__all__ = [
    "CheckpointError",
    "CheckpointStore",
    "encode_domain_results",
    "results_from_cbr_payload",
    "scan_digest",
    "scan_fingerprint",
]


class CheckpointError(ValueError):
    """Raised for a shard size below one or a damaged worker payload."""


def scan_fingerprint(
    seed: int,
    week_label: str,
    ip_version: int,
    probe: int,
    targets: "Population | Iterable[DomainRecord]",
    config_repr: str,
) -> dict:
    """Identity of one scan: what names its checkpoint directory and its
    entry in the spool manifest.

    The target list is folded to a digest so the identity stays small
    (:func:`~repro.internet.population.names_digest`).  A whole
    population passes itself: it walks its targets for the digest once
    and keeps it, so the fingerprints of a campaign's weeks cost one
    walk.  The scan config enters via its ``repr`` (frozen dataclasses
    render every field), so a scan under a different fault plan or
    resilience setting gets a directory of its own instead of silently
    mixing regimes.
    """
    from repro.internet.population import Population, names_digest

    count, digest = (
        targets.targets_digest
        if isinstance(targets, Population)
        else names_digest(targets)
    )
    config_digest = hashlib.sha256(config_repr.encode("utf-8")).hexdigest()[:16]
    return {
        "seed": seed,
        "week": week_label,
        "ip_version": ip_version,
        "probe": probe,
        "targets": count,
        "targets_digest": digest,
        "config_digest": config_digest,
    }


def scan_digest(fingerprint: dict) -> str:
    """Stable digest of an identity dict (a path name, a manifest key)."""
    canonical = json.dumps(fingerprint, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


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
    """Shard-granular result persistence under one scan's directory.

    The store lives in ``directory/<name>``, ``<name>`` the
    :func:`scan_digest` of the fingerprint and the shard size: two runs
    that differ in either (chunk included — merged, their shards would
    hold some domains twice) share no file.
    """

    def __init__(self, directory: str | os.PathLike, fingerprint: dict, chunk: int):
        if chunk < 1:
            raise CheckpointError("checkpoint chunk must be >= 1")
        self.directory = Path(directory) / scan_digest({**fingerprint, "chunk": chunk})
        self.shards_loaded = 0
        self.shards_saved = 0
        self.directory.mkdir(parents=True, exist_ok=True)

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
