"""QUIC version distribution of successful connections.

The paper's scanner supports QUIC v1 plus drafts 27/29/32/34 precisely
because real deployments still answered with draft versions in the
measurement period (cf. Zirngibl et al. 2021).  This aggregation shows
which wire versions connections ended up on after version negotiation —
context for the adoption tables and a consistency check that the
negotiation machinery sees use.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import compress
from typing import Iterable, Mapping

from repro.artifacts.cbr import RecordBatch
from repro.quic.version import QuicVersion
from repro.web.scanner import ConnectionRecord

__all__ = [
    "VersionFold",
    "VersionShare",
    "version_distribution",
]


@dataclass(frozen=True)
class VersionShare:
    """One wire version's share of successful connections."""

    version: int
    label: str
    connections: int
    share: float


def _label(version: int) -> str:
    try:
        parsed = QuicVersion(version)
    except ValueError:
        return f"unknown (0x{version:08x})"
    if parsed is QuicVersion.VERSION_1:
        return "QUIC v1"
    return parsed.name.replace("_", "-").lower()


class VersionFold:
    """Streaming accumulator behind :func:`version_distribution`."""

    name = "versions"
    needs_edges_received = False
    needs_edges_sorted = False

    def __init__(self) -> None:
        self._counts: Counter[int] = Counter()

    def update_many(self, batch: RecordBatch) -> None:
        self._counts.update(
            [version for version in compress(batch.versions, batch.successes)
             if version is not None]
        )

    def state(self) -> dict:
        # JSON object keys are strings; ``merge`` reads them back as ints.
        return {"versions": {str(key): count for key, count in self._counts.items()}}

    def merge(self, state: Mapping) -> None:
        counts = self._counts
        for key, count in (state.get("versions") or {}).items():
            counts[int(key)] = counts.get(int(key), 0) + int(count)

    def finish(self) -> list[VersionShare]:
        counts = self._counts
        total = sum(counts.values())
        shares = [
            VersionShare(
                version=version,
                label=_label(version),
                connections=count,
                share=count / total,
            )
            for version, count in counts.items()
        ]
        shares.sort(key=lambda entry: (-entry.connections, entry.version))
        return shares


def version_distribution(records: Iterable[ConnectionRecord]) -> list[VersionShare]:
    """Per-version connection counts, descending by share."""
    fold = VersionFold()
    fold.update_many(RecordBatch.coerce(records))
    return fold.finish()
