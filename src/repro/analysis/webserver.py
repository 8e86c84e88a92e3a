"""Webserver attribution (Section 4.2, "Webserver support").

The paper inspects the HTTP ``server`` header of connections that could
be unambiguously matched to qlog traces and finds LiteSpeed behind more
than 80 % of the (spin-supporting) connections, with another ~7 % served
by imunify360-webshield.  This module computes those shares from the
scanner's connection records, whose server headers were parsed from the
actual response bytes.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import compress
from typing import Iterable, Mapping

from repro._util.stats import add_counts
from repro.artifacts.cbr import RecordBatch
from repro.core.classify import SpinBehaviour
from repro.web.scanner import ConnectionRecord

__all__ = [
    "WebserverFold",
    "WebserverShare",
    "webserver_shares",
]


@dataclass(frozen=True)
class WebserverShare:
    """One server software's share of a connection set."""

    server_header: str
    connections: int
    share: float


class WebserverFold:
    """Streaming accumulator behind :func:`webserver_shares`.

    ``spinning_only`` restricts the denominator to connections with
    (unfiltered) spin activity — the population whose stack provenance
    the paper traces back to LiteSpeed.
    """

    name = "webservers"
    needs_edges_received = False
    needs_edges_sorted = False

    def __init__(self, spinning_only: bool = True) -> None:
        self._spinning_only = spinning_only
        self._counts: Counter[str] = Counter()

    def update_many(self, batch: RecordBatch) -> None:
        counted = batch.successes
        if self._spinning_only:
            spin = SpinBehaviour.SPIN
            counted = [
                success and behaviour is spin
                for success, behaviour in zip(counted, batch.behaviours)
            ]
        for header, count in Counter(compress(batch.headers, counted)).items():
            self._counts[header or "<none>"] += count

    def state(self) -> dict:
        return {"webservers": dict(self._counts)}

    def merge(self, state: Mapping) -> None:
        add_counts(self._counts, state.get("webservers"))

    def finish(self) -> list[WebserverShare]:
        counts = self._counts
        total = sum(counts.values())
        shares = [
            WebserverShare(server_header=header, connections=count, share=count / total)
            for header, count in counts.items()
        ]
        shares.sort(key=lambda entry: (-entry.connections, entry.server_header))
        return shares


def webserver_shares(
    connections: Iterable[ConnectionRecord],
    spinning_only: bool = True,
) -> list[WebserverShare]:
    """Connection share per ``server`` header, descending."""
    fold = WebserverFold(spinning_only=spinning_only)
    fold.update_many(RecordBatch.coerce(connections))
    return fold.finish()
