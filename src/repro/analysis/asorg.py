"""AS-organization attribution — Table 2 of the paper.

Every connection's IP is mapped to its origin AS via the (synthetic)
BGP prefix table and then to an organization via the as2org-equivalent
mapping; per organization the total number of QUIC connections and the
number with spin-bit activity are counted.  The rendered table shows
the top organizations by connection volume, their spin share, their
spin rank, and the aggregated ``<other>`` remainder — the layout of the
paper's Table 2.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import compress
from typing import Iterable, Mapping

from repro._util.stats import add_counts
from repro.artifacts.cbr import RecordBatch
from repro.core.classify import SpinBehaviour
from repro.internet.asdb import AsDatabase
from repro.web.scanner import ConnectionRecord

__all__ = [
    "OrgFold",
    "OrgRow",
    "OrgTable",
    "organization_table",
]


@dataclass
class OrgRow:
    """Per-organization connection and spin counts."""

    org_name: str
    total_connections: int
    spin_connections: int
    total_rank: int = 0
    spin_rank: int | None = None

    @property
    def spin_share(self) -> float:
        """Fraction of the organization's connections with spin activity."""
        if not self.total_connections:
            return 0.0
        return self.spin_connections / self.total_connections


@dataclass
class OrgTable:
    """Table 2: top organizations plus the aggregated remainder."""

    top_rows: list[OrgRow]
    other: OrgRow
    all_rows: list[OrgRow]


class OrgFold:
    """Streaming accumulator behind :func:`organization_table`.

    Only successful QUIC connections are attributed; spin activity uses
    the unfiltered candidate criterion plus grease filtering, i.e. the
    ``SPIN`` behaviour class, consistent with the paper's "Spin #".
    Prefix lookups are cached per address block
    (:attr:`AsDatabase.block_bits`; an ``ip_keys`` integer with its host
    bits cleared) — every address of a block has its first address's
    organisation, and a campaign's addresses share blocks.
    """

    name = "orgs"
    needs_edges_received = False
    needs_edges_sorted = False

    def __init__(self, asdb: AsDatabase, top_n: int = 8) -> None:
        self._asdb = asdb
        self._top_n = top_n
        self._totals: Counter[str] = Counter()
        self._spins: Counter[str] = Counter()
        self._org_of: dict[int, str] = {}
        # ``ip_keys`` are ``value << 1 | is_v6``: per version, the mask
        # that clears a block's host bits and keeps the version bit.
        self._block_masks = tuple(
            ~(((1 << asdb.block_bits[version]) - 1) << 1) for version in (4, 6)
        )

    def update_many(self, batch: RecordBatch) -> None:
        org_of = self._org_of
        masks = self._block_masks
        successes = batch.successes
        blocks = [key & masks[key & 1] for key in compress(batch.ip_keys, successes)]
        lookup = self._asdb.lookup_value
        for block in set(blocks).difference(org_of):
            entry = lookup(block >> 1, 6 if block & 1 else 4)
            org_of[block] = entry.org_name if entry is not None else "<unrouted>"
        orgs = list(map(org_of.__getitem__, blocks))
        self._totals.update(orgs)
        spin = SpinBehaviour.SPIN
        spinning = [behaviour is spin for behaviour in compress(batch.behaviours, successes)]
        self._spins.update(compress(orgs, spinning))

    def state(self) -> dict:
        return {"org_totals": dict(self._totals), "org_spins": dict(self._spins)}

    def merge(self, state: Mapping) -> None:
        add_counts(self._totals, state.get("org_totals"))
        add_counts(self._spins, state.get("org_spins"))

    def finish(self) -> OrgTable:
        """The Table 2 ranking of the counters: ranks, tie-breaks and
        the ``<other>`` aggregation are a function of them alone."""
        spins = self._spins
        rows = [
            OrgRow(org_name=org, total_connections=count, spin_connections=spins.get(org, 0))
            for org, count in self._totals.items()
        ]
        rows.sort(key=lambda row: (-row.total_connections, row.org_name))
        for rank, row in enumerate(rows, start=1):
            row.total_rank = rank
        by_spin = sorted(
            (row for row in rows if row.spin_connections),
            key=lambda row: (-row.spin_connections, row.org_name),
        )
        for rank, row in enumerate(by_spin, start=1):
            row.spin_rank = rank

        top_rows = rows[: self._top_n]
        rest = rows[self._top_n :]
        other = OrgRow(
            org_name="<other>",
            total_connections=sum(row.total_connections for row in rest),
            spin_connections=sum(row.spin_connections for row in rest),
        )
        return OrgTable(top_rows=top_rows, other=other, all_rows=rows)


def organization_table(
    connections: Iterable[ConnectionRecord],
    asdb: AsDatabase,
    top_n: int = 8,
) -> OrgTable:
    """Build the Table 2 aggregation from connection records."""
    fold = OrgFold(asdb, top_n=top_n)
    fold.update_many(RecordBatch.coerce(connections))
    return fold.finish()
