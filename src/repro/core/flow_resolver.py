"""Canonical flow identity across connection migration.

The flow table historically keyed flows by the short-header destination
CID alone — correct only while connections never migrate.  Real QUIC
traffic breaks that assumption three ways (RFC 9000 Section 9, and "An
Analysis of QUIC Connection Migration in the Wild" in PAPERS.md):

* **NAT rebind** — the 4-tuple changes, the CID does not.  A CID-keyed
  table survives this by accident; a 4-tuple-keyed one shatters.
* **CID rotation** — the sender switches to a previously issued
  alternate CID on the same path.  A CID-keyed table splits the flow
  in two, double-counting it and halving every per-flow statistic.
* **Active path migration** — both change at once, deliberately, so
  that an on-path observer *cannot* link the paths.

:class:`FlowKeyResolver` is the antidote for the linkable two.  A
flow's identity — the CIDs and 4-tuples it was seen with — lives in its
slot (:class:`~repro.core.flow_table.FlowRecord` ``cids`` / ``tuples``);
the resolver holds the linkage policy and two indexes, from CID bytes
and from 4-tuple to the slot claiming them.  A known CID on an unclaimed
4-tuple is a rebind, followed; an unknown CID on a claimed 4-tuple is a
rotation, adopted into the owner.  Zero-length CIDs are never indexed:
the table keys those flows by 4-tuple, apart from CID bytes.  The
unlinkable third kind degrades gracefully by design: a new flow opens,
nothing crashes, and nothing silently merges.

Claims go only to slots the table holds — :meth:`~FlowKeyResolver.find`
for a resident slot, :meth:`~FlowKeyResolver.admit` once a new one is
admitted — and :meth:`~FlowKeyResolver.release` drops them, from the
slot's own fields, when it is retired: the indexes are bounded by
``max_flows``, and a flow the table refuses leaves nothing behind.

The resolver also holds the transport counters.  The table classifies
each datagram by header alone: QUIC, or, failing that, TCP when its
first byte has the QUIC form and fixed bits clear and the header is
:func:`~repro.netsim.tcp.is_tcp_shaped`, else ``"unparseable"``; they
are filed under ``transport_mix`` instead of being uniform parse errors.
"""

from __future__ import annotations

from repro.core.flow_table import FlowRecord, tuple_flow_key

__all__ = ["FlowKeyResolver", "tuple_flow_key"]


class FlowKeyResolver:
    """CID-linkage policy and the identity indexes of a flow table.

    ``cid_linkage=False`` disables the rotation-linking step (every
    unknown CID opens a new flow, as the legacy table behaved) while
    keeping classification and rebind detection — the control arm of
    the ``analyze --section migration`` accuracy comparison.
    """

    __slots__ = (
        "cid_linkage",
        "flows_migrated",
        "flows_split",
        "rebinds_seen",
        "quic_datagrams",
        "tcp_datagrams",
        "unparseable_datagrams",
        "by_cid",
        "by_tuple",
        "tcp_tuples",
    )

    def __init__(self, cid_linkage: bool = True):
        self.cid_linkage = cid_linkage
        #: Flows that kept one identity across a CID change (linked
        #: rotations); ``rebinds_seen`` counts tuple changes on a known
        #: CID; ``flows_split`` counts flows admitted even though a live
        #: flow owned the 4-tuple (linkage off) — the degradation the
        #: chaos gate pins at zero for linkable traffic.
        self.flows_migrated = 0
        self.flows_split = 0
        self.rebinds_seen = 0
        #: Datagrams per transport, and the 4-tuples seen carrying TCP:
        #: the flow table's classification, counted here.
        self.quic_datagrams = 0
        self.tcp_datagrams = 0
        self.unparseable_datagrams = 0
        self.tcp_tuples: set[tuple] = set()
        #: Every alias CID / claimed 4-tuple of a held slot -> that slot.
        self.by_cid: dict[bytes, FlowRecord] = {}
        self.by_tuple: dict[tuple, FlowRecord] = {}

    # ------------------------------------------------------------------
    # Flow identity
    # ------------------------------------------------------------------

    def resolve(self, cid_hex: str, tuple4: tuple | None) -> str:
        """Canonical flow key for one QUIC short-header packet, without a
        table: identity is registered as for an admitted slot, never retired."""
        cid = bytes.fromhex(cid_hex)
        if not cid:
            # Zero-length CID: the 4-tuple is the only identity there
            # is; a tuple change on such a flow is unlinkable by definition.
            return "(empty)" if tuple4 is None else tuple_flow_key(tuple4)
        flow = self.find(cid, tuple4)
        if flow is None:
            flow = FlowRecord(cid_hex, 0.0, 0.0, key=cid)
            self.admit(flow, cid, tuple4)
        return flow.flow_key

    def find(self, cid: bytes, tuple4: tuple | None) -> FlowRecord | None:
        """The held slot a packet with ``cid`` on ``tuple4`` belongs to,
        or ``None`` when it would open a new flow."""
        flow = self.by_cid.get(cid)
        if flow is not None:
            if tuple4 is not None and tuple4 not in flow.tuples:
                # Known CID on a new path: NAT rebind. Follow it.
                self.rebinds_seen += 1
                self._claim_tuple(flow, tuple4)
        elif tuple4 is not None and self.cid_linkage:
            flow = self.by_tuple.get(tuple4)
            if flow is not None:
                # Unknown CID with tuple continuity: CID rotation.
                self.flows_migrated += 1
                self.by_cid[cid] = flow
                flow.cids += (cid,)
        return flow

    def admit(self, flow: FlowRecord, cid: bytes, tuple4: tuple | None) -> None:
        """Claim ``cid`` and ``tuple4`` for a slot the table just admitted.

        A 4-tuple a held flow owns means the evidence said continuation
        and the policy said split: counted, and the new flow takes the
        tuple (last writer wins, as on a real NAT).
        """
        self.by_cid[cid] = flow
        flow.cids = (cid,)
        if tuple4 is not None:
            if tuple4 in self.by_tuple:
                self.flows_split += 1
            self._claim_tuple(flow, tuple4)

    def release(self, flow: FlowRecord) -> None:
        """Drop the claims of a slot the table retired."""
        for cid in flow.cids:
            del self.by_cid[cid]
        for tuple4 in flow.tuples:
            del self.by_tuple[tuple4]

    def _claim_tuple(self, flow: FlowRecord, tuple4: tuple) -> None:
        previous = self.by_tuple.get(tuple4)
        if previous is not None:
            previous.tuples = tuple(owned for owned in previous.tuples if owned != tuple4)
        self.by_tuple[tuple4] = flow
        flow.tuples += (tuple4,)

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------

    @property
    def tcp_flows(self) -> int:
        """Distinct 4-tuples seen carrying TCP segments."""
        return len(self.tcp_tuples)

    def counters(self) -> dict:
        """JSON-serializable migration/classification counter block."""
        return {
            "cid_linkage": self.cid_linkage,
            "flows_migrated": self.flows_migrated,
            "flows_split": self.flows_split,
            "rebinds_seen": self.rebinds_seen,
            "tcp_flows": self.tcp_flows,
            "transport_mix": {
                "quic": self.quic_datagrams,
                "tcp": self.tcp_datagrams,
                "unparseable": self.unparseable_datagrams,
            },
        }
