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

:class:`FlowKeyResolver` is the antidote for the linkable two: it maps
every CID observed on a connection to one canonical flow key (the
first CID's hex), links an unknown CID to a live flow when the 4-tuple
carries continuity (rotation), and records a tuple change on a known
CID as a rebind.  Zero-length CIDs fall back to pure 4-tuple keying in
a separate key namespace so they can never merge with CID-keyed flows.
The unlinkable third kind degrades gracefully by design: a new flow
opens, nothing crashes, and nothing silently merges.

The resolver also classifies transports: datagrams that fail the QUIC
header parse are tested against the TCP segment shape
(:mod:`repro.netsim.tcp`) and filed under ``transport_mix`` as
``"tcp"`` or ``"unparseable"`` instead of being uniform parse errors.

All state is keyed to *live* flows: :meth:`on_flow_retired` drops a
retired flow's CID and tuple claims — and those of a flow the table
refused to admit — so resolver memory is bounded by the flow table's
``max_flows``, not by traffic history.
"""

from __future__ import annotations

from repro.netsim.tcp import decode_tcp_segment

__all__ = ["FlowKeyResolver", "tuple_flow_key"]

#: QUIC long/short form-or-fixed bits: a first byte with either set is
#: QUIC-shaped, so the TCP classifier never gets to claim it.
_QUIC_FORM_OR_FIXED = 0xC0


def tuple_flow_key(tuple4: tuple) -> str:
    """The flow key of a zero-length-CID flow: its 4-tuple, namespaced.

    The ``4t:`` prefix keeps tuple-keyed flows in a different key space
    from CID-keyed ones (hex strings), so a CID flow sharing a 4-tuple
    with an empty-CID flow can never collide with it.
    """
    return "4t:" + ":".join(str(part) for part in tuple4)


class FlowKeyResolver:
    """CID-linkage table mapping wire observations to canonical flow keys.

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
        "_by_cid",
        "_by_tuple",
        "_key_cids",
        "_key_tuples",
        "_tcp_tuples",
    )

    def __init__(self, cid_linkage: bool = True):
        self.cid_linkage = cid_linkage
        #: Flows that kept one identity across a CID change (linked
        #: rotations); ``rebinds_seen`` counts tuple changes on a known
        #: CID; ``flows_split`` counts flows that opened even though a
        #: live flow owned the 4-tuple (linkage off, or an empty-CID /
        #: foreign-CID conflict) — the degradation the chaos gate pins
        #: at zero for linkable traffic.
        self.flows_migrated = 0
        self.flows_split = 0
        self.rebinds_seen = 0
        self.quic_datagrams = 0
        self.tcp_datagrams = 0
        self.unparseable_datagrams = 0
        self._by_cid: dict[str, str] = {}
        self._by_tuple: dict[tuple, str] = {}
        self._key_cids: dict[str, set[str]] = {}
        self._key_tuples: dict[str, set[tuple]] = {}
        self._tcp_tuples: set[tuple] = set()

    # ------------------------------------------------------------------
    # Flow identity
    # ------------------------------------------------------------------

    def resolve(self, cid_hex: str, tuple4: tuple | None) -> str:
        """Canonical flow key for one QUIC short-header packet."""
        if not cid_hex:
            # Zero-length CID: the 4-tuple is the only identity there
            # is.  Keyed deterministically in the ``4t:`` namespace; a
            # tuple change on such a flow is unlinkable by definition.
            if tuple4 is None:
                return "(empty)"
            return tuple_flow_key(tuple4)

        key = self._by_cid.get(cid_hex)
        if key is not None:
            if tuple4 is not None and tuple4 not in self._key_tuples[key]:
                # Known CID on a new path: NAT rebind. Follow it.
                self.rebinds_seen += 1
                self._claim_tuple(key, tuple4)
            return key

        if tuple4 is not None:
            owner = self._by_tuple.get(tuple4)
            if owner is not None:
                if self.cid_linkage:
                    # Unknown CID with tuple continuity: CID rotation.
                    # Adopt the CID into the owning flow's identity.
                    self.flows_migrated += 1
                    self._by_cid[cid_hex] = owner
                    self._key_cids[owner].add(cid_hex)
                    return owner
                # Linkage disabled: the evidence says continuation, the
                # policy says split.  Count it; the new flow takes the
                # tuple (last writer wins, as on a real NAT).
                self.flows_split += 1

        key = cid_hex
        self._by_cid[cid_hex] = key
        self._key_cids[key] = {cid_hex}
        self._key_tuples[key] = set()
        if tuple4 is not None:
            self._claim_tuple(key, tuple4)
        return key

    def on_flow_retired(self, key: str) -> None:
        """Forget the claims of a flow the table retired or refused."""
        for cid_hex in self._key_cids.pop(key, ()):
            if self._by_cid.get(cid_hex) == key:
                del self._by_cid[cid_hex]
        for tuple4 in self._key_tuples.pop(key, ()):
            if self._by_tuple.get(tuple4) == key:
                del self._by_tuple[tuple4]

    def _claim_tuple(self, key: str, tuple4: tuple) -> None:
        previous = self._by_tuple.get(tuple4)
        if previous is not None and previous != key:
            owned = self._key_tuples.get(previous)
            if owned is not None:
                owned.discard(tuple4)
        self._by_tuple[tuple4] = key
        self._key_tuples[key].add(tuple4)

    # ------------------------------------------------------------------
    # Transport classification
    # ------------------------------------------------------------------

    def classify_non_quic(self, data: bytes, tuple4: tuple | None) -> str:
        """File a datagram that failed the QUIC parse: tcp or unparseable."""
        if data and not data[0] & _QUIC_FORM_OR_FIXED:
            try:
                decode_tcp_segment(data)
            except ValueError:
                pass
            else:
                self.tcp_datagrams += 1
                if tuple4 is not None:
                    self._tcp_tuples.add(tuple4)
                return "tcp"
        self.unparseable_datagrams += 1
        return "unparseable"

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------

    @property
    def tcp_flows(self) -> int:
        """Distinct 4-tuples seen carrying TCP segments."""
        return len(self._tcp_tuples)

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
