"""The one-structure flow table against the two-structure design it replaced.

``SpinFlowTable`` once resolved a packet's flow key through a separate
``FlowKeyResolver`` with its own per-key maps (``resolve()`` registered
claims, ``on_flow_retired`` dropped them); now the slot holds the flow's
identity and the resolver's indexes point at slots.  The reference below
is that earlier resolver and the table's key path around it, kept as
they were with one documented deviation: claims happen only on
admission, so a packet the table refuses leaves the resolver exactly as
it found it (the earlier design counted the split and moved the 4-tuple
claim before the refusal).

Over random streams drawn from small pools — CIDs (zero-length ones
included), 4-tuples (``None`` included), idle gaps longer than the
timeout, TCP segments and garbage — every packet must land in the same
flow, and the table's stats, the resolver's counters, the retirement
sequence and the observations must be equal.
"""

import copy
from collections import OrderedDict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.flow_resolver import FlowKeyResolver
from repro.core.flow_table import FlowTableStats, SpinFlowTable, tuple_flow_key
from repro.core.observer import SpinObserver
from repro.netsim.tcp import TcpSegment, decode_tcp_segment, encode_tcp_segment
from repro.quic.onpath import walk_datagram
from repro.quic.packet_number import decode_packet_number


class ReferenceResolver:
    """The resolver with per-key claim maps, as it was."""

    def __init__(self, cid_linkage=True):
        self.cid_linkage = cid_linkage
        self.flows_migrated = self.flows_split = self.rebinds_seen = 0
        self.quic_datagrams = self.tcp_datagrams = self.unparseable_datagrams = 0
        self._by_cid = {}
        self._by_tuple = {}
        self._key_cids = {}
        self._key_tuples = {}
        self._tcp_tuples = set()

    def resolve(self, cid_hex, tuple4):
        if not cid_hex:
            if tuple4 is None:
                return "(empty)"
            return tuple_flow_key(tuple4)
        key = self._by_cid.get(cid_hex)
        if key is not None:
            if tuple4 is not None and tuple4 not in self._key_tuples[key]:
                self.rebinds_seen += 1
                self._claim_tuple(key, tuple4)
            return key
        if tuple4 is not None:
            owner = self._by_tuple.get(tuple4)
            if owner is not None:
                if self.cid_linkage:
                    self.flows_migrated += 1
                    self._by_cid[cid_hex] = owner
                    self._key_cids[owner].add(cid_hex)
                    return owner
                self.flows_split += 1
        key = cid_hex
        self._by_cid[cid_hex] = key
        self._key_cids[key] = {cid_hex}
        self._key_tuples[key] = set()
        if tuple4 is not None:
            self._claim_tuple(key, tuple4)
        return key

    def on_flow_retired(self, key):
        for cid_hex in self._key_cids.pop(key, ()):
            if self._by_cid.get(cid_hex) == key:
                del self._by_cid[cid_hex]
        for tuple4 in self._key_tuples.pop(key, ()):
            if self._by_tuple.get(tuple4) == key:
                del self._by_tuple[tuple4]

    def _claim_tuple(self, key, tuple4):
        previous = self._by_tuple.get(tuple4)
        if previous is not None and previous != key:
            owned = self._key_tuples.get(previous)
            if owned is not None:
                owned.discard(tuple4)
        self._by_tuple[tuple4] = key
        self._key_tuples[key].add(tuple4)

    def classify_non_quic(self, data, tuple4):
        if data and not data[0] & 0xC0:
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

    def counters(self):
        return {
            "cid_linkage": self.cid_linkage,
            "flows_migrated": self.flows_migrated,
            "flows_split": self.flows_split,
            "rebinds_seen": self.rebinds_seen,
            "tcp_flows": len(self._tcp_tuples),
            "transport_mix": {
                "quic": self.quic_datagrams,
                "tcp": self.tcp_datagrams,
                "unparseable": self.unparseable_datagrams,
            },
        }


class ReferenceFlow:
    def __init__(self, flow_key, time_ms):
        self.flow_key = flow_key
        self.last_seen_ms = time_ms
        self.observer = SpinObserver()
        self.largest_pn = None


class ReferenceTable:
    """The table's key path around :class:`ReferenceResolver`: hex keys,
    ``resolve()`` before the lookup, ``on_flow_retired`` on retirement."""

    def __init__(self, resolver, short_dcid_length, max_flows, overflow_policy, idle_timeout_ms):
        self.resolver = resolver
        self.short_dcid_length = short_dcid_length
        self.max_flows = max_flows
        self.overflow_policy = overflow_policy
        self.idle_timeout_ms = idle_timeout_ms
        self.flows = OrderedDict()
        self.stats = FlowTableStats()
        self.delivered = []  # the flow of every tracked packet
        self.retired = []  # (flow_key, reason)
        self._next_sweep_ms = float("-inf")

    def on_server_datagram(self, time_ms, data, tuple4):
        if time_ms >= self._next_sweep_ms:
            self._expire_idle(time_ms)
        stats = self.stats
        stats.datagrams += 1
        try:
            packets, short_at = walk_datagram(data, self.short_dcid_length)
        except ValueError:
            if self.resolver.classify_non_quic(data, tuple4) != "tcp":
                stats.parse_errors += 1
            return
        self.resolver.quic_datagrams += 1
        stats.packets += packets
        if short_at < 0:
            return
        first = data[short_at]
        pn_at = short_at + 1 + self.short_dcid_length
        cid = data[short_at + 1 : pn_at]
        # The deviation: what resolve() does for a flow the table then
        # refuses is undone, not half-released by on_flow_retired.
        before = copy.deepcopy(self.resolver)
        key = self.resolver.resolve(cid.hex(), tuple4)
        flow = self.flows.get(key)
        if flow is not None:
            self.flows.move_to_end(key)
        else:
            flow = self._admit(key, time_ms)
            if flow is None:
                stats.overflow_drops += 1
                self.resolver = before
                return
        stats.short_header_packets += 1
        flow.last_seen_ms = time_ms
        pn_length = (first & 0x03) + 1
        truncated = int.from_bytes(data[pn_at : pn_at + pn_length], "big")
        full_pn = decode_packet_number(truncated, pn_length, flow.largest_pn)
        if flow.largest_pn is None or full_pn > flow.largest_pn:
            flow.largest_pn = full_pn
        flow.observer.on_packet(time_ms, full_pn, bool(first & 0x20))
        self.delivered.append(flow)

    def observations(self):
        return {key: flow.observer.observation() for key, flow in self.flows.items()}

    def _admit(self, key, time_ms):
        if len(self.flows) >= self.max_flows:
            if self.overflow_policy == "drop-new":
                return None
            _, lru = self.flows.popitem(last=False)
            self.stats.flows_evicted += 1
            self._retire(lru, "evicted")
        flow = self.flows[key] = ReferenceFlow(key, time_ms)
        self.stats.flows_created += 1
        self.stats.peak_flows = max(self.stats.peak_flows, len(self.flows))
        return flow

    def _expire_idle(self, now_ms):
        self._next_sweep_ms = now_ms + self.idle_timeout_ms / 4.0
        self.stats.idle_sweeps += 1
        deadline = now_ms - self.idle_timeout_ms
        while self.flows:
            key = next(iter(self.flows))
            flow = self.flows[key]
            if flow.last_seen_ms >= deadline:
                break
            del self.flows[key]
            self.stats.flows_expired += 1
            self._retire(flow, "expired")

    def _retire(self, flow, reason):
        self.resolver.on_flow_retired(flow.flow_key)
        self.retired.append((flow.flow_key, reason))


IDLE_TIMEOUT_MS = 100.0
CIDS = (bytes([1, 1]), bytes([2, 2]), bytes([3, 3]))
TUPLES = (
    None,
    ("10.0.0.1", 40000, "198.18.0.1", 443),
    ("10.0.0.2", 40001, "198.18.0.1", 443),
    ("10.0.0.3", 40002, "198.18.0.1", 443),
)
NON_QUIC = (encode_tcp_segment(TcpSegment(443, 50000, 1, 1, True, 0x10, 0)), b"\x00\x01")


def short_datagram(cid: bytes, packet_number: int, spin_bit: bool) -> bytes:
    """A short-header packet with a two-byte packet number and a PING."""
    return bytes([0x41 | (0x20 if spin_bit else 0)]) + cid + packet_number.to_bytes(2, "big") + b"\x01"


datagrams = st.one_of(
    st.builds(short_datagram, st.sampled_from(CIDS), st.integers(0, 400), st.booleans()),
    st.sampled_from(NON_QUIC),
)
streams = st.tuples(
    st.sampled_from((2, 2, 0)),  # short-header DCID length: 0 is zero-length CIDs
    st.lists(
        st.tuples(
            st.sampled_from((0.0, 1.0, 7.0, 40.0, 150.0)),  # 150 > the idle timeout
            datagrams,
            st.sampled_from(TUPLES),
        ),
        max_size=40,
    ),
)


def ordinals(flows) -> list[int]:
    """Each flow object numbered by first appearance: identity, comparably."""
    seen = {}
    return [seen.setdefault(id(flow), len(seen)) for flow in flows]


@pytest.mark.parametrize("max_flows", [1, 2, 5])
@pytest.mark.parametrize("cid_linkage", [True, False])
@pytest.mark.parametrize("overflow_policy", ["evict-lru", "drop-new"])
@settings(max_examples=120, deadline=None)
@given(stream=streams)
def test_table_matches_the_two_structure_reference(overflow_policy, cid_linkage, max_flows, stream):
    dcid_length, events = stream
    reference = ReferenceTable(
        ReferenceResolver(cid_linkage), dcid_length, max_flows, overflow_policy, IDLE_TIMEOUT_MS
    )
    resolver = FlowKeyResolver(cid_linkage=cid_linkage)
    delivered, retired = [], []
    table = SpinFlowTable(
        short_dcid_length=dcid_length, max_flows=max_flows, idle_timeout_ms=IDLE_TIMEOUT_MS,
        overflow_policy=overflow_policy, resolver=resolver,
        on_packet=lambda flow, time_ms: delivered.append(flow),
        on_retire=lambda flow, reason: retired.append((flow.flow_key, reason)),
    )
    time_ms = 0.0
    for gap, data, tuple4 in events:
        time_ms += gap
        if dcid_length == 0 and data[0] & 0x40:
            data = data[:1] + data[3:]  # the same packet under a zero-length CID
        table.on_server_datagram(time_ms, data, tuple4)
        reference.on_server_datagram(time_ms, data, tuple4)

    assert ordinals(delivered) == ordinals(reference.delivered)
    assert [flow.flow_key for flow in delivered] == [
        flow.flow_key for flow in reference.delivered
    ]
    assert table.stats == reference.stats
    assert resolver.counters() == reference.resolver.counters()
    assert retired == reference.retired
    assert table.observations() == reference.observations()


@settings(max_examples=300, deadline=None)
@given(
    st.lists(
        st.tuples(st.sampled_from(("", "0101", "0202", "0303")), st.sampled_from(TUPLES)),
        max_size=40,
    ),
    st.booleans(),
)
def test_standalone_resolve_matches_the_reference(identities, cid_linkage):
    """Without a table nothing is refused or retired: ``resolve`` is the
    reference's, key for key and count for count."""
    resolver = FlowKeyResolver(cid_linkage=cid_linkage)
    reference = ReferenceResolver(cid_linkage)
    for cid_hex, tuple4 in identities:
        assert resolver.resolve(cid_hex, tuple4) == reference.resolve(cid_hex, tuple4)
    assert resolver.counters() == reference.counters()
