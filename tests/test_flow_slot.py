"""The flow slot against the observers it replaced on the monitor's path.

``FlowRecord`` carries the received-order spin state that
``StreamingSpinObserver`` holds as an object; the streaming observer
stays as the standalone reference, and the default attached
``SpinObserver`` (which buffers packets and needs packet numbers) is the
second opinion.  Any packet sequence — reordered and duplicated packet
numbers included — must leave all three with the same samples, packet
count, values seen and edge count.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.flow_resolver import FlowKeyResolver
from repro.core.flow_table import SpinFlowTable
from repro.core.observer import StreamingSpinObserver
from repro.monitor import TrafficConfig, TrafficMux
from repro.netsim.migration import parse_migration_plan

CIDS = (bytes(range(8)), bytes(range(8, 16)))


def datagram(cid: bytes, packet_number: int, spin_bit: bool) -> bytes:
    """A short-header packet with a four-byte packet number and a PING."""
    first = 0x43 | (0x20 if spin_bit else 0)
    return bytes([first]) + cid + (packet_number & 0xFFFFFFFF).to_bytes(4, "big") + b"\x01"


packets = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=50.0),  # gap to the previous packet
        st.sampled_from(CIDS),
        st.integers(min_value=0, max_value=300),  # any order, repeats allowed
        st.booleans(),
    ),
    max_size=60,
)


@settings(max_examples=200, deadline=None)
@given(packets)
def test_slot_matches_streaming_and_buffering_observers(sequence):
    retired: dict[str, list[float]] = {cid.hex(): [] for cid in CIDS}
    current = []  # the flow key of the datagram being fed
    streaming = SpinFlowTable(
        on_sample=lambda time_ms, rtt_ms: retired[current[0]].append(rtt_ms)
    )
    attached = SpinFlowTable()
    standalone = {cid.hex(): StreamingSpinObserver() for cid in CIDS}

    time_ms = 0.0
    for gap, cid, packet_number, spin_bit in sequence:
        time_ms += gap
        current[:] = [cid.hex()]
        data = datagram(cid, packet_number, spin_bit)
        streaming.on_server_datagram(time_ms, data)
        attached.on_server_datagram(time_ms, data)
        standalone[cid.hex()].on_packet(time_ms, packet_number, spin_bit)

    assert set(streaming.flows) == set(attached.flows)
    for key, slot in streaming.flows.items():
        reference = standalone[slot.flow_key]
        assert slot._observer is None and slot._direction is None
        assert retired[slot.flow_key] == reference.take_samples()
        assert slot.packets == reference.packets_seen
        assert slot.edges == reference.edges_seen
        assert slot.observation().values_seen == reference.values_seen
        assert slot.spins == (len(reference.values_seen) == 2)

        buffered = attached.flows[key]
        assert (buffered.packets, buffered.edges, buffered.values_mask) == (
            slot.packets, slot.edges, slot.values_mask,
        )
        observation = buffered.observation()
        assert observation.rtts_received_ms == retired[slot.flow_key]
        assert len(observation.edges_received) == slot.edges
        assert observation.values_seen == reference.values_seen
        assert observation.packets_seen == slot.packets


class TestResolverHoldsOnlyResidentFlows:
    """Every alias CID and claimed 4-tuple the resolver indexes belongs
    to a slot the table holds, and is one of that slot's own claims.

    Under ``drop-new`` the resolver used to keep the CID and 4-tuple
    claims ``resolve()`` registered for a flow the table then refused,
    with nothing left to retire them: its maps grew with every refused
    flow and ``rebinds_seen`` counted flows that were never tracked.
    """

    @staticmethod
    def run(overflow_policy, cid_linkage=True):
        traffic = TrafficConfig(
            flows=80, seed=5, arrival_window_ms=1_500.0, tcp_flows=6,
            migration=parse_migration_plan("nat-rebind:0.3,cid-rotation:0.3,path-migration:0.1"),
        )
        resolver = FlowKeyResolver(cid_linkage=cid_linkage)
        table = SpinFlowTable(
            max_flows=16, overflow_policy=overflow_policy, retain_retired=False,
            resolver=resolver, on_sample=lambda time_ms, rtt_ms: None,
        )
        for tap in TrafficMux(traffic).stream():
            table.on_server_datagram(tap.time_ms, tap.data, tap.tuple4)
            flows = table.flows
            for cid, flow in resolver.by_cid.items():
                assert flows.get(flow.key) is flow and cid in flow.cids
            for tuple4, flow in resolver.by_tuple.items():
                assert flows.get(flow.key) is flow and tuple4 in flow.tuples
        return table, resolver

    def test_drop_new_releases_refused_flows(self):
        table, resolver = self.run("drop-new")
        assert table.stats.overflow_drops > 1_000
        assert len(table.flows) == 16
        assert {flow.key for flow in resolver.by_cid.values()} == table.flows.keys()

    def test_drop_new_without_linkage(self):
        table, _ = self.run("drop-new", cid_linkage=False)
        assert table.stats.overflow_drops > 1_000

    def test_evict_lru_releases_evicted_flows(self):
        table, resolver = self.run("evict-lru")
        assert table.stats.flows_evicted > 50
        assert {flow.key for flow in resolver.by_cid.values()} == table.flows.keys()



class TestRefusedFlowsCountNothing:
    """A flow the table refuses is neither a split nor a rebind.

    With one slot under ``drop-new``, flow A on a 4-tuple is admitted and
    flow B on the same tuple is refused.  A's next packet on that tuple
    is A on the path it never left: B was never tracked, so nothing
    split, and nothing rebound.
    """

    TUPLE = ("10.0.0.1", 40000, "198.18.0.1", 443)

    @pytest.mark.parametrize("cid_linkage", [True, False])
    def test_two_flows_one_slot(self, cid_linkage):
        resolver = FlowKeyResolver(cid_linkage=cid_linkage)
        table = SpinFlowTable(
            max_flows=1, overflow_policy="drop-new", resolver=resolver,
            on_sample=lambda time_ms, rtt_ms: None,
        )
        for time_ms, cid in ((0.0, CIDS[0]), (1.0, CIDS[1]), (2.0, CIDS[0])):
            table.on_server_datagram(time_ms, datagram(cid, int(time_ms), False), self.TUPLE)
        assert (resolver.flows_split, resolver.rebinds_seen) == (0, 0)

    def test_churn_counts_only_what_resident_flows_did(self):
        """The churn tap with a 16-slot ``drop-new`` table, linkage off:
        a split is counted only by a datagram that opened a flow, and a
        rebind only by one that moved a resident flow off the 4-tuple its
        previous packet came on."""
        traffic = TrafficConfig(
            flows=80, seed=0, arrival_window_ms=1_500.0, tcp_flows=6,
            migration=parse_migration_plan("nat-rebind:0.3,cid-rotation:0.3,path-migration:0.1"),
        )
        resolver = FlowKeyResolver(cid_linkage=False)
        delivered = []
        table = SpinFlowTable(
            max_flows=16, overflow_policy="drop-new", resolver=resolver,
            on_sample=lambda time_ms, rtt_ms: None,
            on_packet=lambda flow, time_ms: delivered.append(flow),
        )
        previous_tuple = {}  # id(flow) -> the 4-tuple of its previous packet
        for tap in TrafficMux(traffic).stream():
            splits, rebinds = resolver.flows_split, resolver.rebinds_seen
            created = table.stats.flows_created
            delivered.clear()
            table.on_server_datagram(tap.time_ms, tap.data, tap.tuple4)
            if resolver.flows_split > splits:
                assert table.stats.flows_created > created
            if resolver.rebinds_seen > rebinds:
                (flow,) = delivered
                assert previous_tuple.get(id(flow)) not in (None, tap.tuple4)
            for flow in delivered:
                previous_tuple[id(flow)] = tap.tuple4
        assert table.stats.overflow_drops > 1_000
        assert resolver.rebinds_seen > 0
