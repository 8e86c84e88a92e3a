"""The flow-table observer: demultiplexing concurrent connections."""

import pytest

from repro.core.flow_table import SpinFlowTable
from repro.quic.connection_id import ConnectionId
from repro.quic.datagram import QuicPacket, encode_datagram
from repro.quic.frames import PingFrame
from repro.quic.packet import ShortHeader


def datagram(cid: bytes, pn: int, spin: bool) -> bytes:
    packet = QuicPacket(
        header=ShortHeader(
            destination_cid=ConnectionId(cid), packet_number=pn, spin_bit=spin
        ),
        frames=(PingFrame(),),
    )
    return encode_datagram([packet])


CID_A = bytes(range(8))
CID_B = bytes(range(8, 16))


class TestDemultiplexing:
    def test_interleaved_flows_measured_independently(self):
        """Two connections with different RTTs, packets interleaved."""
        table = SpinFlowTable(short_dcid_length=8)
        events = []
        # Flow A: 40 ms spin period; flow B: 100 ms period.
        for cycle in range(4):
            events.append((cycle * 40.0, CID_A, cycle, cycle % 2 == 1))
            events.append((cycle * 100.0, CID_B, cycle, cycle % 2 == 1))
        for time_ms, cid, pn, spin in sorted(events):
            table.on_server_datagram(time_ms, datagram(cid, pn, spin))

        observations = table.observations()
        key_a = ConnectionId(CID_A).hex
        key_b = ConnectionId(CID_B).hex
        assert observations[key_a].rtts_received_ms == pytest.approx([40.0, 40.0])
        assert observations[key_b].rtts_received_ms == pytest.approx([100.0, 100.0])

    def test_per_flow_packet_number_state(self):
        """Packet-number reconstruction must not leak across flows."""
        table = SpinFlowTable(short_dcid_length=8)
        table.on_server_datagram(0.0, datagram(CID_A, 250, False))
        table.on_server_datagram(1.0, datagram(CID_B, 3, True))
        flows = table.flows
        assert flows[CID_A]._direction.largest_pn == 250
        assert flows[CID_B]._direction.largest_pn == 3

    def test_long_headers_ignored(self):
        from repro.quic.frames import CryptoFrame
        from repro.quic.packet import LongHeader, LongPacketType

        table = SpinFlowTable(short_dcid_length=8)
        packet = QuicPacket(
            header=LongHeader(
                long_type=LongPacketType.INITIAL,
                version=1,
                destination_cid=ConnectionId(CID_A),
                source_cid=ConnectionId(CID_B),
            ),
            frames=(CryptoFrame(0, b"hello"),),
        )
        table.on_server_datagram(0.0, encode_datagram([packet]))
        assert table.flows == {}


class TestTableManagement:
    def test_idle_flows_evicted(self):
        table = SpinFlowTable(short_dcid_length=8, idle_timeout_ms=100.0)
        table.on_server_datagram(0.0, datagram(CID_A, 0, False))
        table.on_server_datagram(500.0, datagram(CID_B, 0, False))
        assert CID_A not in table.flows
        assert len(table.evicted) == 1
        assert table.evicted[0].flow_key == ConnectionId(CID_A).hex

    def test_capacity_eviction_drops_lru(self):
        table = SpinFlowTable(short_dcid_length=8, max_flows=2)
        cids = [bytes([i] * 8) for i in range(3)]
        for index, cid in enumerate(cids):
            table.on_server_datagram(float(index), datagram(cid, 0, False))
        assert len(table.flows) == 2
        assert table.evicted[0].flow_key == ConnectionId(cids[0]).hex

    def test_all_flows_includes_evicted(self):
        table = SpinFlowTable(short_dcid_length=8, max_flows=1)
        table.on_server_datagram(0.0, datagram(CID_A, 0, False))
        table.on_server_datagram(1.0, datagram(CID_B, 0, True))
        assert [flow.flow_key for flow in table.all_flows()] == [
            ConnectionId(CID_A).hex,
            ConnectionId(CID_B).hex,
        ]

    def test_garbage_counted(self):
        table = SpinFlowTable()
        table.on_server_datagram(0.0, b"\x01\x02")
        assert table.stats.parse_errors == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            SpinFlowTable(max_flows=0)
        with pytest.raises(ValueError):
            SpinFlowTable(idle_timeout_ms=0.0)


class TestChurn:
    """Bounded-table behaviour under flow churn (LRU, expiry, overflow)."""

    def test_lru_eviction_respects_recency(self):
        """A flow touched recently survives even if it was created first."""
        table = SpinFlowTable(short_dcid_length=8, max_flows=2)
        cid_a, cid_b, cid_c = (bytes([i] * 8) for i in range(3))
        table.on_server_datagram(0.0, datagram(cid_a, 0, False))
        table.on_server_datagram(1.0, datagram(cid_b, 0, False))
        table.on_server_datagram(2.0, datagram(cid_a, 1, False))  # refresh A
        table.on_server_datagram(3.0, datagram(cid_c, 0, False))
        assert [f.flow_key for f in table.evicted] == [ConnectionId(cid_b).hex]
        assert cid_a in table.flows
        assert table.stats.flows_evicted == 1

    def test_eviction_order_under_sustained_overflow(self):
        """Continuous churn always evicts the least recently seen flow."""
        table = SpinFlowTable(short_dcid_length=8, max_flows=4)
        cids = [bytes([i] * 8) for i in range(10)]
        for index, cid in enumerate(cids):
            table.on_server_datagram(float(index), datagram(cid, 0, False))
        assert [f.flow_key for f in table.evicted] == [
            ConnectionId(cid).hex for cid in cids[:6]
        ]
        assert len(table.flows) == 4
        assert table.stats.peak_flows == 4

    def test_drop_new_policy_counts_overflow_drops(self):
        table = SpinFlowTable(
            short_dcid_length=8, max_flows=2, overflow_policy="drop-new"
        )
        cids = [bytes([i] * 8) for i in range(3)]
        for index, cid in enumerate(cids):
            table.on_server_datagram(float(index), datagram(cid, 0, False))
        # The third flow was dropped, not admitted; nothing was evicted.
        assert len(table.flows) == 2
        assert table.evicted == []
        assert table.stats.overflow_drops == 1
        assert table.stats.flows_created == 2
        # Established flows still update while the table is full.
        table.on_server_datagram(3.0, datagram(cids[0], 1, True))
        assert table.flows[cids[0]].packets == 2

    def test_unknown_overflow_policy_rejected(self):
        with pytest.raises(ValueError):
            SpinFlowTable(overflow_policy="magic")

    def test_idle_expiry_is_amortized_but_still_happens(self):
        """Sweeps run at most every idle_timeout/4 of stream time, yet
        idle flows are still retired within the timeout plus that slack."""
        table = SpinFlowTable(short_dcid_length=8, idle_timeout_ms=100.0)
        idle_cid = bytes([9] * 8)
        busy_cid = bytes([1] * 8)
        table.on_server_datagram(0.0, datagram(idle_cid, 0, False))
        for step in range(1, 200):
            table.on_server_datagram(float(step), datagram(busy_cid, step, False))
        assert idle_cid not in table.flows
        assert table.stats.flows_expired == 1
        # Amortization: far fewer sweeps than datagrams.
        assert table.stats.idle_sweeps <= 200 / (100.0 / 4.0) + 2
        expired = next(
            f for f in table.evicted if f.flow_key == ConnectionId(idle_cid).hex
        )
        # Retired no later than timeout + sweep period after last activity.
        assert expired.last_seen_ms == 0.0

    def test_retire_hook_reports_reason(self):
        retired = []
        table = SpinFlowTable(
            short_dcid_length=8,
            max_flows=1,
            idle_timeout_ms=100.0,
            retain_retired=False,
            on_retire=lambda flow, reason: retired.append((flow.flow_key, reason)),
        )
        cid_a, cid_b = bytes([1] * 8), bytes([2] * 8)
        table.on_server_datagram(0.0, datagram(cid_a, 0, False))
        table.on_server_datagram(1.0, datagram(cid_b, 0, False))  # evicts A
        table.on_server_datagram(500.0, datagram(cid_a, 1, False))  # expires B
        assert retired == [
            (ConnectionId(cid_a).hex, "evicted"),
            (ConnectionId(cid_b).hex, "expired"),
        ]
        # retain_retired=False keeps the retired list empty (bounded memory).
        assert table.evicted == []

    def test_on_packet_hook_and_stats_counters(self):
        seen = []
        table = SpinFlowTable(
            short_dcid_length=8,
            on_packet=lambda flow, time_ms: seen.append((flow.flow_key, time_ms)),
        )
        table.on_server_datagram(0.0, datagram(CID_A, 0, False))
        table.on_server_datagram(1.0, datagram(CID_B, 0, True))
        table.on_server_datagram(2.0, b"junk-datagram")
        stats = table.stats
        assert stats.datagrams == 3
        assert stats.short_header_packets == 2
        assert stats.parse_errors == 1
        assert stats.flows_created == 2
        assert stats.flows_evicted == stats.flows_expired == 0
        assert len(seen) == 2
        assert seen[0][0] == ConnectionId(CID_A).hex

    def test_streaming_observer_factory(self):
        """The table accepts a pluggable bounded-memory observer."""
        from repro.core.observer import StreamingSpinObserver

        samples = []
        table = SpinFlowTable(
            short_dcid_length=8,
            observer_factory=lambda key: StreamingSpinObserver(
                on_sample=lambda t, rtt: samples.append((key, rtt))
            ),
        )
        for pn in range(6):
            table.on_server_datagram(pn * 40.0, datagram(CID_A, pn, pn % 2 == 1))
        # Edges at 40,80,...: samples are consecutive edge intervals.
        assert samples == [(ConnectionId(CID_A).hex, 40.0)] * 4
        flow = table.flows[CID_A]
        # Retired samples are not accumulated in the flow record.
        assert flow.observation().rtts_received_ms == []
        assert flow.observation().values_seen == {False, True}


class TestRealTraffic:
    def test_table_matches_single_flow_observer(self):
        """Feeding one real connection through the table equals the
        dedicated on-path observer."""
        from conftest import tap_exchange

        from repro._util.rng import derive_rng
        from repro.core.tomography import SpinTomographyObserver
        from repro.netsim.path import PathProfile
        from repro.web.http3 import ResponsePlan

        observer = SpinTomographyObserver(short_dcid_length=8)
        table = SpinFlowTable(short_dcid_length=8)

        def tee(time_ms, data):
            observer.on_server_datagram(time_ms, data)
            table.on_server_datagram(time_ms, data)

        plan = ResponsePlan(server_header="x", think_time_ms=25.0, write_sizes=(60_000,))
        profile = PathProfile(propagation_delay_ms=20.0)
        tap_exchange(
            plan,
            profile,
            derive_rng(11, "flowtable"),
            uplink_tap=observer.on_client_datagram,
            downlink_tap=tee,
        )
        (observation,) = table.observations().values()
        assert observation.rtts_received_ms
        assert observation.rtts_received_ms == observer.observation().rtts_received_ms


class TestZeroLengthCid:
    def test_zero_length_cids_keyed_by_tuple(self):
        """Regression: two zero-length-CID connections from different
        client tuples must not collapse into one "(empty)" flow."""
        from repro.core.flow_table import tuple_flow_key

        table = SpinFlowTable(short_dcid_length=0)
        tuple_a = ("10.0.0.1", 40000, "198.18.0.1", 443)
        tuple_b = ("10.0.0.2", 40001, "198.18.0.1", 443)
        for pn in range(4):
            table.on_server_datagram(pn * 40.0, datagram(b"", pn, pn % 2 == 1), tuple_a)
            table.on_server_datagram(pn * 100.0, datagram(b"", pn, pn % 2 == 1), tuple_b)
        assert len(table.flows) == 2
        assert set(table.flows) == {tuple_a, tuple_b}
        observations = table.observations()
        assert observations[tuple_flow_key(tuple_a)].rtts_received_ms == pytest.approx(
            [40.0, 40.0]
        )
        assert observations[tuple_flow_key(tuple_b)].rtts_received_ms == pytest.approx(
            [100.0, 100.0]
        )

    def test_zero_length_cid_without_tuple_falls_back(self):
        """No tap tuple available: the legacy "(empty)" key still works."""
        table = SpinFlowTable(short_dcid_length=0)
        table.on_server_datagram(0.0, datagram(b"", 0, False))
        assert set(table.flows) == {b""}
        assert set(table.observations()) == {"(empty)"}


class TestResolverIntegration:
    """SpinFlowTable + FlowKeyResolver: migration-aware keying."""

    TUPLE = ("10.1.2.3", 50000, "198.18.0.1", 443)
    TUPLE2 = ("10.9.9.9", 61000, "198.18.0.1", 443)

    @staticmethod
    def make_table(cid_linkage=True, **kwargs):
        from repro.core.flow_resolver import FlowKeyResolver

        resolver = FlowKeyResolver(cid_linkage=cid_linkage)
        table = SpinFlowTable(
            short_dcid_length=8, resolver=resolver, **kwargs
        )
        return table, resolver

    def test_cid_rotation_stays_one_flow(self):
        """Resolver counterpart of the rotation test below: the same
        logical connection survives a DCID change as ONE flow."""
        table, resolver = self.make_table()
        for pn in range(6):
            cid = CID_A if pn < 3 else CID_B
            table.on_server_datagram(pn * 30.0, datagram(cid, pn, pn % 2 == 1), self.TUPLE)
        flows = table.all_flows()
        assert len(flows) == 1
        assert resolver.flows_migrated == 1
        assert resolver.flows_split == 0
        # The un-split stream reconstructs the full edge series.
        assert len(flows[0].observation().edges_received) == 5

    def test_cid_rotation_without_linkage_splits(self):
        table, resolver = self.make_table(cid_linkage=False)
        for pn in range(6):
            cid = CID_A if pn < 3 else CID_B
            table.on_server_datagram(pn * 30.0, datagram(cid, pn, pn % 2 == 1), self.TUPLE)
        assert len(table.all_flows()) == 2
        assert resolver.flows_migrated == 0
        assert resolver.flows_split == 1

    def test_nat_rebind_keeps_flow_and_counts(self):
        """Same CID from a new tuple: one flow, one rebind counted."""
        table, resolver = self.make_table()
        table.on_server_datagram(0.0, datagram(CID_A, 0, False), self.TUPLE)
        table.on_server_datagram(40.0, datagram(CID_A, 1, True), self.TUPLE)
        table.on_server_datagram(80.0, datagram(CID_A, 2, False), self.TUPLE2)
        table.on_server_datagram(120.0, datagram(CID_A, 3, True), self.TUPLE2)
        assert len(table.flows) == 1
        assert resolver.rebinds_seen == 1
        assert resolver.flows_migrated == 0
        flow = next(iter(table.flows.values()))
        assert flow.observation().rtts_received_ms == pytest.approx([40.0, 40.0])

    def test_first_seen_preserved_across_migration(self):
        """Migration must not reset flow age (first_seen_ms)."""
        table, _ = self.make_table()
        table.on_server_datagram(10.0, datagram(CID_A, 0, False), self.TUPLE)
        table.on_server_datagram(500.0, datagram(CID_B, 1, True), self.TUPLE)
        flow = next(iter(table.flows.values()))
        assert flow.first_seen_ms == 10.0
        assert flow.last_seen_ms == 500.0
        assert flow.packets == 2

    def test_retired_flow_releases_resolver_state(self):
        """Linkage state is keyed to live flows: after idle expiry the
        tuple and CIDs are free, and a reappearing CID opens a NEW flow
        rather than resurrecting retired state."""
        table, resolver = self.make_table(idle_timeout_ms=100.0, retain_retired=True)
        table.on_server_datagram(0.0, datagram(CID_A, 0, False), self.TUPLE)
        # Unrelated traffic far in the future expires the first flow.
        table.on_server_datagram(1000.0, datagram(CID_B, 0, False), self.TUPLE2)
        assert table.stats.flows_expired == 1
        # Same CID again: a fresh flow, no split counted (tuple was free).
        table.on_server_datagram(1001.0, datagram(CID_A, 0, False), self.TUPLE)
        assert resolver.flows_split == 0
        assert table.stats.flows_created == 3
        live = {flow.flow_key for flow in table.flows.values()}
        assert len(live) == 2

    def test_eviction_churn_under_migration(self):
        """LRU eviction with migrated flows: counters stay consistent
        and the resolver never resurrects an evicted flow's linkage."""
        table, resolver = self.make_table(max_flows=2)
        tuples = [("10.0.0.%d" % i, 40000 + i, "198.18.0.1", 443) for i in range(4)]
        cids = [bytes([i] * 8) for i in range(4)]
        # Two flows, the first migrates to a new CID (stays one flow).
        table.on_server_datagram(0.0, datagram(cids[0], 0, False), tuples[0])
        table.on_server_datagram(1.0, datagram(cids[1], 0, False), tuples[1])
        table.on_server_datagram(2.0, datagram(cids[2], 1, False), tuples[0])
        assert resolver.flows_migrated == 1
        assert len(table.flows) == 2
        # A third flow evicts the LRU (flow B at tuples[1]).
        table.on_server_datagram(3.0, datagram(cids[3], 0, False), tuples[2])
        assert table.stats.flows_evicted == 1
        # Flow B's CID now opens a brand-new flow (state was released).
        table.on_server_datagram(4.0, datagram(cids[1], 1, False), tuples[3])
        assert table.stats.flows_created == 4
        assert resolver.flows_split == 0

    def test_transport_classification_instead_of_parse_errors(self):
        """A TCP segment on the tap is classified, not counted as a
        QUIC parse error; true garbage still is."""
        from repro.netsim.tcp import TcpSegment, encode_tcp_segment

        table, resolver = self.make_table()
        table.on_server_datagram(0.0, datagram(CID_A, 0, False), self.TUPLE)
        segment = encode_tcp_segment(
            TcpSegment(443, 50000, 1, 1, True, 0x10, 40)
        )
        table.on_server_datagram(1.0, segment, self.TUPLE2)
        table.on_server_datagram(2.0, b"\x00\x01\x02", self.TUPLE2)
        assert table.stats.parse_errors == 1  # garbage only
        assert resolver.tcp_datagrams == 1
        assert resolver.quic_datagrams == 1
        assert resolver.unparseable_datagrams == 1
        assert resolver.counters()["transport_mix"] == {
            "quic": 1, "tcp": 1, "unparseable": 1,
        }


class TestCidRotation:
    def test_client_rotation_transparent_to_endpoints(self):
        """The client rotates to the CID the server issued after the
        handshake, mid-connection; the exchange still completes and the
        server-to-client direction (keyed by the client's stable source
        CID) remains one flow."""
        from conftest import tap_exchange

        from repro._util.rng import derive_rng
        from repro.netsim.path import PathProfile
        from repro.quic.datagram import decode_datagram
        from repro.quic.packet import ShortHeader as SH
        from repro.web.http3 import ResponsePlan

        table = SpinFlowTable(short_dcid_length=8)
        uplink_cids = set()

        def read_uplink_cids(time_ms, data):
            for packet in decode_datagram(data, 8):
                if isinstance(packet.header, SH):
                    uplink_cids.add(packet.header.destination_cid.hex)

        plan = ResponsePlan(
            server_header="x", think_time_ms=20.0, write_sizes=(150_000,)
        )
        profile = PathProfile(propagation_delay_ms=20.0)
        migrated = []
        handle = tap_exchange(
            plan,
            profile,
            derive_rng(13, "cid-rotation"),
            uplink_tap=read_uplink_cids,
            downlink_tap=table.on_server_datagram,
            actions=[
                (150.0, lambda h: migrated.append(h.client.migrate_to_alternate_cid()))
            ],
        )
        assert handle.client_app.done and handle.client.failed is None
        (current,) = migrated
        assert current is not None and handle.client.remote_cid == current
        (update,) = handle.recorder.metadata["cid_updates"]
        assert update["current"] == current.hex
        # The client used two different DCIDs on the uplink ...
        assert len(uplink_cids) == 2
        # ... while the downlink flow stays trackable as one.
        assert len(table.all_flows()) == 1

    def test_server_to_client_rotation_observed_as_two_flows(self):
        """Drive rotation on the observed direction directly."""
        cid_first = bytes([1] * 8)
        cid_second = bytes([2] * 8)
        table = SpinFlowTable(short_dcid_length=8)
        # One logical connection: pn continues, DCID changes at pn 3.
        for pn in range(6):
            cid = cid_first if pn < 3 else cid_second
            table.on_server_datagram(pn * 30.0, datagram(cid, pn, pn % 2 == 1))
        flows = table.all_flows()
        assert len(flows) == 2
        # Neither fragment alone reconstructs the full edge series.
        total_edges = sum(len(f.observation().edges_received) for f in flows)
        assert total_edges < 5  # the un-split stream would show 5 edges
