"""Connection migration: plans, TCP flows, resolver, and the full mux.

Covers the migration-chaos layer end to end: seeded
:class:`~repro.netsim.migration.MigrationPlan` drawing, the
TCP-with-spin flow class, CID linkage through
:class:`~repro.core.flow_resolver.FlowKeyResolver`, single-flow replay
equivalence under migration, and the byte-identity guarantee that a
migration-free run is unaffected by any of it.
"""

import io
import random

import pytest

from repro.core.flow_resolver import FlowKeyResolver, tuple_flow_key
from repro.core.flow_table import SpinFlowTable
from repro.netsim.migration import (
    DEFAULT_DELAY_MS,
    MigrationKind,
    MigrationPlan,
    MigrationSpec,
    parse_migration_plan,
)
from repro.netsim.tcp import TcpSegment, decode_tcp_segment, encode_tcp_segment
from repro.monitor import MonitorConfig, TrafficConfig, TrafficMux, run_monitor

PLAN = parse_migration_plan("nat-rebind:0.35,cid-rotation:0.35,path-migration:0.1")


class TestMigrationPlan:
    def test_parse_and_roundtrip(self):
        plan = parse_migration_plan("nat-rebind:0.5:100,cid-rotation:0.25")
        spec = plan.spec(MigrationKind.NAT_REBIND)
        assert spec.probability == 0.5
        assert spec.effective_delay_ms == 100.0
        rotation = plan.spec(MigrationKind.CID_ROTATION)
        assert rotation.delay_ms is None
        assert rotation.effective_delay_ms == DEFAULT_DELAY_MS[MigrationKind.CID_ROTATION]
        assert parse_migration_plan(plan.to_string()).to_string() == plan.to_string()

    @pytest.mark.parametrize(
        "text",
        (
            "teleport:0.5",          # unknown kind
            "nat-rebind:1.5",        # probability out of range
            "nat-rebind",            # missing probability
            "nat-rebind:0.5,nat-rebind:0.2",  # duplicate kind
            "nat-rebind:0.5:-10",    # negative delay
        ),
    )
    def test_parse_rejects(self, text):
        with pytest.raises(ValueError):
            parse_migration_plan(text)

    def test_kind_properties(self):
        assert MigrationKind.NAT_REBIND.changes_tuple
        assert not MigrationKind.NAT_REBIND.changes_cid
        assert MigrationKind.CID_ROTATION.changes_cid
        assert not MigrationKind.CID_ROTATION.changes_tuple
        assert MigrationKind.PATH_MIGRATION.changes_tuple
        assert MigrationKind.PATH_MIGRATION.changes_cid
        assert MigrationKind.NAT_REBIND.linkable
        assert MigrationKind.CID_ROTATION.linkable
        assert not MigrationKind.PATH_MIGRATION.linkable

    def test_draw_is_deterministic(self):
        a = PLAN.draw(random.Random(5), start_ms=100.0)
        b = PLAN.draw(random.Random(5), start_ms=100.0)
        assert a == b

    def test_draw_probability_extremes(self):
        never = MigrationPlan((MigrationSpec(MigrationKind.NAT_REBIND, 0.0),))
        always = MigrationPlan((MigrationSpec(MigrationKind.NAT_REBIND, 1.0),))
        assert never.draw(random.Random(0), 0.0) is None
        drawn = always.draw(random.Random(0), 0.0)
        assert drawn is not None
        assert drawn.kind is MigrationKind.NAT_REBIND
        assert drawn.new_client_addr is not None
        # Delay jitter stays within 0.5x-1.5x of the nominal delay.
        nominal = DEFAULT_DELAY_MS[MigrationKind.NAT_REBIND]
        assert 0.5 * nominal <= drawn.at_ms <= 1.5 * nominal

    def test_draw_order_stable_when_later_kinds_added(self):
        """Probability draws consume the stream in fixed enum order, so
        arming an additional later kind never changes whether an earlier
        kind fires."""
        base = MigrationPlan((MigrationSpec(MigrationKind.NAT_REBIND, 0.4),))
        extended = MigrationPlan(
            (
                MigrationSpec(MigrationKind.NAT_REBIND, 0.4),
                MigrationSpec(MigrationKind.PATH_MIGRATION, 0.9),
            )
        )
        for seed in range(50):
            a = base.draw(random.Random(seed), 0.0)
            b = extended.draw(random.Random(seed), 0.0)
            if a is not None:
                assert b is not None and b.kind is MigrationKind.NAT_REBIND
                assert b.at_ms == a.at_ms


class TestTcpSegments:
    def test_roundtrip(self):
        segment = TcpSegment(443, 51234, 1000, 42, True, 0x10, 300)
        decoded = decode_tcp_segment(encode_tcp_segment(segment))
        assert decoded == segment

    def test_never_quic_ambiguous(self):
        """An encoded segment's first byte can never look like QUIC."""
        wire = encode_tcp_segment(TcpSegment(443, 50000, 1, 1, False, 0x10, 0))
        assert wire[0] & 0xC0 == 0
        with pytest.raises(ValueError):
            # Source port 0x4000 puts the QUIC fixed bit in the first byte.
            encode_tcp_segment(TcpSegment(0x4000, 50000, 1, 1, False, 0x10, 0))

    def test_decode_rejects_garbage(self):
        with pytest.raises(ValueError):
            decode_tcp_segment(b"\x00" * 10)  # too short
        bad_offset = bytearray(encode_tcp_segment(TcpSegment(443, 1, 1, 1, False, 0, 0)))
        bad_offset[12] = 0x20  # data offset 2 words < 5
        with pytest.raises(ValueError):
            decode_tcp_segment(bytes(bad_offset))


class TestFlowKeyResolver:
    TUPLE = ("10.0.0.1", 40000, "198.18.0.1", 443)

    def test_empty_cid_uses_tuple_namespace(self):
        resolver = FlowKeyResolver()
        assert resolver.resolve("", self.TUPLE) == tuple_flow_key(self.TUPLE)
        assert resolver.resolve("", None) == "(empty)"

    def test_classification_counters(self):
        """The table classifies; the resolver holds the counts."""
        resolver = FlowKeyResolver()
        table = SpinFlowTable(short_dcid_length=2, resolver=resolver)
        tcp = encode_tcp_segment(TcpSegment(443, 50000, 1, 1, True, 0x10, 0))
        table.on_server_datagram(0.0, tcp, self.TUPLE)
        table.on_server_datagram(1.0, b"\x00\x01", self.TUPLE)
        table.on_server_datagram(2.0, b"\x41\x01\x01\x00\x01", self.TUPLE)  # PING
        assert table.parse_errors == 1
        counters = resolver.counters()
        assert counters["transport_mix"] == {"quic": 1, "tcp": 1, "unparseable": 1}
        assert counters["tcp_flows"] == 1


class TestMuxMigration:
    """End-to-end: seeded chaos through the real multiplexer."""

    TRAFFIC = dict(flows=40, seed=7, migration=PLAN, tcp_flows=6)

    def summary(self, cid_linkage=True):
        return run_monitor(
            TrafficConfig(**self.TRAFFIC),
            MonitorConfig(track_migration=True, cid_linkage=cid_linkage),
        )

    def test_linkable_migrations_keep_one_flow(self):
        """Acceptance: with linkage every linkable migrated flow keeps
        one flow id — no splits, and flows_created equals the number of
        QUIC flows generated."""
        summary = self.summary()
        migration = summary.migration
        assert summary.flows_created == self.TRAFFIC["flows"]
        assert migration["flows_split"] == 0
        assert migration["flows_migrated"] > 0
        assert migration["rebinds_seen"] > 0
        assert migration["tcp_flows"] == self.TRAFFIC["tcp_flows"]
        mix = migration["transport_mix"]
        assert mix["tcp"] > 0 and mix["quic"] > 0 and mix["unparseable"] == 0
        injected = migration["injected"]
        assert injected["applied"] <= injected["flows_drawn"]
        assert injected["applied"] > 0

    def test_linkage_off_splits_flows(self):
        linked = self.summary(cid_linkage=True)
        unlinked = self.summary(cid_linkage=False)
        assert unlinked.migration["flows_split"] > 0
        assert unlinked.flows_created == (
            linked.flows_created + unlinked.migration["flows_split"]
        )
        # TCP segments never raise regardless of linkage.
        assert unlinked.parse_errors == linked.parse_errors == 0

    def test_replay_single_matches_stream_under_migration(self):
        """Per-flow isolation survives migration: replaying one flow
        alone reproduces exactly its datagrams from the full stream."""
        mux = TrafficMux(TrafficConfig(**self.TRAFFIC))
        migrated_index = next(iter(sorted(mux.migrations)))
        from_stream = [
            (tap.time_ms, tap.data, tap.tuple4)
            for tap in mux.stream()
            if tap.flow_index == migrated_index
        ]
        replayed = [
            (tap.time_ms, tap.data, tap.tuple4)
            for tap in mux.replay_single(migrated_index)
        ]
        assert replayed == from_stream
        assert len(replayed) > 0

    def test_stream_is_deterministic(self):
        taps = lambda: [
            (tap.time_ms, tap.flow_index, tap.data, tap.tuple4, tap.transport)
            for tap in TrafficMux(TrafficConfig(**self.TRAFFIC)).stream()
        ]
        assert taps() == taps()

    def test_tcp_taps_carry_transport_ground_truth(self):
        mux = TrafficMux(TrafficConfig(**self.TRAFFIC))
        transports = {tap.transport for tap in mux.stream()}
        assert transports == {"quic", "tcp"}


class TestWindowAccounting:
    def test_migrated_flow_counted_once_per_window(self):
        """A CID rotation mid-window must not double-count the flow in
        the window's distinct-flow set (linkage keeps one flow key)."""
        from repro.monitor.pipeline import MonitorPipeline
        from repro.quic.connection_id import ConnectionId
        from repro.quic.datagram import QuicPacket, encode_datagram
        from repro.quic.frames import PingFrame
        from repro.quic.packet import ShortHeader

        def datagram(cid, pn, spin):
            return encode_datagram(
                [
                    QuicPacket(
                        header=ShortHeader(
                            destination_cid=ConnectionId(cid),
                            packet_number=pn,
                            spin_bit=spin,
                        ),
                        frames=(PingFrame(),),
                    )
                ]
            )

        snapshots = []
        pipeline = MonitorPipeline(
            MonitorConfig(track_migration=True),
            on_snapshot=snapshots.append,
        )
        tuple4 = ("10.0.0.1", 40000, "198.18.0.1", 443)
        pipeline.process(0.0, datagram(bytes([1] * 8), 0, False), tuple4)
        pipeline.process(100.0, datagram(bytes([2] * 8), 1, True), tuple4)
        summary = pipeline.finish()
        assert summary.flows_created == 1
        assert summary.migration["flows_migrated"] == 1
        (snapshot,) = snapshots
        assert snapshot.as_dict()["flows"]["distinct"] == 1


class TestByteIdentityWhenDisabled:
    """Migration machinery must be invisible to migration-free runs."""

    def snapshot_bytes(self, monitor=None, **traffic_kwargs):
        out = io.StringIO()
        run_monitor(
            TrafficConfig(flows=12, seed=3, **traffic_kwargs), monitor, out=out
        )
        return out.getvalue()

    def test_disabled_run_has_no_migration_keys(self):
        text = self.snapshot_bytes()
        assert '"migration"' not in text
        assert "transport_mix" not in text

    def test_disabled_runs_byte_identical_across_configs(self):
        """Passing an explicit resolver-less config, or none at all,
        changes nothing; repeated runs are byte-identical."""
        baseline = self.snapshot_bytes()
        assert self.snapshot_bytes() == baseline
        assert self.snapshot_bytes(monitor=MonitorConfig()) == baseline
        # cid_linkage is inert without track_migration.
        assert (
            self.snapshot_bytes(monitor=MonitorConfig(cid_linkage=False))
            == baseline
        )

    def test_migration_run_only_adds_keys(self):
        """The chaos run differs ONLY by addition: stripping migration
        blocks from its summary recovers the exact baseline fields minus
        sample/flow noise — cheap proxy: window line count unchanged."""
        import json

        baseline = self.snapshot_bytes()
        chaotic = self.snapshot_bytes(
            monitor=MonitorConfig(track_migration=True),
            migration=MigrationPlan(
                (MigrationSpec(MigrationKind.NAT_REBIND, 0.5),)
            ),
        )
        summary = json.loads(chaotic.splitlines()[-1])
        assert summary["type"] == "summary"
        assert "migration" in summary
        assert json.loads(baseline.splitlines()[-1])["type"] == "summary"


class TestLinkageStudy:
    def test_study_shows_linkage_advantage(self):
        from repro.analysis.migration import (
            render_migration_section,
            run_linkage_study,
        )

        result = run_linkage_study(
            TrafficConfig(flows=30, seed=7, migration=PLAN, tcp_flows=4)
        )
        linked = result["arms"]["linked"]
        unlinked = result["arms"]["unlinked"]
        assert linked["resolver"]["flows_split"] == 0
        assert unlinked["resolver"]["flows_split"] > 0
        assert unlinked["fragmented_flows"] > 0
        assert linked["fragmented_flows"] == 0
        assert (
            linked["migrated"]["mean_abs_rel_error_pct"]
            <= unlinked["migrated"]["mean_abs_rel_error_pct"]
        )
        text = render_migration_section(result)
        assert "CID linkage" in text
        assert "unlinked" in text
