"""End-to-end QUIC endpoint behaviour over simulated paths."""

import pytest

from repro._util.rng import derive_rng
from repro.core.observer import observe_recorder
from repro.core.spin import SpinPolicy
from repro.netsim.delays import ConstantDelay, UniformDelay
from repro.netsim.path import PathProfile
from repro.quic.connection import ConnectionConfig
from repro.web.http3 import ResponsePlan, run_exchange

RTT_MS = 40.0


def fetch(
    plan=None,
    client_policy=SpinPolicy.SPIN,
    server_policy=SpinPolicy.SPIN,
    loss=0.0,
    seed=1,
    client_config=None,
    server_config=None,
    jitter=None,
):
    plan = plan or ResponsePlan(
        server_header="LiteSpeed", think_time_ms=30.0, write_sizes=(30_000,)
    )
    profile = PathProfile(
        propagation_delay_ms=RTT_MS / 2,
        jitter=jitter or ConstantDelay(0.0),
        loss_probability=loss,
    )
    return run_exchange(
        "www.example.com",
        plan,
        client_policy,
        server_policy,
        profile,
        profile,
        derive_rng(seed, "test-exchange"),
        client_config=client_config,
        server_config=server_config,
    )


class TestHandshakeAndTransfer:
    def test_successful_fetch(self):
        result = fetch()
        assert result.success
        assert result.status == 200
        assert result.server_header == "LiteSpeed"
        assert result.body_bytes == 30_000
        assert result.client.handshake_confirmed
        assert result.server.handshake_confirmed

    def test_stack_rtt_close_to_path_rtt(self):
        result = fetch()
        rtts = result.recorder.stack_rtts_ms()
        assert len(rtts) >= 2  # handshake + request samples
        assert all(RTT_MS - 1.0 <= rtt <= RTT_MS + 30.0 for rtt in rtts)

    def test_client_records_handshake_packets(self):
        result = fetch()
        types = {event.packet_type for event in result.recorder.received}
        assert {"initial", "handshake", "1RTT"} <= types

    def test_empty_response_body(self):
        plan = ResponsePlan(server_header="nginx", write_sizes=(1,))
        result = fetch(plan=plan)
        assert result.success
        assert result.body_bytes == 1


class TestSpinSignal:
    def test_spinning_connection_shows_both_values(self):
        result = fetch()
        observation = observe_recorder(result.recorder)
        assert observation.spins

    def test_spin_rtt_tracks_path_rtt_for_static_pages(self):
        plan = ResponsePlan(
            server_header="LiteSpeed", think_time_ms=10.0, write_sizes=(120_000,)
        )
        result = fetch(plan=plan)
        observation = observe_recorder(result.recorder)
        assert len(observation.rtts_received_ms) >= 2
        # During the congestion-window-paced transfer the spin period is
        # one RTT plus small dispatch overheads.
        for sample in observation.rtts_received_ms:
            assert RTT_MS * 0.9 <= sample <= RTT_MS * 2.0

    def test_dribbling_server_inflates_spin_rtt(self):
        plan = ResponsePlan(
            server_header="LiteSpeed",
            think_time_ms=30.0,
            write_gaps_ms=(0.0, 300.0, 300.0),
            write_sizes=(11_000, 11_000, 11_000),
        )
        result = fetch(plan=plan)
        observation = observe_recorder(result.recorder)
        assert max(observation.rtts_received_ms) >= 250.0

    def test_server_always_zero_never_flips(self):
        result = fetch(server_policy=SpinPolicy.ALWAYS_ZERO)
        observation = observe_recorder(result.recorder)
        assert observation.all_zero

    def test_server_always_one_is_constant_one(self):
        result = fetch(server_policy=SpinPolicy.ALWAYS_ONE)
        observation = observe_recorder(result.recorder)
        assert observation.all_one

    def test_per_packet_grease_triggers_grease_filter(self):
        from repro.core.classify import SpinBehaviour, classify_connection

        plan = ResponsePlan(
            server_header="x", think_time_ms=20.0, write_sizes=(60_000,)
        )
        result = fetch(plan=plan, server_policy=SpinPolicy.GREASE_PER_PACKET, seed=3)
        observation = observe_recorder(result.recorder)
        behaviour = classify_connection(observation, result.recorder.stack_rtts_ms())
        assert behaviour is SpinBehaviour.GREASE

    def test_per_connection_grease_looks_constant(self):
        behaviours = set()
        for seed in range(6):
            result = fetch(server_policy=SpinPolicy.GREASE_PER_CONNECTION, seed=seed)
            observation = observe_recorder(result.recorder)
            assert not observation.spins
            behaviours.add(observation.all_one)
        assert behaviours == {False, True}  # both constants appear across conns


class TestLossRecovery:
    def test_completes_under_moderate_loss(self):
        completed = 0
        for seed in range(8):
            result = fetch(loss=0.05, seed=seed)
            completed += result.success
        assert completed >= 7

    def test_retransmissions_are_new_packet_numbers(self):
        result = fetch(loss=0.08, seed=5)
        pns = [e.packet_number for e in result.recorder.sent if e.packet_type == "1RTT"]
        assert len(pns) == len(set(pns))

    def test_total_loss_fails_gracefully(self):
        result = fetch(loss=0.97, seed=2)
        assert not result.success
        assert result.failure_reason


class TestVecEndToEnd:
    def test_vec_marks_arrive_when_enabled(self):
        config = ConnectionConfig(enable_vec=True)
        plan = ResponsePlan(
            server_header="x", think_time_ms=10.0, write_sizes=(120_000,)
        )
        result = fetch(plan=plan, client_config=config, server_config=config)
        vec_values = {e.vec for e in result.recorder.received if e.spin_bit is not None}
        assert 3 in vec_values  # saturated valid edges observed
        assert 0 in vec_values  # non-edge packets

    def test_vec_observer_measures_rtt(self):
        from repro.core.vec import VecObserver

        config = ConnectionConfig(enable_vec=True)
        plan = ResponsePlan(
            server_header="x", think_time_ms=10.0, write_sizes=(160_000,)
        )
        result = fetch(plan=plan, client_config=config, server_config=config)
        observer = VecObserver(threshold=3)
        for event in result.recorder.received_short_header_packets():
            observer.on_packet(event.time_ms, event.vec)
        rtts = observer.rtts_ms()
        assert rtts, "expected at least one VEC-validated measurement"
        assert all(sample >= RTT_MS * 0.9 for sample in rtts)

    def test_reserved_bits_zero_without_vec(self):
        result = fetch()
        assert all(
            event.vec == 0
            for event in result.recorder.received
            if event.spin_bit is not None
        )


def _key_phase_taps():
    """Both directions of a real exchange as ``(downlink, time_ms, data,
    short header offset)``, the offset -1 for datagrams without one."""
    from conftest import tap_exchange

    from repro.quic.onpath import walk_datagram

    taps = []

    def tap(downlink):
        return lambda time_ms, data: taps.append(
            (downlink, time_ms, data, walk_datagram(data, 8)[1])
        )

    plan = ResponsePlan(server_header="x", think_time_ms=10.0, write_sizes=(120_000,))
    tap_exchange(
        plan,
        PathProfile(propagation_delay_ms=RTT_MS / 2, jitter=ConstantDelay(0.0)),
        derive_rng(1, "key-phase"),
        uplink_tap=tap(False),
        downlink_tap=tap(True),
    )
    return taps


class TestKeyUpdate:
    def test_key_phase_flips_but_spin_unaffected(self):
        """RFC 9001 key updates toggle the key-phase bit, 0x04 of the
        short header's first byte; the flow table and the tomography
        observer must not mistake them for spin edges.  The same
        exchange with the bit flipping every k packets gives them the
        same edges and samples."""
        from repro.core.flow_table import SpinFlowTable
        from repro.core.tomography import SpinTomographyObserver

        taps = _key_phase_taps()

        def read(period):
            """Edges and samples of the taps, the key-phase bit set in
            every other run of ``period`` datagrams (0: never)."""
            table = SpinFlowTable(short_dcid_length=8)
            observer = SpinTomographyObserver(short_dcid_length=8)
            phases = set()
            for index, (downlink, time_ms, data, at) in enumerate(taps):
                if at >= 0 and period and index // period % 2:
                    data = data[:at] + bytes((data[at] | 0x04,)) + data[at + 1 :]
                if at >= 0:
                    phases.add(bool(data[at] & 0x04))
                if downlink:
                    table.on_server_datagram(time_ms, data)
                    observer.on_server_datagram(time_ms, data)
                else:
                    observer.on_client_datagram(time_ms, data)
            (observation,) = table.observations().values()
            return phases, (observation, observer.observation(), observer.samples)

        phases, plain = read(0)
        assert phases == {False}
        assert plain[0].edges_received and plain[2]
        for period in (1, 3, 20):
            phases, flipped = read(period)
            assert phases == {False, True}
            assert flipped == plain

    def test_no_key_update_by_default(self):
        """The endpoints never update keys: no short header of a real
        exchange, in either direction, carries the key-phase bit."""
        firsts = [data[at] for _, _, data, at in _key_phase_taps() if at >= 0]
        assert firsts and not any(first & 0x04 for first in firsts)
