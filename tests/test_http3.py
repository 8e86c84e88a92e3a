"""The HTTP/3-style application layer: plans, parsing, redirects."""

import pytest

from repro._util.rng import derive_rng
from repro.core.spin import SpinPolicy
from repro.netsim.delays import ConstantDelay
from repro.netsim.path import PathProfile
from repro.web.http3 import ResponsePlan, run_exchange


class TestResponsePlan:
    def test_header_block_contains_metadata(self):
        plan = ResponsePlan(server_header="LiteSpeed", write_sizes=(1234,))
        head = plan.header_block().decode()
        assert head.startswith("HTTP/3 200\r\n")
        assert "server: LiteSpeed\r\n" in head
        assert "content-length: 1234\r\n" in head
        assert head.endswith("\r\n\r\n")

    def test_redirect_has_location(self):
        plan = ResponsePlan(
            server_header="x",
            status=301,
            redirect_location="https://example.com/start",
            write_sizes=(10,),
        )
        assert b"location: https://example.com/start" in plan.header_block()

    def test_redirect_requires_location(self):
        with pytest.raises(ValueError):
            ResponsePlan(server_header="x", status=301)

    def test_gaps_and_sizes_must_align(self):
        with pytest.raises(ValueError):
            ResponsePlan(server_header="x", write_gaps_ms=(0.0,), write_sizes=(1, 2))

    def test_negative_delays_rejected(self):
        with pytest.raises(ValueError):
            ResponsePlan(server_header="x", think_time_ms=-1.0)


class TestExchange:
    def _run(self, plan, seed=0):
        profile = PathProfile(propagation_delay_ms=15.0, jitter=ConstantDelay(0.0))
        return run_exchange(
            "www.test.org",
            plan,
            SpinPolicy.SPIN,
            SpinPolicy.ALWAYS_ZERO,
            profile,
            profile,
            derive_rng(seed, "http3-test"),
        )

    def test_response_parsing(self):
        plan = ResponsePlan(server_header="nginx", write_sizes=(5_000,))
        result = self._run(plan)
        assert (result.status, result.server_header) == (200, "nginx")
        assert result.redirect_location is None
        assert result.body_bytes == 5_000

    def test_redirect_location_extracted(self):
        plan = ResponsePlan(
            server_header="cloudflare",
            status=301,
            redirect_location="https://www.test.org/start",
            write_sizes=(600,),
        )
        result = self._run(plan)
        assert result.status == 301
        assert result.redirect_location == "https://www.test.org/start"

    def test_chunked_writes_deliver_full_body(self):
        plan = ResponsePlan(
            server_header="x",
            write_gaps_ms=(0.0, 50.0, 75.0),
            write_sizes=(10_000, 10_000, 5_000),
        )
        result = self._run(plan)
        assert result.success
        assert result.body_bytes == 25_000

    def test_write_gaps_delay_completion(self):
        fast = self._run(ResponsePlan(server_header="x", write_sizes=(22_000,)))
        slow = self._run(
            ResponsePlan(
                server_header="x",
                write_gaps_ms=(0.0, 400.0),
                write_sizes=(11_000, 11_000),
            )
        )
        last_fast = max(e.time_ms for e in fast.recorder.received)
        last_slow = max(e.time_ms for e in slow.recorder.received)
        assert last_slow > last_fast + 350.0

    def test_think_time_delays_first_body_packet(self):
        lazy = self._run(
            ResponsePlan(server_header="x", think_time_ms=500.0, write_sizes=(2_000,))
        )
        data_packets = [
            e
            for e in lazy.recorder.received
            if e.spin_bit is not None and e.size_bytes > 600
        ]
        assert data_packets[0].time_ms >= 500.0

    def test_deterministic_given_seed(self):
        plan = ResponsePlan(server_header="x", write_sizes=(9_000,))
        a = self._run(plan, seed=9)
        b = self._run(plan, seed=9)
        assert [e.time_ms for e in a.recorder.received] == [
            e.time_ms for e in b.recorder.received
        ]


class TestFinalProbeToggle:
    def test_probe_disabled_sends_no_trailing_pings(self):
        from repro._util.rng import derive_rng
        from repro.core.spin import SpinPolicy
        from repro.netsim.delays import ConstantDelay
        from repro.netsim.path import PathProfile

        plan = ResponsePlan(server_header="x", think_time_ms=10.0, write_sizes=(5_000,))
        profile = PathProfile(propagation_delay_ms=15.0, jitter=ConstantDelay(0.0))

        def run(final_probe):
            return run_exchange(
                "www.probe.test", plan, SpinPolicy.SPIN, SpinPolicy.SPIN,
                profile, profile, derive_rng(21, "probe-toggle"),
                final_probe=final_probe,
            )

        with_probe = run(True)
        without_probe = run(False)
        assert with_probe.success and without_probe.success
        sent_with = len(with_probe.recorder.sent)
        sent_without = len(without_probe.recorder.sent)
        assert sent_with >= sent_without + 2  # the two PING packets
