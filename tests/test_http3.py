"""The HTTP/3-style application layer: plans, parsing, redirects."""

from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro._util.rng import derive_rng
from repro.core.spin import SpinPolicy
from repro.netsim.delays import ConstantDelay
from repro.netsim.events import Simulator
from repro.netsim.path import PathProfile
from repro.web.http3 import ResponsePlan, _ClientApp, build_exchange, run_exchange


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


def reference_parse(raw: bytes):
    """(status, server, location, body size) parsed from a whole response."""
    head_end = raw.find(b"\r\n\r\n")
    if head_end < 0:
        return None, None, None, 0
    status = server = location = None
    lines = raw[:head_end].decode("ascii", errors="replace").split("\r\n")
    parts = lines[0].split()
    if len(parts) >= 2 and parts[1].isdigit():
        status = int(parts[1])
    for line in lines[1:]:
        name, _, value = line.partition(":")
        name = name.strip().lower()
        if name == "server":
            server = value.strip()
        elif name == "location":
            location = value.strip()
    return status, server, location, len(raw) - head_end - 4


def fed_app(pieces):
    """A client app that received ``pieces`` on stream 0, in order."""
    app = _ClientApp(Simulator(), SimpleNamespace(), "www.test.org")
    for piece in pieces:
        app._on_stream_data(0, piece, False)
    return app


def teed_session(plans, seed=4):
    """Run ``plans`` as one session; also return every stream's pieces."""
    profile = PathProfile(propagation_delay_ms=10.0, jitter=ConstantDelay(0.0))
    simulator = Simulator()
    handle = build_exchange(
        simulator, "www.test.org", plans, SpinPolicy.SPIN, SpinPolicy.SPIN,
        profile, profile, derive_rng(seed, "http3-oracle"),
        think_gaps_ms=[20.0] * (len(plans) - 1),
    )
    pieces: dict[int, list[bytes]] = {}
    deliver = handle.client.on_stream_data

    def tee(stream_id, data, fin):
        pieces.setdefault(stream_id, []).append(bytes(data))
        deliver(stream_id, data, fin)

    handle.client.on_stream_data = tee
    simulator.run(max_events=400_000)
    assert handle.client_app.done
    return handle.client_app, pieces


class TestHeadAndCountOracle:
    """The client keeps stream 0's head and a byte count per stream; what
    it parses from those equals the parse of the concatenated bytes."""

    TOKENS = [
        b"HTTP/3 200", b"HTTP/3 301", b"HTTP/3", b"server: nginx",
        b"Server:  a b ", b"location: /x", b"\r\n", b"\r", b"\n",
        b"\r\n\r\n", b"x" * 700, b"\xff",
    ]

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(st.sampled_from(TOKENS), max_size=30),
        st.lists(st.integers(0, 4_000), max_size=6),
    )
    def test_any_split_equals_the_whole(self, tokens, cuts):
        raw = b"".join(tokens)
        edges = sorted({0, len(raw), *(min(cut, len(raw)) for cut in cuts)})
        app = fed_app([raw[a:b] for a, b in zip(edges, edges[1:])])
        assert app.parse_response() == reference_parse(raw)
        assert app.response_bytes.get(0, 0) == len(raw)

    def test_terminator_split_between_pieces(self):
        pieces = [b"HTTP/3 200\r\nserver: a\r\n\r", b"\nbody"]
        assert fed_app(pieces).parse_response() == (200, "a", None, 4)

    def test_no_terminator(self):
        pieces = [b"HTTP/3 200\r\nserver: a", b"\r\nxx"]
        assert fed_app(pieces).parse_response() == (None, None, None, 0)

    def test_redirect_head_split_across_two_stream_frames(self):
        location = "https://www.test.org/" + "a" * 1_400
        plan = ResponsePlan(
            server_header="x", status=301, redirect_location=location,
            write_sizes=(3_000,),
        )
        app, pieces = teed_session([plan])
        assert b"\r\n\r\n" not in pieces[0][0]  # the head spans frames
        raw = b"".join(pieces[0])
        assert app.parse_response() == reference_parse(raw) == (301, "x", location, 3_000)

    def test_per_stream_counts_of_a_five_request_session(self):
        plans = [
            ResponsePlan(server_header=f"s{k}", write_sizes=(1_000 + 2_500 * k,))
            for k in range(5)
        ]
        app, pieces = teed_session(plans)
        assert app.response_bytes == {
            stream: len(b"".join(parts)) for stream, parts in pieces.items()
        }
        assert app.response_bytes == {
            4 * k: len(plan.header_block()) + sum(plan.write_sizes)
            for k, plan in enumerate(plans)
        }
        assert app.parse_response() == reference_parse(b"".join(pieces[0]))
