"""HTTP/3-style request/response application layer.

The paper's scanner issues one HTTP/3 GET for the landing page of each
domain.  This module drives a :class:`repro.quic.QuicEndpoint` pair with
exactly that workload: the client sends a GET once handshake keys are
available, the server produces the response according to a
:class:`ResponsePlan` — an initial *think time* plus a sequence of
timed body writes, which is where end-host delay enters the spin-bit
signal — and the client records everything in a qlog trace.

Responses use a compact textual header block (``HTTP/3 <status>``,
``server:``, ``location:`` …) so that webserver attribution and redirect
following parse real bytes off the stream, as zgrab2 does.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro._util.rng import fork_rng
from repro.core.spin import EndpointRole, SpinPolicy
from repro.netsim.events import Simulator
from repro.netsim.path import PathProfile, duplex_paths
from repro.qlog.recorder import TraceRecorder
from repro.quic.connection import ConnectionConfig, PacketCounts, QuicEndpoint
from repro.telemetry import resolve_registry

__all__ = [
    "ExchangeHandle",
    "ExchangeResult",
    "ResponsePlan",
    "build_exchange",
    "run_exchange",
]

#: HTTP/3 control overhead is ignored; stream 0 carries the request.
_REQUEST_STREAM_ID = 0

_USER_AGENT = "repro-spinbit-scanner/1.0 (research; opt-out via abuse@)"


@dataclass(frozen=True)
class ResponsePlan:
    """A server's answer to one GET.

    ``think_time_ms`` is the delay between receiving the full request
    and the first response byte (request processing: PHP, database,
    cache lookups).  ``write_gaps_ms`` / ``write_sizes`` describe the
    subsequent body generation: after each gap the server hands the next
    chunk to the transport.  A static file is one instantaneous write; a
    slow dynamic page dribbles chunks hundreds of milliseconds apart —
    the paper's primary suspected source of spin-bit RTT inflation.
    """

    server_header: str
    status: int = 200
    think_time_ms: float = 30.0
    write_gaps_ms: tuple[float, ...] = (0.0,)
    write_sizes: tuple[int, ...] = (16_000,)
    redirect_location: str | None = None

    def __post_init__(self) -> None:
        if len(self.write_gaps_ms) != len(self.write_sizes):
            raise ValueError("write_gaps_ms and write_sizes must align")
        if not self.write_sizes:
            raise ValueError("a response needs at least one write")
        if self.think_time_ms < 0 or any(g < 0 for g in self.write_gaps_ms):
            raise ValueError("delays must be non-negative")
        if self.status in (301, 302, 307, 308) and not self.redirect_location:
            raise ValueError("a redirect response needs a location")

    def header_block(self) -> bytes:
        """The textual response head preceding the body bytes."""
        total = sum(self.write_sizes)
        lines = [
            f"HTTP/3 {self.status}",
            f"server: {self.server_header}",
            f"content-length: {total}",
        ]
        if self.redirect_location:
            lines.append(f"location: {self.redirect_location}")
        return ("\r\n".join(lines) + "\r\n\r\n").encode("ascii")


@dataclass
class ExchangeResult:
    """Outcome of one simulated connection."""

    success: bool
    failure_reason: str | None
    recorder: TraceRecorder
    status: int | None = None
    server_header: str | None = None
    redirect_location: str | None = None
    body_bytes: int = 0
    client: QuicEndpoint | None = None
    server: QuicEndpoint | None = None
    #: The exchange was cut off by a caller-imposed timeout budget
    #: (see ``run_exchange``'s ``timeout_ms``), not by its own events.
    timed_out: bool = False


class _ServerApp:
    """Server-side request handling: one :class:`ResponsePlan` per
    request stream (stream IDs 0, 4, 8, ... for sequential requests)."""

    def __init__(
        self,
        simulator: Simulator,
        endpoint: QuicEndpoint,
        plans: list[ResponsePlan],
    ):
        self.simulator = simulator
        self.endpoint = endpoint
        self.plans = plans
        self._responded: set[int] = set()
        endpoint.on_stream_data = self._on_stream_data

    def _on_stream_data(self, stream_id: int, data: bytes, fin: bool) -> None:
        if stream_id % 4 != 0 or stream_id in self._responded:
            return
        index = stream_id // 4
        if index >= len(self.plans):
            return
        if fin:
            self._responded.add(stream_id)
            plan = self.plans[index]
            self.simulator.schedule(
                plan.think_time_ms, lambda: self._start_response(stream_id, plan)
            )

    def _start_response(self, stream_id: int, plan: ResponsePlan) -> None:
        if self.endpoint.closed:
            return
        self._write(stream_id, plan, 0, plan.header_block())

    def _write(self, stream_id: int, plan: ResponsePlan, index: int, prefix: bytes) -> None:
        if self.endpoint.closed:
            return
        gap = plan.write_gaps_ms[index]
        chunk = prefix + b"x" * plan.write_sizes[index]
        last = index == len(plan.write_sizes) - 1

        def emit() -> None:
            if self.endpoint.closed:
                return
            self.endpoint.send_stream(stream_id, chunk, fin=last)
            if not last:
                self._write(stream_id, plan, index + 1, b"")

        if gap > 0:
            self.simulator.schedule(gap, emit)
        else:
            emit()


class _ClientApp:
    """Client-side session logic: sequential GETs, then teardown.

    One request per path entry; request ``k`` uses stream ``4 * k`` and
    is sent ``think_gaps_ms[k - 1]`` after response ``k - 1`` completed
    (a simple browsing-session model).  The single-fetch scan uses one
    path and no gaps.
    """

    def __init__(
        self,
        simulator: Simulator,
        endpoint: QuicEndpoint,
        host: str,
        paths: list[str] | None = None,
        think_gaps_ms: list[float] | None = None,
        final_probe: bool = True,
    ):
        self.simulator = simulator
        self.endpoint = endpoint
        self.host = host
        self.final_probe = final_probe
        self.paths = paths or ["/"]
        self.think_gaps_ms = think_gaps_ms or [0.0] * (len(self.paths) - 1)
        if len(self.think_gaps_ms) < len(self.paths) - 1:
            raise ValueError("need a think gap for every follow-up request")
        #: Response bytes received per request stream; of the bodies
        #: only stream 0's head is kept (``parse_response`` reads no more).
        self.response_bytes: dict[int, int] = {}
        self._head = bytearray()
        self._head_done = False
        self._next_request = 0
        self.completed_requests = 0
        self.done = False
        endpoint.on_handshake_keys = self._send_next_request
        endpoint.on_stream_data = self._on_stream_data

    def _send_next_request(self) -> None:
        if self.endpoint.closed:
            return
        index = self._next_request
        self._next_request += 1
        request = (
            f"GET {self.paths[index]} HTTP/3\r\n"
            f"host: {self.host}\r\n"
            f"user-agent: {_USER_AGENT}\r\n\r\n"
        ).encode("ascii")
        self.endpoint.send_stream(4 * index, request, fin=True)

    def _on_stream_data(self, stream_id: int, data: bytes, fin: bool) -> None:
        if stream_id % 4 != 0:
            return
        self.response_bytes[stream_id] = self.response_bytes.get(stream_id, 0) + len(data)
        if stream_id == _REQUEST_STREAM_ID and not self._head_done:
            self._head += data
            head_end = self._head.find(b"\r\n\r\n")
            if head_end >= 0:
                del self._head[head_end + 4 :]
                self._head_done = True
        if not fin:
            return
        self.completed_requests += 1
        if self._next_request < len(self.paths):
            gap = self.think_gaps_ms[self._next_request - 1]
            if gap > 0:
                self.simulator.schedule(gap, self._send_next_request)
            else:
                self._send_next_request()
        elif not self.done:
            self.done = True
            if not self.final_probe:
                self._close()
                return
            # A final keep-alive probe before teardown (quic-go behaves
            # alike): the server's acknowledgment reflects the client's
            # latest spin value, so a spinning server is reliably
            # detectable even on single-flight responses.  Two probe
            # packets cross the peer's ack-eliciting threshold, so the
            # acknowledgment returns without delayed-ack inflation.
            self.endpoint.on_ping_acked = self._close
            self.endpoint.send_ping()
            self.endpoint.send_ping()

    def _close(self) -> None:
        self.endpoint.close()

    def parse_response(self) -> tuple[int | None, str | None, str | None, int]:
        """Extract (status, server header, redirect location, body size)
        of the first response from its head and its byte count."""
        if not self._head_done:
            return None, None, None, 0
        head = self._head[:-4].decode("ascii", errors="replace")
        body_bytes = self.response_bytes[_REQUEST_STREAM_ID] - len(self._head)
        status: int | None = None
        server: str | None = None
        location: str | None = None
        for line_number, line in enumerate(head.split("\r\n")):
            if line_number == 0:
                parts = line.split()
                if len(parts) >= 2 and parts[1].isdigit():
                    status = int(parts[1])
                continue
            name, _, value = line.partition(":")
            name = name.strip().lower()
            value = value.strip()
            if name == "server":
                server = value
            elif name == "location":
                location = value
        return status, server, location, body_bytes


@dataclass
class ExchangeHandle:
    """Live handles of one connection wired into a simulator.

    Returned by :func:`build_exchange` before any event has run:
    callers that own the simulator (the scanner's per-connection
    :func:`run_exchange`, or the monitor's traffic multiplexer driving
    hundreds of connections on one shared event queue) keep whichever
    handles they need.  The endpoints hold their paths and applications
    only until they close, so the rest is freed by reference count once
    the connection's events drain; :func:`run_exchange` also releases
    both endpoints and clears the queue when its run stops, so an
    exchange its timeout cut off is freed too.
    """

    host: str
    client: QuicEndpoint
    server: QuicEndpoint
    uplink: "Path"
    downlink: "Path"
    client_app: _ClientApp
    recorder: TraceRecorder | None


def build_exchange(
    simulator: Simulator,
    host: str,
    plans: list[ResponsePlan],
    client_spin_policy: SpinPolicy,
    server_spin_policy: SpinPolicy,
    uplink_profile: PathProfile,
    downlink_profile: PathProfile,
    rng: random.Random,
    client_config: ConnectionConfig | None = None,
    server_config: ConnectionConfig | None = None,
    paths: list[str] | None = None,
    think_gaps_ms: list[float] | None = None,
    recorder: TraceRecorder | None = None,
    final_probe: bool = True,
    start_ms: float | None = None,
    counts: tuple[PacketCounts | None, PacketCounts | None] = (None, None),
) -> ExchangeHandle:
    """Wire one HTTP/3 connection into ``simulator`` without running it.

    ``plans[k]`` answers request ``k`` on ``paths[k]`` (default: one GET
    of ``/``).  The client keeps of its responses only the first one's
    head and a byte count per stream (``client_app.response_bytes``):
    ``parse_response`` reads no more, and no body is held.  With
    ``start_ms`` set, the client's ``connect()`` is scheduled at that
    absolute simulated time instead of being invoked immediately — this
    is how an on-path observer taps an exchange: ``start_ms=0.0``, then
    ``handle.uplink`` / ``handle.downlink.install_tap(...)`` before the
    first packet is sent.  ``recorder`` is optional: a monitoring tap
    that observes from the path does not need the client-side qlog
    trace.  ``counts`` is a (client, server) pair of
    :class:`~repro.quic.connection.PacketCounts` the endpoints count into
    instead of their own: the multiplexer's, one pair for all its flows.

    RNG stream derivation (client / server / paths forks, in that
    order) is identical to the historical in-:func:`run_exchange`
    setup, so single-connection results are bit-identical.
    """
    client_config = client_config or ConnectionConfig()
    server_config = server_config or ConnectionConfig()

    client = QuicEndpoint(
        simulator,
        EndpointRole.CLIENT,
        client_config,
        client_spin_policy,
        fork_rng(rng, "client"),
        recorder=recorder,
        counts=counts[0],
    )
    server = QuicEndpoint(
        simulator,
        EndpointRole.SERVER,
        server_config,
        server_spin_policy,
        fork_rng(rng, "server"),
        counts=counts[1],
    )

    uplink, downlink = duplex_paths(
        simulator,
        uplink_profile,
        downlink_profile,
        client.receive_datagram,
        server.receive_datagram,
        fork_rng(rng, "paths"),
    )
    client.attach_transport(uplink.send)
    server.attach_transport(downlink.send)

    client_app = _ClientApp(
        simulator,
        client,
        host,
        paths or ["/"] * len(plans),
        think_gaps_ms,
        final_probe=final_probe,
    )
    _ServerApp(simulator, server, plans)

    if start_ms is None:
        client.connect()
    else:
        simulator.schedule_at(start_ms, client.connect)
    return ExchangeHandle(
        host=host,
        client=client,
        server=server,
        uplink=uplink,
        downlink=downlink,
        client_app=client_app,
        recorder=recorder,
    )


def run_exchange(
    host: str,
    plan: ResponsePlan,
    client_spin_policy: SpinPolicy,
    server_spin_policy: SpinPolicy,
    uplink_profile: PathProfile,
    downlink_profile: PathProfile,
    rng: random.Random,
    client_config: ConnectionConfig | None = None,
    server_config: ConnectionConfig | None = None,
    max_events: int = 200_000,
    final_probe: bool = True,
    metrics=None,
    timeout_ms: float | None = None,
    impairment=None,
) -> ExchangeResult:
    """Simulate one complete HTTP/3 fetch and return its trace.

    Creates a fresh simulator, endpoint pair, and duplex path; runs until
    the event cascade drains.  The returned recorder is the client-side
    qlog-equivalent trace the analysis pipeline consumes.

    ``timeout_ms`` imposes a simulated-time budget: if the client is
    still working at the deadline the exchange is abandoned and the
    result carries ``timed_out=True``.  ``impairment`` installs a
    fault-injection drop predicate (:mod:`repro.faults.spec`) on both
    path directions.  Both default to off, leaving the event cascade —
    and therefore every artifact byte — exactly as without them.
    ``metrics`` is a telemetry registry (``None``: off); the endpoints'
    packet counts go into it once the exchange is over, timed out or not.
    """
    metrics = resolve_registry(metrics)
    simulator = Simulator(metrics=metrics)
    recorder = TraceRecorder(vantage_point="client")
    handle = build_exchange(
        simulator,
        host,
        [plan],
        client_spin_policy,
        server_spin_policy,
        uplink_profile,
        downlink_profile,
        rng,
        client_config=client_config,
        server_config=server_config,
        paths=["/"],
        recorder=recorder,
        final_probe=final_probe,
    )
    if impairment is not None:
        handle.uplink.install_impairment(impairment)
        handle.downlink.install_impairment(impairment)

    timed_out = False
    if timeout_ms is None:
        simulator.run(max_events=max_events)
    else:
        simulator.run_until(timeout_ms, max_events=max_events, settle=False)
        finished = (
            handle.client_app.done
            or handle.client.closed
            or handle.client.failed is not None
        )
        if finished or not simulator.pending_events:
            # The connection resolved within budget; stale events past
            # the deadline (queued PTO timers of a closed endpoint) are
            # harmless to drain and keep the cascade byte-identical to
            # an unbudgeted run.
            simulator.run(max_events=max_events)
        else:
            timed_out = True

    # Nothing more runs: whether or not the endpoints closed, they let go
    # of their paths and applications, and the queue of what was left.
    simulator.clear()
    client, server, client_app = handle.client, handle.server, handle.client_app
    client.release()
    server.release()
    client.counts.export(metrics)
    server.counts.export(metrics)
    recorder.odcid_hex = client.local_cid.hex
    status, server_header, location, body_bytes = client_app.parse_response()
    success = client_app.done and client.failed is None
    failure = None
    if not success:
        if client.failed is not None:
            failure = client.failed
        elif timed_out:
            failure = "timeout budget exceeded"
        elif client.peer_close_error_code:
            failure = f"closed by peer (error 0x{client.peer_close_error_code:x})"
        else:
            failure = server.failed or "incomplete response"
    return ExchangeResult(
        success=success,
        failure_reason=failure,
        recorder=recorder,
        status=status,
        server_header=server_header,
        redirect_location=location,
        body_bytes=body_bytes,
        client=client,
        server=server,
        timed_out=timed_out,
    )
