"""Synthetic many-flow traffic: a tap's-eye view of a busy link.

The scanner replays one connection at a time; an on-path operator sees
thousands of users at once.  :class:`TrafficMux` closes that gap: it
drives N concurrent simulated HTTP/3 connections — mixed server stacks,
mixed path classes (RTT / loss / reordering), staggered starts — on one
shared discrete-event simulator and emits the *interleaved*
server-to-client datagram stream exactly as a mid-path tap would
observe it.

Determinism mirrors the scanner: each flow's randomness is derived
independently from ``(seed, "monitor", "flow", index)`` via the same
:class:`~repro._util.rng.SeedPrefix` scheme, so the stream is
bit-identical across runs *and* any single flow can be re-simulated in
isolation (:meth:`TrafficMux.replay_single`) yielding exactly its slice
of the interleaved stream — the property the flow-table equivalence
tests assert.

The stack and path mix are constants, :data:`DEFAULT_STACK_MIX` and
:data:`DEFAULT_PATH_CLASSES`, until the monitor draws its flows from the
scan's population (ROADMAP.md, item 11).  Every client spins, and every
server flushes like the scan's (``SERVER_FLUSH_DISPATCH_MS``).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, Iterator, NamedTuple
from weakref import WeakSet

from repro._util.rng import SeedPrefix, derive_rng
from repro._util.stats import weighted_choice
from repro.core.spin import EndpointRole, SpinPolicy, resolve_connection_policy
from repro.netsim.delays import LogNormalDelay, UniformDelay
from repro.netsim.events import Simulator
from repro.netsim.migration import DrawnMigration, MigrationPlan, draw_client_addr
from repro.netsim.path import PathProfile
from repro.netsim.tcp import draw_tcp_flow_spec, schedule_tcp_flow
from repro.quic.connection import SERVER_FLUSH_DISPATCH_MS, ConnectionConfig, PacketCounts
from repro.telemetry import resolve_registry
from repro.web.http3 import ResponsePlan, build_exchange
from repro.web.server_profiles import stack_by_name

__all__ = [
    "DEFAULT_PATH_CLASSES",
    "DEFAULT_STACK_MIX",
    "FlowSpec",
    "PathClass",
    "TapDatagram",
    "TrafficConfig",
    "TrafficMux",
]

#: The monitored origin as the tap addresses it; client addresses are
#: drawn per flow, so the 4-tuple's entropy lives entirely client-side.
SERVER_ADDR = ("198.18.0.1", 443)

#: Simulated-time span of one batch of the stream generator: the tap
#: buffer holds at most this much traffic.
_DRAIN_WINDOW_MS = 250.0


class TapDatagram(NamedTuple):
    """One server-to-client datagram as seen by the mid-path tap.

    ``tuple4`` is the datagram's addressing as the tap observed it —
    ``(client_ip, client_port, server_ip, server_port)`` — and changes
    mid-flow under NAT rebinds and path migrations.  ``transport`` is
    the *ground truth* of what was sent (the monitor must classify from
    the bytes, never from this field).
    """

    time_ms: float
    flow_index: int
    data: bytes
    tuple4: tuple | None = None
    transport: str = "quic"


@dataclass(frozen=True)
class PathClass:
    """One population of network paths the monitored users sit behind."""

    name: str
    min_delay_ms: float
    max_delay_ms: float
    jitter_ms: float
    loss_probability: float
    reorder_probability: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.min_delay_ms <= self.max_delay_ms:
            raise ValueError("invalid one-way delay range")


#: RTT diversity of the monitored user population, metro access to
#: intercontinental transit, with impairments growing with distance.
DEFAULT_PATH_CLASSES: tuple[tuple[PathClass, float], ...] = (
    (PathClass("metro", 1.5, 8.0, 0.3, 0.0003, 0.0005), 0.25),
    (PathClass("regional", 8.0, 25.0, 0.8, 0.001, 0.0015), 0.40),
    (PathClass("continental", 25.0, 60.0, 1.5, 0.003, 0.003), 0.25),
    (PathClass("intercontinental", 60.0, 140.0, 2.5, 0.008, 0.005), 0.10),
)

#: Server-stack mix of the monitored traffic, roughly the deployment
#: shares behind the paper's Tables 2/3 (LiteSpeed dominating spin
#: support, hyperscalers without it, a rare-behaviour tail).
DEFAULT_STACK_MIX: tuple[tuple[str, float], ...] = (
    ("litespeed", 0.30),
    ("cloudflare", 0.22),
    ("nginx", 0.18),
    ("gws", 0.10),
    ("fastly", 0.06),
    ("imunify360", 0.05),
    ("caddy-spin", 0.04),
    ("litespeed-draft", 0.03),
    ("gws-spin", 0.01),
    ("allone-appliance", 0.004),
    ("grease-packet", 0.003),
    ("grease-connection", 0.003),
)

_PATH_CLASSES, _PATH_WEIGHTS = zip(*DEFAULT_PATH_CLASSES)
_STACK_NAMES, _STACK_WEIGHTS = zip(*DEFAULT_STACK_MIX)


@dataclass(frozen=True)
class TrafficConfig:
    """Shape of the monitored traffic aggregate."""

    flows: int = 100
    seed: int = 20230520
    #: Flow starts are staggered uniformly over this span, so the tap
    #: always sees ramp-up, steady interleaving, and drain-out phases.
    arrival_window_ms: float = 5_000.0
    #: Connection-migration chaos (repro.netsim.migration); ``None`` or
    #: an all-zero plan leaves every flow's event cascade — and so the
    #: tap stream's payload bytes — untouched.
    migration: MigrationPlan | None = None
    #: TCP-with-spin-signal flows multiplexed into the tap stream
    #: (repro.netsim.tcp); their indices follow the QUIC flows'.
    tcp_flows: int = 0

    def __post_init__(self) -> None:
        if self.flows < 1:
            raise ValueError("flows must be positive")
        if self.arrival_window_ms < 0:
            raise ValueError("arrival_window_ms must be non-negative")
        if self.tcp_flows < 0:
            raise ValueError("tcp_flows must be non-negative")

    @property
    def migration_active(self) -> bool:
        return self.migration is not None and not self.migration.is_empty

    @property
    def event_budget(self) -> int:
        """Event-cascade runaway guard, scaled with ``flows``."""
        return max(400_000, 6_000 * self.flows)


@dataclass(frozen=True)
class FlowSpec:
    """Everything needed to (re-)simulate one flow deterministically."""

    index: int
    host: str
    start_ms: float
    stack_name: str
    path_class: str
    propagation_delay_ms: float
    jitter_ms: float
    loss_probability: float
    reorder_probability: float
    server_policy: SpinPolicy
    retry_required: bool
    plan: ResponsePlan
    exchange_seed: int


def _spec_for(config: TrafficConfig, prefix: SeedPrefix, index: int) -> FlowSpec:
    """Draw flow ``index``'s parameters from its own derived stream."""
    rng = prefix.derive(index)
    start_ms = rng.random() * config.arrival_window_ms
    path_class = weighted_choice(rng, _PATH_CLASSES, _PATH_WEIGHTS)
    propagation = rng.uniform(path_class.min_delay_ms, path_class.max_delay_ms)
    stack = stack_by_name(weighted_choice(rng, _STACK_NAMES, _STACK_WEIGHTS))
    server_policy = resolve_connection_policy(stack.spin_config, rng)
    retry_required = (
        stack.retry_probability > 0.0 and rng.random() < stack.retry_probability
    )
    plan = stack.sample_plan(rng, redirect_target=None)
    return FlowSpec(
        index=index,
        host=f"flow-{index}.monitored.test",
        start_ms=start_ms,
        stack_name=stack.name,
        path_class=path_class.name,
        propagation_delay_ms=propagation,
        jitter_ms=path_class.jitter_ms,
        loss_probability=path_class.loss_probability,
        reorder_probability=path_class.reorder_probability,
        server_policy=server_policy,
        retry_required=retry_required,
        plan=plan,
        exchange_seed=rng.getrandbits(64),
    )


class _FlowWire:
    """Mutable per-flow wire context the tap reads at append time.

    The tap lambda captures this holder, not a tuple value, so a
    scheduled NAT rebind swaps ``tuple4`` mid-flow and every later
    datagram is stamped with the new path — exactly what a mid-path tap
    would observe.  ``server`` is the flow's server endpoint once its
    launch has run: the migration event, scheduled before, reaches it
    here.  Not the whole exchange: the wire is held by the downlink's
    tap, and the endpoint lets go of the downlink when it closes.
    """

    __slots__ = ("tuple4", "server")

    def __init__(self, tuple4: tuple):
        self.tuple4 = tuple4
        self.server = None


#: Retry cadence/cap for a CID switch racing the NEW_CONNECTION_ID
#: flight (the alternates may still be in the air at the drawn time).
_MIGRATE_RETRY_MS = 50.0
_MIGRATE_RETRY_MAX = 40


def _switch_cid(
    simulator: Simulator,
    wire: _FlowWire,
    new_tuple: tuple | None,
    log: Callable[[float], None],
    retries: int = 0,
) -> None:
    """One try at a CID switch; a failed try queues the next.

    A module function, not a closure that names itself: such a closure
    is a reference cycle, freed only by the garbage collector.
    """
    server = wire.server
    if server.closed:
        return
    switched = server.migrate_to_alternate_cid()
    if switched is not None:
        if new_tuple is not None:
            wire.tuple4 = new_tuple
        log(simulator.now_ms)
    elif retries < _MIGRATE_RETRY_MAX:
        simulator.schedule(
            _MIGRATE_RETRY_MS,
            partial(_switch_cid, simulator, wire, new_tuple, log, retries + 1),
        )


class TrafficMux:
    """N concurrent flows, one time-ordered interleaved tap stream.

    All flows share one simulator.  Each flow's launch is one event at
    its staggered start that wires it up via
    :func:`repro.web.http3.build_exchange` and connects at once, so
    endpoints, paths and their random streams exist only from the
    flow's start until its events drain (the endpoints let go of each
    other as they close, so reference counts free the flow then);
    before that a flow is its :class:`FlowSpec` and one queued event.
    A consumer that stops early leaves flows open: the stream then
    clears the queue and releases their endpoints.  A tap on each
    flow's downlink (mid-path, position 0.5) appends the observed
    datagrams to a shared buffer, which :meth:`stream` drains in
    simulated-time windows — so the generator yields a strictly
    time-ordered stream while buffering one window's worth of datagrams
    and the flows that are live.

    Migration chaos and TCP flows ride the same determinism scheme from
    their own derived streams — ``(seed, "monitor", "tuple", index)``
    for client addresses, ``(seed, "monitor", "migration", index)`` for
    migration draws, ``(seed, "monitor", "tcp", index)`` for TCP flow
    shapes — so enabling them never perturbs the QUIC flow draws, and a
    disabled plan leaves the stream byte-identical.
    """

    def __init__(self, config: TrafficConfig | None = None, metrics=None):
        self.config = config or TrafficConfig()
        #: Telemetry registry (``None``: the off registry): the shared
        #: simulator reports into it during :meth:`stream`, and the
        #: endpoints' packet counts are copied in when the stream ends.
        self.metrics = resolve_registry(metrics)
        prefix = SeedPrefix(self.config.seed, "monitor", "flow")
        self.specs: list[FlowSpec] = [
            _spec_for(self.config, prefix, index)
            for index in range(self.config.flows)
        ]
        #: Ground truth: flow index -> drawn migration (linkable or not).
        self.migrations: dict[int, DrawnMigration] = {}
        if self.config.migration_active:
            for spec in self.specs:
                rng = derive_rng(self.config.seed, "monitor", "migration", spec.index)
                drawn = self.config.migration.draw(rng, spec.start_ms)
                if drawn is not None:
                    self.migrations[spec.index] = drawn
        #: Migrations actually applied during the last :meth:`stream` /
        #: :meth:`replay_single` run (a drawn migration is a no-op when
        #: the flow finishes first).
        self.migration_log: list[dict] = []

    def client_tuple(self, index: int) -> tuple:
        """Flow ``index``'s initial 4-tuple (client side drawn per flow)."""
        rng = derive_rng(self.config.seed, "monitor", "tuple", index)
        ip, port = draw_client_addr(rng)
        return (ip, port, *SERVER_ADDR)

    def injected_summary(self) -> dict:
        """Ground-truth migration/TCP injection counts (for snapshots)."""
        kinds: dict[str, int] = {}
        for drawn in self.migrations.values():
            kinds[drawn.kind.value] = kinds.get(drawn.kind.value, 0) + 1
        return {
            "flows_drawn": len(self.migrations),
            "by_kind": dict(sorted(kinds.items())),
            "applied": len(self.migration_log),
            "tcp_flows": self.config.tcp_flows,
        }

    def stream(self) -> Iterator[TapDatagram]:
        """Yield the interleaved server-to-client stream in time order."""
        simulator = Simulator(metrics=self.metrics)
        buffer: list[TapDatagram] = []
        self.migration_log = []
        # One pair of counts for all flows: a finished flow's endpoints
        # are garbage, what they counted is not.
        counts = PacketCounts(EndpointRole.CLIENT), PacketCounts(EndpointRole.SERVER)
        # The endpoints of the flows in flight, which only a consumer
        # that stops early leaves unclosed.
        live: WeakSet = WeakSet()
        for spec in self.specs:
            self._schedule_flow(simulator, spec, buffer, counts, live)
        for tcp_index in range(self.config.tcp_flows):
            self._launch_tcp(simulator, tcp_index, buffer)
        budget = self.config.event_budget
        try:
            while simulator.pending_events:
                deadline = simulator.next_event_time_ms + _DRAIN_WINDOW_MS
                simulator.run_until(deadline, max_events=budget)
                if buffer:
                    yield from buffer
                    buffer.clear()
        finally:  # also when the consumer stops early
            # The queued events hold flows, which hold the simulator, and
            # an unclosed flow's endpoints hold each other.
            simulator.clear()
            for endpoint in list(live):
                endpoint.release()
            for role_counts in counts:
                role_counts.export(self.metrics)

    def replay_single(self, index: int) -> list[TapDatagram]:
        """Re-simulate flow ``index`` alone.

        Returns exactly the flow's datagrams from the interleaved
        stream (same payloads, same tap times): flow randomness is
        per-flow derived and flows share no simulator state beyond the
        event queue, so isolation does not perturb the flow — including
        its migration draw, which is re-derived from the same stream.
        """
        simulator = Simulator()
        buffer: list[TapDatagram] = []
        self.migration_log = []
        self._schedule_flow(simulator, self.specs[index], buffer)
        simulator.run(max_events=self.config.event_budget)
        return buffer

    # ------------------------------------------------------------------

    def _schedule_flow(
        self,
        simulator: Simulator,
        spec: FlowSpec,
        buffer: list[TapDatagram],
        counts: tuple = (None, None),
        live: WeakSet | None = None,
    ) -> None:
        # Launch and migration take their FIFO ranks here, in flow order,
        # so events at equal times run in the same order however late
        # the flow is built.
        wire = _FlowWire(self.client_tuple(spec.index))
        simulator.schedule_at(
            spec.start_ms, lambda: self._launch(simulator, spec, buffer, counts, wire, live)
        )
        migration = self.migrations.get(spec.index)
        if migration is not None:
            self._schedule_migration(simulator, spec.index, migration, wire)

    def _launch(
        self,
        simulator: Simulator,
        spec: FlowSpec,
        buffer: list[TapDatagram],
        counts: tuple,
        wire: _FlowWire,
        live: WeakSet | None,
    ) -> None:
        profile = PathProfile(
            propagation_delay_ms=spec.propagation_delay_ms,
            jitter=UniformDelay(0.0, spec.jitter_ms),
            loss_probability=spec.loss_probability,
            reorder_probability=spec.reorder_probability,
            reorder_extra_delay=LogNormalDelay(median_ms=5.0, sigma=1.2),
        )
        stack = stack_by_name(spec.stack_name)
        migration = self.migrations.get(spec.index)
        client_config = None
        if migration is not None and migration.kind.changes_cid:
            # The client must issue alternates or a downlink CID switch
            # has nothing to switch to (RFC 9000 5.1.1).
            client_config = ConnectionConfig(issue_alternate_cids=2)
        handle = build_exchange(
            simulator,
            spec.host,
            [spec.plan],
            SpinPolicy.SPIN,
            spec.server_policy,
            profile,
            profile,
            derive_rng(spec.exchange_seed, "exchange"),
            client_config=client_config,
            server_config=ConnectionConfig(
                flush_dispatch_ms=SERVER_FLUSH_DISPATCH_MS,
                version=stack.supported_versions[0],
                supported_versions=stack.supported_versions,
                retry_required=spec.retry_required,
                ack_delay_exponent=stack.ack_delay_exponent,
                max_ack_delay_ms=stack.max_ack_delay_ms,
            ),
            counts=counts,
        )
        handle.downlink.install_tap(
            lambda time_ms, data, index=spec.index, wire=wire: buffer.append(
                TapDatagram(time_ms, index, data, wire.tuple4)
            ),
            position=0.5,
        )
        wire.server = handle.server
        if live is not None:
            live.update((handle.client, handle.server))

    def _schedule_migration(
        self, simulator, index: int, migration: DrawnMigration, wire: _FlowWire
    ) -> None:
        kind = migration.kind
        new_tuple = (
            (*migration.new_client_addr, *SERVER_ADDR)
            if migration.new_client_addr is not None
            else None
        )

        def log(at_ms: float) -> None:
            self.migration_log.append(
                {"flow_index": index, "kind": kind.value, "time_ms": at_ms}
            )

        if not kind.changes_cid:
            # NAT rebind: pure wire-level path change, endpoints unaware.
            def rebind() -> None:
                if wire.server.closed:
                    return
                wire.tuple4 = new_tuple
                log(simulator.now_ms)

            simulator.schedule_at(migration.at_ms, rebind)
            return

        # CID rotation / path migration: the server re-addresses its
        # short headers to a client-issued alternate.  The alternates may
        # still be in flight at the drawn time, so retry on a fixed
        # deterministic cadence.  For a path migration the tuple swaps in
        # the same instant the CID does — the unlinkability RFC 9000 9.5
        # demands — never before.
        simulator.schedule_at(
            migration.at_ms, partial(_switch_cid, simulator, wire, new_tuple, log)
        )

    def _launch_tcp(
        self, simulator: Simulator, tcp_index: int, buffer: list[TapDatagram]
    ) -> None:
        flow_index = self.config.flows + tcp_index
        rng = derive_rng(self.config.seed, "monitor", "tcp", tcp_index)
        spec = draw_tcp_flow_spec(rng, flow_index, self.config.arrival_window_ms)
        client_ip, client_port = draw_client_addr(rng)
        tuple4 = (client_ip, client_port, *SERVER_ADDR)
        schedule_tcp_flow(
            simulator,
            spec,
            client_port,
            lambda time_ms, data: buffer.append(
                TapDatagram(time_ms, flow_index, data, tuple4, "tcp")
            ),
        )
