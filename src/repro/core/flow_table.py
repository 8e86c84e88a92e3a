"""Flow-table spin monitoring: many concurrent connections, one tap.

A real on-path measurement point (the operator deployment the paper
motivates, or the P4 hardware observer of Kunze et al. 2021) does not
see one connection at a time — it sees an interleaved packet stream and
must demultiplex it into flows before spin measurement is possible.
:class:`SpinFlowTable` implements that stage:

* flows are keyed by the *destination connection ID* bytes of the
  server-to-client direction (the client's CID), a zero-length CID by
  the datagram's 4-tuple (``b""`` when the tap has none);
* each flow is one :class:`FlowRecord`, the register slot of "Tracking
  the QUIC Spin Bit on Tofino" (PAPERS.md): last spin value, last edge
  time, values seen, edge and packet counts, updated in place, each
  received-order RTT sample retired through ``on_sample`` as its edge
  arrives.  Packet-number reconstruction and an observer object (by
  default the buffering :class:`~repro.core.observer.SpinObserver`, for
  the R and S orderings) exist only where a table *attaches* one;
* the table is bounded like a switch/NIC flow table: idle flows expire
  after a timeout, and at capacity either the least-recently-seen flow
  is evicted or new flows are dropped (``overflow_policy``).

Recency is maintained as an :class:`~collections.OrderedDict` in
last-seen order, so capacity eviction pops the front in O(1) and the
idle sweep only touches actually-stale entries.  Idle sweeps are
amortized: at most one per ``idle_timeout_ms / 4`` of *stream* time, so
per-datagram cost stays O(1) even with millions of flows resident.

Connection migration: with a
:class:`~repro.core.flow_resolver.FlowKeyResolver` attached, the slot
also holds the flow's identity (alias CIDs, claimed 4-tuples), a packet
finds its slot with one lookup in the resolver's CID index, claims are
made on admission and ``_retire`` — the one exit — releases them.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import asdict, dataclass
from typing import TYPE_CHECKING, Callable

from repro.core.observer import SpinObservation, SpinObserver
from repro.netsim.tcp import _QUIC_FORM_OR_FIXED, is_tcp_shaped
from repro.quic.onpath import DirectionState, check_frames, walk_datagram
from repro.quic.packet import HeaderParseError

if TYPE_CHECKING:
    from repro.core.flow_resolver import FlowKeyResolver

__all__ = ["FlowRecord", "FlowTableStats", "SpinFlowTable", "tuple_flow_key"]

#: Valid ``overflow_policy`` values: evict the LRU flow to make room, or
#: drop packets of not-yet-tracked flows while the table is full.
OVERFLOW_POLICIES = ("evict-lru", "drop-new")


def check_table_shape(max_flows: int, idle_timeout_ms: float, overflow_policy: str) -> None:
    """Raise ValueError unless the three values size a flow table."""
    if max_flows < 1:
        raise ValueError("max_flows must be positive")
    if idle_timeout_ms <= 0:
        raise ValueError("idle_timeout_ms must be positive")
    if overflow_policy not in OVERFLOW_POLICIES:
        raise ValueError(
            f"overflow_policy must be one of {OVERFLOW_POLICIES}, "
            f"got {overflow_policy!r}"
        )


def tuple_flow_key(tuple4: tuple) -> str:
    """The flow key of a zero-length-CID flow: its 4-tuple, namespaced.

    The ``4t:`` prefix keeps tuple-keyed flows in a different key space
    from CID-keyed ones (hex strings), so a CID flow sharing a 4-tuple
    with an empty-CID flow can never collide with it.
    """
    return "4t:" + ":".join(str(part) for part in tuple4)


@dataclass(slots=True)
class FlowRecord:
    """One flow's slot: received-order spin state, updated in place, and
    the flow's identity.

    The state machine of :class:`~repro.core.observer.StreamingSpinObserver`
    (``tests/test_flow_slot.py`` holds the two together).  ``values_mask``
    has bit 0 set once spin 0 was seen, bit 1 once spin 1 was; ``edges``
    counts value changes.  ``key`` keys the slot in ``SpinFlowTable.flows``;
    ``flow_key`` is its printable form (CID hex, :func:`tuple_flow_key` or
    ``"(empty)"``).  ``cids`` (canonical first) and ``tuples`` are what a
    resolver claimed; ``_observer`` and ``_direction`` exist only when the
    table attached an observer.
    """

    flow_key: str
    first_seen_ms: float
    last_seen_ms: float
    packets: int = 0
    values_mask: int = 0
    edges: int = 0
    key: bytes | tuple = b""
    cids: tuple[bytes, ...] = ()
    tuples: tuple[tuple, ...] = ()
    _last_spin: int | None = None
    _last_edge_ms: float | None = None
    _observer: SpinObserver | None = None
    _direction: DirectionState | None = None

    @property
    def spins(self) -> bool:
        """Both spin values observed (the paper's activity criterion)."""
        return self.values_mask == 3

    def observation(self) -> SpinObservation:
        """The attached observer's observation; without one, the slot's
        counts (its RTT samples went to ``on_sample`` and are not kept)."""
        if self._observer is not None:
            return self._observer.observation()
        values = {bool(bit) for bit in (0, 1) if self.values_mask >> bit & 1}
        return SpinObservation(packets_seen=self.packets, values_seen=values)


@dataclass(slots=True)
class FlowTableStats:
    """Table health counters: plain ints, the table's only count.

    The per-datagram path bumps them and makes no telemetry call;
    ``MonitorPipeline.finish`` copies them into the ``flow_table.*``
    series.  ``flows_evicted`` counts capacity evictions,
    ``flows_expired`` idle timeouts, ``overflow_drops`` packets discarded
    under the ``drop-new`` policy because the table was full.
    ``peak_flows`` is the high-water mark of resident flows.
    """

    datagrams: int = 0
    packets: int = 0
    short_header_packets: int = 0
    parse_errors: int = 0
    flows_created: int = 0
    flows_evicted: int = 0
    flows_expired: int = 0
    overflow_drops: int = 0
    peak_flows: int = 0
    idle_sweeps: int = 0

    def as_dict(self) -> dict:
        """JSON-serializable counter block (snapshot export)."""
        return asdict(self)


class SpinFlowTable:
    """Demultiplexes a tapped packet stream into per-flow spin state.

    ``max_flows`` bounds the table; when full, ``overflow_policy``
    decides between evicting the least-recently-seen flow
    (``"evict-lru"``, the default) and dropping packets of new flows
    (``"drop-new"``, counting ``stats.overflow_drops``).
    ``idle_timeout_ms`` retires flows that stay silent — both behaviours
    mirror switch/NIC flow tables.

    Retired flows are appended to ``evicted`` unless ``retain_retired``
    is false (a long-running monitor must not accumulate them) and are
    always reported through the ``on_retire(flow, reason)`` hook, with
    ``reason`` one of ``"evicted"`` / ``"expired"``.

    ``on_sample(time_ms, rtt_ms)`` receives every received-order RTT
    sample as the slot produces it.  A table given ``on_sample`` and no
    ``observer_factory`` is a *streaming* table: nothing is attached to
    a flow and nothing per packet leaves this module.  Otherwise each
    flow gets ``observer_factory(flow_key)`` — or a buffering
    :class:`~repro.core.observer.SpinObserver` — fed every packet with
    its reconstructed number.  ``on_packet(flow, time_ms)`` fires for
    every demultiplexed short-header packet.

    ``on_window(time_ms)`` shares the idle sweep's deadline test: called
    for the first datagram and for each one at or past the open window's
    end, *before* that datagram is counted, it returns ``(flow_keys,
    end_ms)`` — the set that collects the ``flow_key`` of every tracked
    packet, and the stream time to call again.
    """

    __slots__ = (
        "short_dcid_length",
        "max_flows",
        "idle_timeout_ms",
        "overflow_policy",
        "retain_retired",
        "observer_factory",
        "on_retire",
        "on_packet",
        "on_sample",
        "on_window",
        "resolver",
        "flows",
        "evicted",
        "stats",
        "last_time_ms",
        "_next_sweep_ms",
        "_window_keys",
        "_window_end_ms",
        "_deadline_ms",
    )

    def __init__(
        self,
        short_dcid_length: int = 8,
        max_flows: int = 10_000,
        idle_timeout_ms: float = 30_000.0,
        overflow_policy: str = "evict-lru",
        retain_retired: bool = True,
        observer_factory: Callable[[str], SpinObserver] | None = None,
        on_retire: Callable[[FlowRecord, str], None] | None = None,
        on_packet: Callable[[FlowRecord, float], None] | None = None,
        resolver: FlowKeyResolver | None = None,
        on_sample: Callable[[float, float], None] | None = None,
        on_window: Callable[[float], tuple[set, float]] | None = None,
    ):
        check_table_shape(max_flows, idle_timeout_ms, overflow_policy)
        self.short_dcid_length = short_dcid_length
        self.max_flows = max_flows
        self.idle_timeout_ms = idle_timeout_ms
        self.overflow_policy = overflow_policy
        self.retain_retired = retain_retired
        self.observer_factory = observer_factory
        self.on_retire = on_retire
        self.on_packet = on_packet
        self.on_sample = on_sample
        self.on_window = on_window
        #: Optional migration-aware identity + transport counters
        #: (repro.core.flow_resolver); with one, non-QUIC is classified.
        self.resolver = resolver
        #: Resident flows by ``FlowRecord.key``, in last-seen order
        #: (front = least recent).
        self.flows: OrderedDict[bytes | tuple, FlowRecord] = OrderedDict()
        self.evicted: list[FlowRecord] = []
        self.stats = FlowTableStats()
        #: Stream time of the latest datagram, malformed ones included.
        self.last_time_ms = 0.0
        #: Stream time before which no idle sweep runs (amortization).
        self._next_sweep_ms = float("-inf")
        self._window_keys: set | None = None
        self._window_end_ms = float("inf" if on_window is None else "-inf")
        #: min(next sweep, window end): the one test a datagram pays.
        self._deadline_ms = float("-inf")

    def on_server_datagram(
        self, time_ms: float, data: bytes, tuple4: tuple | None = None
    ) -> None:
        """Process one server-to-client datagram from the tap.

        ``tuple4`` is the datagram's 4-tuple when the tap knows it
        (source ip/port, destination ip/port); it keys zero-length-CID
        flows and feeds the resolver's migration linkage.

        Only headers are read (first byte, DCID and, for an attached
        observer, the truncated packet number); payloads are checked for
        well-formedness, never materialised.  The whole datagram is
        validated before the table is touched, so one that fails
        anywhere — a later coalesced packet's payload included — leaves
        no trace but a parse error.
        """
        if time_ms >= self._deadline_ms:
            self._pass_deadline(time_ms)
        stats = self.stats
        resolver = self.resolver
        stats.datagrams += 1
        self.last_time_ms = time_ms
        dcid_length = self.short_dcid_length
        quic = True
        try:
            if data and data[0] & 0xC0 == 0x40:
                # A short header first is the whole datagram (it has no
                # length field): the common case of a tap, read in place.
                packets = 1
                short_at = 0
                size = len(data)
                payload_at = 2 + dcid_length + (data[0] & 0x03)
                if payload_at > size:
                    raise HeaderParseError("short header truncated")
                check_frames(data, payload_at, size)
            elif data and not data[0] & 0x40:
                # What walk_datagram's first test raises for, without
                # the raise: on a mixed tap this is every TCP segment.
                quic = False
            else:
                packets, short_at = walk_datagram(data, dcid_length)
        except ValueError:
            quic = False
        if not quic:
            # Malformed input is counted, never raised: a monitor must
            # not crash on what it taps.  With a resolver, transports are
            # classified, and a TCP segment (QUIC form and fixed bits
            # clear, TCP-shaped header) is not an error.
            if resolver is None:
                stats.parse_errors += 1
            elif data and not data[0] & _QUIC_FORM_OR_FIXED and is_tcp_shaped(data):
                resolver.tcp_datagrams += 1
                if tuple4 is not None:
                    resolver.tcp_tuples.add(tuple4)
            else:
                resolver.unparseable_datagrams += 1
                stats.parse_errors += 1
            return
        if resolver is not None:
            resolver.quic_datagrams += 1
        stats.packets += packets
        if short_at < 0:
            return  # long headers and version negotiation carry no flow data
        first = data[short_at]
        cid = data[short_at + 1 : short_at + 1 + dcid_length]
        flows = self.flows
        if resolver is None or not cid:
            key = cid if cid or tuple4 is None else tuple4
            flow = flows.get(key)
        else:
            # Every alias CID of a resident flow indexes its slot; the
            # slot on a 4-tuple it has not claimed is a rebind to follow.
            key = cid
            flow = resolver.by_cid.get(cid)
            if flow is not None and tuple4 is not None and tuple4 not in flow.tuples:
                flow = None
        if flow is None:
            flow = self._admit(key, cid, tuple4, time_ms)
            if flow is None:
                stats.overflow_drops += 1
                return
        else:
            flows.move_to_end(flow.key)
        stats.short_header_packets += 1
        window_keys = self._window_keys
        if window_keys is not None:
            window_keys.add(flow.flow_key)
        flow.last_seen_ms = time_ms
        flow.packets += 1
        spin = first & 0x20
        flow.values_mask |= 2 if spin else 1
        last = flow._last_spin
        if spin != last:
            flow._last_spin = spin
            if last is not None:
                # A spin edge; two of them are one received-order sample.
                flow.edges += 1
                previous_edge = flow._last_edge_ms
                flow._last_edge_ms = time_ms
                if previous_edge is not None and self.on_sample is not None:
                    self.on_sample(time_ms, time_ms - previous_edge)
        observer = flow._observer
        if observer is not None:
            packet_number = flow._direction.read_short(data, short_at, dcid_length)[3]
            observer.on_packet(time_ms, packet_number, spin != 0)
        if self.on_packet is not None:
            self.on_packet(flow, time_ms)

    def observations(self) -> dict[str, SpinObservation]:
        """Current per-flow observations (active flows only)."""
        return {flow.flow_key: flow.observation() for flow in self.flows.values()}

    def all_flows(self) -> list[FlowRecord]:
        """Active plus retained retired flows, in first-seen order."""
        combined = list(self.flows.values()) + self.evicted
        combined.sort(key=lambda flow: flow.first_seen_ms)
        return combined

    # ------------------------------------------------------------------

    def _admit(
        self, key: bytes | tuple, cid: bytes, tuple4: tuple | None, time_ms: float
    ) -> FlowRecord | None:
        """The slot for a packet the index lookup did not place: the
        resident flow a rebind or an adopted CID leads to, else a new
        slot under ``key`` whose claims are registered once it is held;
        ``None`` (and no claim) if the table is full under ``drop-new``."""
        flows = self.flows
        resolver = self.resolver if cid else None
        if resolver is not None:
            flow = resolver.find(cid, tuple4)
            if flow is not None:
                flows.move_to_end(flow.key)
                return flow
        if len(flows) >= self.max_flows and self.overflow_policy == "drop-new":
            return None
        flow_key = tuple_flow_key(key) if type(key) is tuple else key.hex() or "(empty)"
        flow = FlowRecord(flow_key, time_ms, time_ms, key=key)
        if self.observer_factory is not None or self.on_sample is None:
            factory = self.observer_factory
            flow._observer = SpinObserver() if factory is None else factory(flow_key)
            flow._direction = DirectionState()
        flows[key] = flow
        if resolver is not None:
            # Claimed before the LRU leaves: a 4-tuple owned when the
            # packet arrived is a split even if its owner is evicted now.
            resolver.admit(flow, cid, tuple4)
        stats = self.stats
        stats.flows_created += 1
        if len(flows) > self.max_flows:
            # Front of the OrderedDict is the least recently seen flow.
            stats.flows_evicted += 1
            self._retire(next(iter(flows.values())), "evicted")
        if len(flows) > stats.peak_flows:
            stats.peak_flows = len(flows)
        return flow

    def _pass_deadline(self, time_ms: float) -> None:
        """Stream time reached the window's end, a due idle sweep, or both."""
        if time_ms >= self._window_end_ms:
            self._window_keys, self._window_end_ms = self.on_window(time_ms)
        if time_ms >= self._next_sweep_ms:
            self._expire_idle(time_ms)
        self._deadline_ms = min(self._window_end_ms, self._next_sweep_ms)

    def _expire_idle(self, now_ms: float) -> None:
        self._next_sweep_ms = now_ms + self.idle_timeout_ms / 4.0
        self.stats.idle_sweeps += 1
        deadline = now_ms - self.idle_timeout_ms
        flows = self.flows
        # Recency order means stale flows cluster at the front; stop at
        # the first fresh one instead of sweeping the whole table.
        while flows:
            flow = next(iter(flows.values()))
            if flow.last_seen_ms >= deadline:
                break
            self.stats.flows_expired += 1
            self._retire(flow, "expired")

    def _retire(self, flow: FlowRecord, reason: str) -> None:
        """The one exit: the slot leaves the table, its claims the resolver."""
        del self.flows[flow.key]
        if self.resolver is not None:
            self.resolver.release(flow)
        if self.retain_retired:
            self.evicted.append(flow)
        if self.on_retire is not None:
            self.on_retire(flow, reason)
