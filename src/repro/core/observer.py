"""Passive spin-bit observation (the paper's measurement core).

The scanner's vantage point is the client, so — exactly as in
Section 3.3 of the paper — the observer consumes the *received* packets
of a connection's qlog: for each 1-RTT packet the spin-bit state, the
packet number, and the arrival timestamp.  An RTT sample is the time
between two consecutive spin-bit value changes ("spin edges") in the
server-to-client stream.

Two orderings are analyzed:

* **R** (received): packets in arrival order — what an on-path observer
  sees, vulnerable to reordering-induced ultra-short spin cycles
  (Fig. 1b of the paper);
* **S** (sorted): packets re-sorted by reconstructed packet number,
  which undoes reordering and isolates its impact (Section 5.2).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, NamedTuple, Sequence

from repro.qlog.recorder import PacketEvent, TraceRecorder

__all__ = [
    "SpinEdge",
    "SpinObservation",
    "SpinObserver",
    "StreamingSpinObserver",
    "observe_recorder",
    "spin_rtts_from_edges",
]


class SpinEdge(NamedTuple):
    """One detected spin-bit transition.

    ``time_ms`` is the arrival time of the packet that revealed the new
    value; ``packet_number`` identifies that packet; ``new_value`` is
    the spin value after the flip.

    A named tuple rather than a dataclass: edges are the highest-volume
    decoded object in the artifact path, and tuple construction (also in
    bulk via ``map``) is several times cheaper than dataclass ``__init__``.
    """

    time_ms: float
    packet_number: int
    new_value: bool


@dataclass(slots=True)
class SpinObservation:
    """Everything the observer extracted from one connection.

    ``rtts_received_ms`` are the edge-to-edge samples in arrival order
    (the paper's *R*); ``rtts_sorted_ms`` use packet-number order (*S*).
    ``values_seen`` records which spin values occurred at all, which
    drives the Table 3 classification.
    """

    packets_seen: int = 0
    values_seen: set[bool] = field(default_factory=set)
    edges_received: list[SpinEdge] = field(default_factory=list)
    edges_sorted: list[SpinEdge] = field(default_factory=list)
    rtts_received_ms: list[float] = field(default_factory=list)
    rtts_sorted_ms: list[float] = field(default_factory=list)

    @property
    def spins(self) -> bool:
        """Spin-bit *activity*: both values observed on the connection.

        This is the paper's candidate criterion for spin-bit support —
        necessary but not sufficient, since per-connection greasing also
        produces both values (filtered later by the grease filter).
        """
        return len(self.values_seen) == 2

    @property
    def all_zero(self) -> bool:
        return self.values_seen == {False}

    @property
    def all_one(self) -> bool:
        return self.values_seen == {True}


class SpinObserver:
    """Incremental single-direction spin observer.

    Feed packets via :meth:`on_packet` in arrival order; the observer
    maintains both the arrival-order edge stream and the packet-number-
    sorted reconstruction, then exposes a :class:`SpinObservation`.
    """

    __slots__ = ("_packets",)

    def __init__(self) -> None:
        self._packets: list[tuple[float, int, bool]] = []

    def on_packet(self, time_ms: float, packet_number: int, spin_bit: bool) -> None:
        """Record one received 1-RTT packet."""
        self._packets.append((time_ms, packet_number, spin_bit))

    def observation(self) -> SpinObservation:
        """Compute the final observation for this connection."""
        observation = SpinObservation(packets_seen=len(self._packets))
        for _, _, spin in self._packets:
            observation.values_seen.add(spin)

        observation.edges_received = _detect_edges(self._packets)
        observation.rtts_received_ms = spin_rtts_from_edges(observation.edges_received)

        # S variant: stable sort by packet number; duplicate packet
        # numbers (retransmitted datagrams recorded twice) keep arrival
        # order among themselves.
        ordered = sorted(self._packets, key=lambda item: item[1])
        observation.edges_sorted = _detect_edges(ordered)
        observation.rtts_sorted_ms = spin_rtts_from_edges(observation.edges_sorted)
        return observation


class StreamingSpinObserver:
    """O(1)-memory received-order spin observer for long-running taps.

    :class:`SpinObserver` buffers every packet so it can compute both
    the R (received) and S (packet-number-sorted) orderings — fine for
    one connection, unbounded for a monitoring service that watches
    thousands of flows for hours.  This variant detects spin edges
    incrementally in arrival order and *retires* each RTT sample as it
    is produced: through the ``on_sample(time_ms, rtt_ms)`` callback
    when one is given, otherwise into a buffer drained with
    :meth:`take_samples`.  The S ordering is unavailable by
    construction (it needs the full packet sequence);
    :meth:`observation` reports received-order results only.
    """

    __slots__ = (
        "on_sample",
        "packets_seen",
        "values_seen",
        "edges_seen",
        "_last_value",
        "_last_edge_ms",
        "_pending",
    )

    def __init__(
        self, on_sample: "Callable[[float, float], None] | None" = None
    ) -> None:
        self.on_sample = on_sample
        self.packets_seen = 0
        self.values_seen: set[bool] = set()
        self.edges_seen = 0
        self._last_value: bool | None = None
        self._last_edge_ms: float | None = None
        self._pending: list[float] = []

    def on_packet(self, time_ms: float, packet_number: int, spin_bit: bool) -> None:
        """Record one received 1-RTT packet (arrival order)."""
        self.packets_seen += 1
        self.values_seen.add(spin_bit)
        last = self._last_value
        if spin_bit != last:
            self._last_value = spin_bit
            if last is None:
                return
            self.edges_seen += 1
            previous_edge = self._last_edge_ms
            self._last_edge_ms = time_ms
            if previous_edge is not None:
                rtt = time_ms - previous_edge
                if self.on_sample is not None:
                    self.on_sample(time_ms, rtt)
                else:
                    self._pending.append(rtt)

    def take_samples(self) -> list[float]:
        """Drain RTT samples buffered since the last call (no callback mode)."""
        samples = self._pending
        self._pending = []
        return samples

    def observation(self) -> SpinObservation:
        """A summary observation; received-order series are not retained.

        ``rtts_received_ms`` holds only the samples not yet retired (the
        pending buffer), so a drained observer reports counts and
        ``values_seen`` but empty series — by design: the samples live
        downstream in the aggregation layer.
        """
        return SpinObservation(
            packets_seen=self.packets_seen,
            values_seen=set(self.values_seen),
            rtts_received_ms=list(self._pending),
        )


def _detect_edges(packets: Sequence[tuple[float, int, bool]]) -> list[SpinEdge]:
    """Find value transitions between consecutive packets of a stream."""
    edges: list[SpinEdge] = []
    previous_value: bool | None = None
    for time_ms, packet_number, spin in packets:
        if previous_value is not None and spin != previous_value:
            edges.append(SpinEdge(time_ms=time_ms, packet_number=packet_number, new_value=spin))
        previous_value = spin
    return edges


def spin_rtts_from_edges(edges: Iterable[SpinEdge]) -> list[float]:
    """Edge-to-edge intervals: the spin-bit RTT sample series."""
    rtts: list[float] = []
    previous_time: float | None = None
    for edge in edges:
        if previous_time is not None:
            rtts.append(edge.time_ms - previous_time)
        previous_time = edge.time_ms
    return rtts


def observe_recorder(recorder: TraceRecorder) -> SpinObservation:
    """Run the observer over a connection trace's received packets."""
    observer = SpinObserver()
    for event in recorder.received_short_header_packets():
        observer.on_packet(event.time_ms, event.packet_number, bool(event.spin_bit))
    return observer.observation()
