"""Unidirectional network path models.

A :class:`Path` carries datagrams from one endpoint to the other with a
configurable one-way delay, jitter, loss, and reordering behaviour.
Reordering is the phenomenon Figure 1b of the paper warns about
(spurious spin edges / ultra-short spin cycles), so the model supports
both natural reordering (jitter without FIFO enforcement) and explicit
"reorder events" that hold one packet back by a sampled extra delay.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable

from repro.netsim.delays import ConstantDelay, DelayModel, UniformDelay
from repro.netsim.events import Simulator

__all__ = ["Path", "PathProfile", "PathStats"]


@dataclass(frozen=True)
class PathProfile:
    """Static description of one direction of a network path.

    ``base_delay`` is sampled once per packet and added to the
    propagation delay, modelling queueing jitter.  When ``fifo`` is
    true, delivery order is forced to match send order by clamping each
    arrival to be no earlier than the previous one (the common case on a
    single uncongested route); reordering then only happens through
    explicit ``reorder_probability`` events.  With ``fifo`` false, large
    jitter draws reorder packets naturally.
    """

    propagation_delay_ms: float = 25.0
    jitter: DelayModel = field(default_factory=lambda: UniformDelay(0.0, 1.0))
    loss_probability: float = 0.0
    reorder_probability: float = 0.0
    reorder_extra_delay: DelayModel = field(default_factory=lambda: ConstantDelay(3.0))
    fifo: bool = True
    #: Link capacity in Mbit/s; ``None`` models an unconstrained link.
    #: With a capacity set, each datagram occupies the link for its
    #: serialization time and bursts queue behind each other.
    bandwidth_mbps: float | None = None

    def __post_init__(self) -> None:
        if self.propagation_delay_ms < 0:
            raise ValueError("propagation delay must be non-negative")
        if not 0.0 <= self.loss_probability < 1.0:
            raise ValueError("loss probability must be in [0, 1)")
        if not 0.0 <= self.reorder_probability <= 1.0:
            raise ValueError("reorder probability must be in [0, 1]")
        if self.bandwidth_mbps is not None and self.bandwidth_mbps <= 0:
            raise ValueError("bandwidth must be positive (or None)")

    def serialization_delay_ms(self, size_bytes: int) -> float:
        """Time the link is busy transmitting ``size_bytes``."""
        if self.bandwidth_mbps is None:
            return 0.0
        return (size_bytes * 8) / (self.bandwidth_mbps * 1000.0)


@dataclass
class PathStats:
    """Counters a path keeps about its own behaviour (for assertions)."""

    sent: int = 0
    delivered: int = 0
    lost: int = 0
    reordered: int = 0
    #: Subset of ``lost`` dropped by an installed impairment (fault
    #: injection) rather than the profile's own loss process.
    impaired: int = 0


class Path:
    """One direction of a link between two endpoints.

    ``deliver`` hands the raw datagram bytes to the receiver callback at
    the computed arrival time via the shared simulator.

    An optional mid-path *tap* observes each surviving datagram at a
    configurable fraction of its one-way delay — the vantage point of an
    on-path measurement box.  Install one with :meth:`install_tap`.
    """

    def __init__(
        self,
        simulator: Simulator,
        profile: PathProfile,
        receiver: Callable[[bytes], None],
        rng: random.Random,
    ):
        self._simulator = simulator
        self.profile = profile
        self._receiver = receiver
        self._rng = rng
        self._last_arrival_ms = 0.0
        self._link_free_at_ms = 0.0
        self._tap: Callable[[float, bytes], None] | None = None
        self._tap_position = 0.5
        self._impairment: Callable[[float, random.Random], bool] | None = None
        self.stats = PathStats()

    def install_tap(
        self, tap: Callable[[float, bytes], None], position: float = 0.5
    ) -> None:
        """Observe datagrams at ``position`` (0 = sender, 1 = receiver).

        The tap fires at ``send_time + position x one-way-delay`` with
        the tap-local observation time — lost datagrams never reach it
        if they are dropped upstream of the whole path (loss position is
        not modelled more finely).  A path holds one tap: a second one
        raises rather than silently blinding the first (a caller that
        needs two consumers installs one callback that feeds both).
        """
        if not 0.0 <= position <= 1.0:
            raise ValueError("tap position must be in [0, 1]")
        if self._tap is not None:
            raise ValueError("this path already has a tap")
        self._tap = tap
        self._tap_position = position

    def install_impairment(
        self, impairment: Callable[[float, random.Random], bool]
    ) -> None:
        """Install a fault-injection drop predicate on this direction.

        ``impairment(now_ms, rng)`` returns True to drop the datagram
        (after the profile's own loss process).  Predicates come from
        :mod:`repro.faults.spec` (loss bursts, blackholes); they must
        draw from ``rng`` only when active so that inactive faults leave
        the path's random stream untouched.
        """
        self._impairment = impairment

    def send(self, datagram: bytes) -> None:
        """Inject a datagram; it arrives (or is lost) per the profile."""
        self.stats.sent += 1
        if self.profile.loss_probability and self._rng.random() < self.profile.loss_probability:
            self.stats.lost += 1
            return
        if self._impairment is not None and self._impairment(
            self._simulator.now_ms, self._rng
        ):
            self.stats.lost += 1
            self.stats.impaired += 1
            return
        queueing = 0.0
        serialization = self.profile.serialization_delay_ms(len(datagram))
        if serialization:
            now = self._simulator.now_ms
            start = max(now, self._link_free_at_ms)
            self._link_free_at_ms = start + serialization
            queueing = (start - now) + serialization
        delay = (
            queueing
            + self.profile.propagation_delay_ms
            + self.profile.jitter.sample(self._rng)
        )
        if (
            self.profile.reorder_probability
            and self._rng.random() < self.profile.reorder_probability
        ):
            delay += self.profile.reorder_extra_delay.sample(self._rng)
            self.stats.reordered += 1
            arrival = self._simulator.now_ms + delay
            # A reorder event deliberately escapes the FIFO clamp; it
            # may land behind packets sent after it.
        elif self.profile.fifo:
            arrival = max(self._simulator.now_ms + delay, self._last_arrival_ms)
            self._last_arrival_ms = arrival
        else:
            arrival = self._simulator.now_ms + delay
        if self._tap is not None:
            now = self._simulator.now_ms
            tap_time = now + (arrival - now) * self._tap_position
            self._simulator.schedule_at(
                tap_time, lambda t=tap_time, d=datagram: self._tap(t, d)
            )
        self._simulator.schedule_at(arrival, lambda d=datagram: self._deliver(d))

    def _deliver(self, datagram: bytes) -> None:
        self.stats.delivered += 1
        self._receiver(datagram)


def duplex_paths(
    simulator: Simulator,
    client_to_server: PathProfile,
    server_to_client: PathProfile,
    client_receive: Callable[[bytes], None],
    server_receive: Callable[[bytes], None],
    rng: random.Random,
) -> tuple[Path, Path]:
    """Build the two directions of a connection's path.

    Returns ``(uplink, downlink)`` where the uplink delivers to the
    server and the downlink to the client.  Each direction gets its own
    RNG stream so loss on one side does not perturb jitter on the other.
    """
    from repro._util.rng import fork_rng

    uplink = Path(simulator, client_to_server, server_receive, fork_rng(rng, "up"))
    downlink = Path(simulator, server_to_client, client_receive, fork_rng(rng, "down"))
    return uplink, downlink
