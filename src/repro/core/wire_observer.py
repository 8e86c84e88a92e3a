"""On-path spin-bit observation from raw wire bytes.

The qlog-based observer (:mod:`repro.core.observer`) replays the
scanner's own traces — the paper's methodology.  Real network operators,
however, sit *on the path* (the paper's motivation, and the P4 hardware
observer of Kunze et al. 2021): they see UDP datagrams, must parse QUIC
headers themselves, reconstruct full packet numbers per direction from
truncated wire values, and track the spin bit of the server-to-client
direction only.

:class:`WireObserver` implements that middlebox: feed it every datagram
of a connection (either direction) and it produces the same
:class:`~repro.core.observer.SpinObservation` a qlog replay would —
modulo the information an on-path box genuinely lacks (it must know the
deployment's short-header connection-ID length, and it cannot see the
stack's internal RTT estimates).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.observer import SpinObservation, SpinObserver
from repro.quic.onpath import DirectionState, walk_datagram

__all__ = ["Direction", "WireObserver", "WireObserverStats"]


class Direction:
    """Direction labels for on-path taps."""

    CLIENT_TO_SERVER = "client-to-server"
    SERVER_TO_CLIENT = "server-to-client"


@dataclass
class WireObserverStats:
    """What the observer managed (or failed) to parse."""

    datagrams: int = 0
    packets: int = 0
    short_header_packets: int = 0
    parse_errors: int = 0


class WireObserver:
    """A passive on-path spin-bit measurement point.

    ``short_dcid_length`` is the connection-ID length used by the
    observed deployment's short headers; on-path observers must know it
    out of band (it is not self-describing on the wire).  Measurement
    follows the server-to-client direction, where consecutive spin
    edges are one RTT apart at the observation point.
    """

    def __init__(self, short_dcid_length: int = 8):
        self.short_dcid_length = short_dcid_length
        self.stats = WireObserverStats()
        self._spin_observer = SpinObserver()
        self._states = {
            Direction.CLIENT_TO_SERVER: DirectionState(),
            Direction.SERVER_TO_CLIENT: DirectionState(),
        }
        self._vec_marks: list[tuple[float, int]] = []

    def on_datagram(self, time_ms: float, direction: str, data: bytes) -> None:
        """Process one captured datagram.

        Unparseable datagrams are counted, not raised: a middlebox
        cannot crash on unknown traffic.
        """
        if direction not in self._states:
            raise ValueError(f"unknown direction {direction!r}")
        self.stats.datagrams += 1
        if not data:
            self.stats.parse_errors += 1
            return
        try:
            packets, short_at = walk_datagram(data, self.short_dcid_length)
        except ValueError:
            self.stats.parse_errors += 1
            return
        self.stats.packets += packets
        if short_at < 0:
            return  # long headers never carry the spin bit
        self.stats.short_header_packets += 1
        spin_bit, vec, _, full_pn, _ = self._states[direction].read_short(
            data, short_at, self.short_dcid_length
        )
        if direction == Direction.SERVER_TO_CLIENT:
            self._spin_observer.on_packet(time_ms, full_pn, spin_bit)
            if vec:
                self._vec_marks.append((time_ms, vec))

    def observation(self) -> SpinObservation:
        """The accumulated spin observation (server-to-client)."""
        return self._spin_observer.observation()

    def vec_rtts_ms(self, threshold: int = 3) -> list[float]:
        """VEC-validated RTT samples, if the deployment marks edges."""
        from repro.core.vec import VecObserver

        observer = VecObserver(threshold=threshold)
        for time_ms, vec in self._vec_marks:
            observer.on_packet(time_ms, vec)
        return observer.rtts_ms()


def tap_paths(simulator, uplink, downlink, observer: WireObserver):
    """Insert ``observer`` between two :class:`~repro.netsim.path.Path`
    objects and their receivers.

    Wraps each path's delivery callback so every datagram is handed to
    the observer (stamped with the arrival time at the tap) before the
    original receiver processes it.  Returns the observer for chaining.
    """
    original_up = uplink._receiver
    original_down = downlink._receiver

    def up_tap(data: bytes) -> None:
        observer.on_datagram(simulator.now_ms, Direction.CLIENT_TO_SERVER, data)
        original_up(data)

    def down_tap(data: bytes) -> None:
        observer.on_datagram(simulator.now_ms, Direction.SERVER_TO_CLIENT, data)
        original_down(data)

    uplink._receiver = up_tap
    downlink._receiver = down_tap
    return observer
