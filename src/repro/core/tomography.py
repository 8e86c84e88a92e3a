"""The on-path observer: spin edges and RTTs read off raw datagrams.

A network operator sits *on the path* (the paper's motivation, and the
P4 hardware observer of Kunze et al. 2021): it sees UDP datagrams, must
parse QUIC headers itself, reconstruct full packet numbers per direction
from truncated wire values, and read the spin bit and VEC marks.
:class:`SpinTomographyObserver` is that box, fed by the two taps of a
:meth:`repro.netsim.path.Path.install_tap` pair.  Its server-to-client
direction yields the same :class:`~repro.core.observer.SpinObservation`
a qlog replay would — modulo what an on-path box genuinely lacks (it
must know the deployment's short-header connection-ID length, and it
cannot see the stack's internal RTT estimates).

Seeing *both* directions also allows network tomography, which the
paper names (Coates et al.) as a practical application of spin-bit
measurements.  RFC 9312 describes the trick: an observer can split the
end-to-end RTT at its own position.  When the spin value flips on a
client-to-server packet at time ``t1`` and the reflected flip comes back
on a server-to-client packet at ``t2``, then ``t2 - t1`` is the
*upstream* component (observer → server → observer); the time from that
reflected edge to the client's next flip is the *downstream* component
(observer → client → observer).  Their sum is the full spin period.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.observer import SpinObservation, SpinObserver
from repro.core.vec import VecObserver
from repro.quic.onpath import DirectionState, walk_datagram

__all__ = ["ComponentSample", "SpinTomographyObserver"]


@dataclass(frozen=True)
class ComponentSample:
    """One decomposed spin cycle at the observation point."""

    upstream_ms: float
    downstream_ms: float

    @property
    def total_ms(self) -> float:
        """The full spin period this cycle measured."""
        return self.upstream_ms + self.downstream_ms


class _SpinDirection(DirectionState):
    """A direction plus the spin value of its highest packet number."""

    __slots__ = ("last_spin",)

    def __init__(self) -> None:
        super().__init__()
        self.last_spin: bool | None = None


class SpinTomographyObserver:
    """A passive two-direction spin-bit measurement point.

    Feed client-to-server datagrams via :meth:`on_client_datagram` and
    server-to-client ones via :meth:`on_server_datagram`, each stamped
    with the tap-local observation time — the two callbacks
    :meth:`~repro.netsim.path.Path.install_tap` takes.

    ``short_dcid_length`` is the connection-ID length used by the
    observed deployment's short headers; on-path observers must know it
    out of band (it is not self-describing on the wire).  The RTT
    estimate (:meth:`observation`, :meth:`vec_rtts_ms`) follows the
    server-to-client direction, where consecutive spin edges are one
    RTT apart at the observation point.  The decomposition
    (:attr:`samples`) pairs edges across both directions, detected per
    direction on the highest-packet-number signal (reordered stragglers
    cannot fabricate them).  Unparseable datagrams are counted in
    ``parse_errors``, never raised: a middlebox cannot crash on unknown
    traffic.
    """

    def __init__(self, short_dcid_length: int = 8):
        self.short_dcid_length = short_dcid_length
        self.samples: list[ComponentSample] = []
        self.datagrams = 0
        self.packets = 0
        self.short_header_packets = 0
        self.parse_errors = 0
        self._client_state = _SpinDirection()
        self._server_state = _SpinDirection()
        self._spin_observer = SpinObserver()
        self._vec_marks: list[tuple[float, int]] = []
        #: Time of the most recent client edge awaiting its reflection.
        self._pending_client_edge_ms: float | None = None
        #: Time of the most recent reflected (server) edge awaiting the
        #: client's next flip.
        self._pending_server_edge_ms: float | None = None
        self._pending_upstream_ms: float | None = None

    # ------------------------------------------------------------------

    def on_client_datagram(self, time_ms: float, data: bytes) -> None:
        """Process a client-to-server datagram seen at the tap."""
        read = self._read_short(data, self._client_state)
        if read is not None and read[3]:  # flipped
            self._on_client_edge(time_ms)

    def on_server_datagram(self, time_ms: float, data: bytes) -> None:
        """Process a server-to-client datagram seen at the tap."""
        read = self._read_short(data, self._server_state)
        if read is None:
            return
        spin_bit, vec, full_pn, flipped = read
        self._spin_observer.on_packet(time_ms, full_pn, spin_bit)
        if vec:
            self._vec_marks.append((time_ms, vec))
        if flipped:
            self._on_server_edge(time_ms)

    def observation(self) -> SpinObservation:
        """The accumulated spin observation (server-to-client)."""
        return self._spin_observer.observation()

    def vec_rtts_ms(self, threshold: int = 3) -> list[float]:
        """VEC-validated RTT samples, if the deployment marks edges."""
        observer = VecObserver(threshold=threshold)
        for time_ms, vec in self._vec_marks:
            observer.on_packet(time_ms, vec)
        return observer.rtts_ms()

    # ------------------------------------------------------------------

    def _read_short(self, data: bytes, state: _SpinDirection):
        """Count ``data`` and read its short header, if any.

        Returns ``(spin_bit, vec, full_pn, flipped)`` or ``None``;
        ``flipped`` is whether this direction's highest-packet-number
        signal changed value.
        """
        self.datagrams += 1
        try:
            packets, short_at = walk_datagram(data, self.short_dcid_length)
        except ValueError:
            packets = 0
        if not packets:  # malformed, or empty
            self.parse_errors += 1
            return None
        self.packets += packets
        if short_at < 0:
            return None  # long headers never carry the spin bit
        self.short_header_packets += 1
        spin_bit, vec, _, full_pn, is_new = state.read_short(
            data, short_at, self.short_dcid_length
        )
        flipped = False
        if is_new:
            flipped = state.last_spin is not None and spin_bit != state.last_spin
            state.last_spin = spin_bit
        return spin_bit, vec, full_pn, flipped

    def _on_client_edge(self, time_ms: float) -> None:
        if self._pending_server_edge_ms is not None and self._pending_upstream_ms is not None:
            downstream = time_ms - self._pending_server_edge_ms
            self.samples.append(
                ComponentSample(
                    upstream_ms=self._pending_upstream_ms, downstream_ms=downstream
                )
            )
            self._pending_server_edge_ms = None
            self._pending_upstream_ms = None
        self._pending_client_edge_ms = time_ms

    def _on_server_edge(self, time_ms: float) -> None:
        if self._pending_client_edge_ms is None:
            return  # reflection without an observed cause (start-up)
        self._pending_upstream_ms = time_ms - self._pending_client_edge_ms
        self._pending_server_edge_ms = time_ms
        self._pending_client_edge_ms = None
