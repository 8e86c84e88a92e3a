"""On-path RTT decomposition ("network tomography", paper Section 6).

The paper names network tomography (Coates et al.) as a practical
application of spin-bit measurements.  RFC 9312 describes the underlying
trick: an observer that sees *both* directions of a connection can split
the end-to-end RTT at its own position.  When the spin value flips on a
client-to-server packet at time ``t1`` and the reflected flip comes back
on a server-to-client packet at ``t2``, then ``t2 - t1`` is the
*upstream* component (observer → server → observer); the time from that
reflected edge to the client's next flip is the *downstream* component
(observer → client → observer).  Their sum is the full spin period.

:class:`SpinTomographyObserver` implements this edge-pairing on raw
datagrams from a mid-path tap (see
:meth:`repro.netsim.path.Path.install_tap`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

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
    """Splits the spin period into upstream and downstream components.

    Feed client-to-server datagrams via :meth:`on_client_datagram` and
    server-to-client ones via :meth:`on_server_datagram`, each stamped
    with the tap-local observation time.  Edges are detected per
    direction on the highest-packet-number signal (reordered stragglers
    cannot fabricate them).
    """

    def __init__(self, short_dcid_length: int = 8):
        self.short_dcid_length = short_dcid_length
        self.samples: list[ComponentSample] = []
        self.parse_errors = 0
        self._client_state = _SpinDirection()
        self._server_state = _SpinDirection()
        #: Time of the most recent client edge awaiting its reflection.
        self._pending_client_edge_ms: float | None = None
        #: Time of the most recent reflected (server) edge awaiting the
        #: client's next flip.
        self._pending_server_edge_ms: float | None = None
        self._pending_upstream_ms: float | None = None

    # ------------------------------------------------------------------

    def on_client_datagram(self, time_ms: float, data: bytes) -> None:
        """Process a client-to-server datagram seen at the tap."""
        for spin in self._short_header_spins(data, self._client_state):
            self._on_client_edge(time_ms, spin)

    def on_server_datagram(self, time_ms: float, data: bytes) -> None:
        """Process a server-to-client datagram seen at the tap."""
        for spin in self._short_header_spins(data, self._server_state):
            self._on_server_edge(time_ms, spin)

    def upstream_rtts_ms(self) -> list[float]:
        """Observer → server → observer components."""
        return [sample.upstream_ms for sample in self.samples]

    def downstream_rtts_ms(self) -> list[float]:
        """Observer → client → observer components."""
        return [sample.downstream_ms for sample in self.samples]

    # ------------------------------------------------------------------

    def _short_header_spins(self, data: bytes, state: _SpinDirection):
        """Yield the spin value whenever this direction's signal flips."""
        try:
            _, short_at = walk_datagram(data, self.short_dcid_length)
        except ValueError:
            self.parse_errors += 1
            return
        if short_at < 0:
            return
        spin_bit, _, _, _, is_new = state.read_short(data, short_at, self.short_dcid_length)
        if not is_new:
            return
        if state.last_spin is None:
            state.last_spin = spin_bit
        elif spin_bit != state.last_spin:
            state.last_spin = spin_bit
            yield spin_bit

    def _on_client_edge(self, time_ms: float, _: bool) -> None:
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

    def _on_server_edge(self, time_ms: float, _: bool) -> None:
        if self._pending_client_edge_ms is None:
            return  # reflection without an observed cause (start-up)
        self._pending_upstream_ms = time_ms - self._pending_client_edge_ms
        self._pending_server_edge_ms = time_ms
        self._pending_client_edge_ms = None
