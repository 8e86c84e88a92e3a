"""RFC 9002 round-trip-time estimation.

This is the "QUIC stack estimate" the paper uses as its accuracy
baseline (Section 3.3): the time from sending an ack-eliciting packet to
receiving its acknowledgment, corrected by the peer-reported
``ack_delay``.  The estimator keeps ``latest_rtt``, ``min_rtt``,
``smoothed_rtt``, and ``rttvar`` exactly as RFC 9002 Section 5
prescribes; the accuracy analysis compares *spin* samples against the
per-connection client samples it returns, which the client's qlog
recorder keeps.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["RttEstimator", "RttSample"]

_INITIAL_RTT_MS = 333.0


@dataclass(frozen=True)
class RttSample:
    """One RTT measurement taken from an acknowledgment."""

    time_ms: float
    latest_rtt_ms: float
    adjusted_rtt_ms: float
    ack_delay_ms: float


@dataclass
class RttEstimator:
    """Stateful RFC 9002 RTT estimator for one connection endpoint.

    ``max_ack_delay_ms`` bounds how much reported ack delay is honoured
    once the handshake is confirmed (RFC 9002 Section 5.3).
    """

    max_ack_delay_ms: float = 25.0
    latest_rtt_ms: float | None = None
    min_rtt_ms: float | None = None
    smoothed_rtt_ms: float = _INITIAL_RTT_MS
    rttvar_ms: float = _INITIAL_RTT_MS / 2.0
    _has_sample: bool = False

    def on_ack_received(
        self,
        now_ms: float,
        send_time_ms: float,
        ack_delay_ms: float,
        handshake_confirmed: bool = True,
    ) -> RttSample:
        """Process an acknowledgment of a packet sent at ``send_time_ms``.

        Returns the sample as an :class:`RttSample`; the estimator keeps
        none, only the four estimates.  Follows RFC 9002 5.3: ``min_rtt``
        ignores ack delay; the smoothed estimate subtracts the (possibly
        clamped) ack delay only when doing so does not push the sample
        below ``min_rtt``.
        """
        if now_ms < send_time_ms:
            raise ValueError("acknowledgment cannot precede the send time")
        latest = now_ms - send_time_ms
        self.latest_rtt_ms = latest

        if self.min_rtt_ms is None or latest < self.min_rtt_ms:
            self.min_rtt_ms = latest

        delay = max(ack_delay_ms, 0.0)
        if handshake_confirmed:
            delay = min(delay, self.max_ack_delay_ms)
        adjusted = latest
        if latest >= self.min_rtt_ms + delay:
            adjusted = latest - delay

        if not self._has_sample:
            self.smoothed_rtt_ms = adjusted
            self.rttvar_ms = adjusted / 2.0
            self._has_sample = True
        else:
            deviation = abs(self.smoothed_rtt_ms - adjusted)
            self.rttvar_ms = 0.75 * self.rttvar_ms + 0.25 * deviation
            self.smoothed_rtt_ms = 0.875 * self.smoothed_rtt_ms + 0.125 * adjusted

        return RttSample(
            time_ms=now_ms,
            latest_rtt_ms=latest,
            adjusted_rtt_ms=adjusted,
            ack_delay_ms=delay,
        )
