"""Simulated wall clock.

Every component of the simulation reads time from a shared
:class:`SimClock` owned by the event loop; nothing ever consults the
real system clock, which keeps runs deterministic and allows the
campaign scheduler to pretend a measurement happened in a given
calendar week.
"""

from __future__ import annotations

__all__ = ["SimClock"]


class SimClock:
    """Monotonically advancing simulated time in milliseconds."""

    def __init__(self, start_ms: float = 0.0):
        self._now_ms = float(start_ms)

    @property
    def now_ms(self) -> float:
        """Current simulated time in milliseconds."""
        return self._now_ms

    def advance_to(self, time_ms: float) -> None:
        """Move the clock forward to ``time_ms``; never backwards."""
        if time_ms < self._now_ms:
            raise ValueError(
                f"clock cannot move backwards: {time_ms} < {self._now_ms}"
            )
        self._now_ms = time_ms
