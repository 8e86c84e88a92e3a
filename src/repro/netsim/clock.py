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
    """Monotonically advancing simulated time in milliseconds.

    ``now_ms`` is a plain attribute, read on every packet: the event loop
    sets it directly (its queue never yields a past event, because
    scheduling into the past is refused), everything else moves it with
    :meth:`advance_to`.
    """

    __slots__ = ("now_ms",)

    def __init__(self, start_ms: float = 0.0):
        self.now_ms = float(start_ms)

    def advance_to(self, time_ms: float) -> None:
        """Move the clock forward to ``time_ms``; never backwards."""
        if time_ms < self.now_ms:
            raise ValueError(
                f"clock cannot move backwards: {time_ms} < {self.now_ms}"
            )
        self.now_ms = time_ms
