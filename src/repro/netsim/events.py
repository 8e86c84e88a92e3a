"""Discrete-event simulation core.

A minimal, fast event loop: callbacks are scheduled at absolute
simulated times and executed in time order (FIFO among equal
timestamps).  Endpoints, paths, and application models all interact
exclusively by scheduling events, so a whole HTTP/3-over-QUIC exchange
— including jitter, loss, reordering, and server think time — runs as a
single deterministic event cascade.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Callable

from repro.netsim.clock import SimClock
from repro.telemetry import resolve_registry

__all__ = ["Simulator"]


class Simulator:
    """Event queue plus clock; the spine of every simulated measurement.

    ``metrics`` binds the simulator to a telemetry registry
    (:mod:`repro.telemetry`; ``None``: the off registry): each ``run`` /
    ``run_until`` exports, as it returns or raises, the events it
    dispatched and the queue's high-water mark (a max-aggregated gauge).
    The bookkeeping itself is wall-clock free, so the exported values are
    deterministic functions of the simulation.

    Besides events the queue knows *deadlines* (:meth:`deadline`): times
    an owner keeps itself — the QUIC endpoint's probe and delayed-ACK
    deadlines, most of which never act — so that it schedules an event
    only for the one that can.  A deadline behaves as an event that runs
    nothing: it keeps the queue pending and the clock reaches it when a
    run passes it, but it is never dispatched or counted.
    """

    def __init__(self, start_ms: float = 0.0, metrics=None):
        self.clock = SimClock(start_ms)
        self._queue: list[tuple[float, int, Callable[[], None]]] = []
        #: Deadlines not yet passed (a heap of times).
        self._deadlines: list[float] = []
        #: Monotone tiebreaker for FIFO among equal timestamps; a plain
        #: int avoids one generator frame per scheduled event.
        self._sequence = 0
        #: Largest queue length ever reached (always tracked; exporting
        #: it costs nothing beyond one compare per schedule).
        self.queue_high_water = 0
        metrics = resolve_registry(metrics)
        self._m_events = metrics.counter("netsim.events_dispatched")
        self._m_high_water = metrics.gauge("netsim.queue_high_water", agg="max")

    @property
    def now_ms(self) -> float:
        """Current simulated time in milliseconds."""
        return self.clock.now_ms

    @property
    def pending_events(self) -> int:
        """Number of events and deadlines not yet executed or passed."""
        return len(self._queue) + len(self._deadlines)

    @property
    def next_event_time_ms(self) -> float | None:
        """Timestamp of the earliest pending event or deadline; ``None``
        when idle.

        Lets incremental consumers (``run_until`` loops) place their
        next deadline relative to actual upcoming work instead of
        stepping through empty stretches of simulated time.
        """
        heads = [self._queue[0][0]] if self._queue else []
        heads += self._deadlines[:1]
        return min(heads, default=None)

    def schedule(self, delay_ms: float, callback: Callable[[], None]) -> None:
        """Run ``callback`` ``delay_ms`` milliseconds from now."""
        if delay_ms < 0:
            raise ValueError(f"cannot schedule into the past: delay {delay_ms}")
        self.schedule_at(self.clock.now_ms + delay_ms, callback)

    def schedule_at(
        self, time_ms: float, callback: Callable[[], None], rank: int | None = None
    ) -> None:
        """Run ``callback`` at absolute simulated time ``time_ms``.

        ``rank`` is a FIFO rank taken earlier by :meth:`deadline` (each
        is scheduled at most once); by default the event ranks after
        every one scheduled so far.
        """
        if time_ms < self.clock.now_ms:
            raise ValueError(
                f"cannot schedule into the past: {time_ms} < {self.clock.now_ms}"
            )
        if rank is None:
            rank = self._sequence
            self._sequence = rank + 1
        heappush(self._queue, (time_ms, rank, callback))
        if len(self._queue) > self.queue_high_water:
            self.queue_high_water = len(self._queue)

    def deadline(self, time_ms: float) -> int:
        """Note a deadline at ``time_ms``; returns its FIFO rank.

        The deadline stands for the event an owner would have scheduled
        here.  Should the deadline act after all, the owner passes the
        rank to :meth:`schedule_at`, and its callback runs exactly where
        that event would have among equal timestamps.
        """
        if time_ms < self.clock.now_ms:
            raise ValueError(
                f"cannot schedule into the past: {time_ms} < {self.clock.now_ms}"
            )
        heappush(self._deadlines, time_ms)
        sequence = self._sequence
        self._sequence = sequence + 1
        return sequence

    def clear(self) -> None:
        """Drop every pending event and deadline.

        Queued callbacks hold their owners and the owners hold the
        simulator: an owner that stops a run for good (a timeout, a
        consumer that reads no further) clears the queue, so that
        neither waits for the garbage collector.
        """
        self._queue.clear()
        self._deadlines.clear()

    def run(self, max_events: int = 1_000_000) -> int:
        """Execute events until the queue drains.

        Returns the number of events executed.  ``max_events`` is a
        runaway guard: a simulation that exceeds it raises, because a
        correct scan of one connection needs at most a few hundred
        events.
        """
        return self.run_until(float("inf"), max_events, settle=False)

    def run_until(
        self, deadline_ms: float, max_events: int = 1_000_000, settle: bool = True
    ) -> int:
        """Execute events with timestamps up to ``deadline_ms`` inclusive.

        With ``settle`` (the default) the clock advances to the deadline
        even when the queue drains early; ``settle=False`` leaves the
        clock at the last executed event or passed deadline, so a caller
        imposing a timeout budget can tell "finished early" apart from
        "deadline reached" without distorting the simulated end time.
        Each event sets the clock to its own timestamp: the queue never
        holds one in the past.
        """
        executed = 0
        queue = self._queue
        clock = self.clock
        try:
            while queue and queue[0][0] <= deadline_ms:
                if executed >= max_events:
                    raise RuntimeError(f"simulation exceeded {max_events} events")
                time_ms, _, callback = heappop(queue)
                clock.now_ms = time_ms
                callback()
                executed += 1
            deadlines = self._deadlines
            if deadlines and deadlines[0] <= deadline_ms:
                passed = max(deadlines)
                if passed <= deadline_ms:
                    deadlines.clear()  # a drained run passes them all
                else:
                    while deadlines[0] <= deadline_ms:
                        passed = heappop(deadlines)
                if passed > clock.now_ms:
                    clock.advance_to(passed)
            if settle and clock.now_ms < deadline_ms:
                clock.advance_to(deadline_ms)
        finally:
            self._export_metrics(executed)
        return executed

    def _export_metrics(self, executed: int) -> None:
        """Copy this run's counts into the bound registry."""
        self._m_events.inc(executed)
        self._m_high_water.set_max(self.queue_high_water)
