"""Bounded retries with deterministic exponential backoff + jitter.

Real scanners back off in wall-clock time; this reproduction banks the
backoff against the domain's *simulated* time budget instead (the
determinism lint bans ``time.sleep`` under ``src/``).  Jitter draws come
from the calling domain's measurement stream, so a retry schedule is a
pure function of ``(seed, week, ip_version, domain, probe)`` — identical
at any ``--workers`` count.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

__all__ = ["RetryPolicy"]


@dataclass(frozen=True)
class RetryPolicy:
    """Shape of the per-connection retry loop.

    ``max_attempts`` counts the first try; ``jitter_fraction`` adds up
    to that fraction of the backoff on top (decorrelating retry storms
    without making schedules seed-dependent beyond the domain stream).
    """

    max_attempts: int = 3
    base_delay_ms: float = 200.0
    multiplier: float = 2.0
    max_delay_ms: float = 5_000.0
    jitter_fraction: float = 0.1

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.base_delay_ms < 0 or self.max_delay_ms < 0:
            raise ValueError("backoff delays must be non-negative")
        if self.multiplier < 1.0:
            raise ValueError("backoff multiplier must be >= 1")
        if not 0.0 <= self.jitter_fraction <= 1.0:
            raise ValueError("jitter_fraction must be in [0, 1]")

    def delay_ms(self, retry_index: int, rng: random.Random) -> float:
        """Backoff before retry ``retry_index`` (0 = first retry)."""
        delay = min(
            self.base_delay_ms * self.multiplier**retry_index, self.max_delay_ms
        )
        if self.jitter_fraction:
            delay += delay * self.jitter_fraction * rng.random()
        return delay
