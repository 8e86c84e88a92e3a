"""Delay distributions for paths and end hosts.

The paper attributes the spin bit's large RTT overestimations to
*end-host delays* — chiefly the time a web server spends producing the
response — while the network contributes propagation delay and jitter.
Each distribution here is a small object with a ``sample(rng)`` method
returning milliseconds, so path models and server profiles can be
composed declaratively and remain deterministic under a seeded RNG.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

__all__ = [
    "ConstantDelay",
    "DelayModel",
    "LogNormalDelay",
    "UniformDelay",
]


class DelayModel:
    """Base class: a non-negative delay distribution in milliseconds."""

    def sample(self, rng: random.Random) -> float:  # pragma: no cover - abstract
        raise NotImplementedError

    def mean_ms(self) -> float:  # pragma: no cover - abstract
        """Expected value (the shard cost model's pace of a path)."""
        raise NotImplementedError


@dataclass(frozen=True)
class ConstantDelay(DelayModel):
    """A fixed delay."""

    value_ms: float

    def __post_init__(self) -> None:
        if self.value_ms < 0:
            raise ValueError("delay must be non-negative")

    def sample(self, rng: random.Random) -> float:
        return self.value_ms


@dataclass(frozen=True)
class UniformDelay(DelayModel):
    """Uniform delay on [low_ms, high_ms] — the default jitter model."""

    low_ms: float
    high_ms: float

    def __post_init__(self) -> None:
        if self.low_ms < 0 or self.high_ms < self.low_ms:
            raise ValueError(f"invalid uniform range [{self.low_ms}, {self.high_ms}]")

    def sample(self, rng: random.Random) -> float:
        return rng.uniform(self.low_ms, self.high_ms)

    def mean_ms(self) -> float:
        return (self.low_ms + self.high_ms) / 2.0


@dataclass(frozen=True)
class LogNormalDelay(DelayModel):
    """Log-normal delay — the canonical model for server think time.

    Parameterized by the *median* and the log-space sigma, which is the
    natural way to express "typically ~40 ms, occasionally seconds":
    the heavy upper tail is what produces the paper's >3x spin-bit
    overestimations at connection start.
    """

    median_ms: float
    sigma: float

    def __post_init__(self) -> None:
        if self.median_ms <= 0:
            raise ValueError("median must be positive")
        if self.sigma < 0:
            raise ValueError("sigma must be non-negative")

    def sample(self, rng: random.Random) -> float:
        return rng.lognormvariate(math.log(self.median_ms), self.sigma)
