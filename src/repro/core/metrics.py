"""Accuracy metrics of Section 5.1.

For each connection the paper compares the mean of the spin-bit RTT
estimates (*spin*) with the mean of the QUIC stack's estimates (*QUIC*):

1. **Absolute accuracy** — ``abs = spin - QUIC`` (milliseconds;
   Figure 3).
2. **Relative accuracy** — the ratio of the means, always dividing by
   the smaller one and negating when ``spin < QUIC`` (Figure 4).  A
   value of +1.0 means exact agreement; +3.0 means the spin bit
   overestimates threefold; -2.0 means it underestimates twofold.
"""

from __future__ import annotations

from math import inf
from typing import NamedTuple, Sequence

__all__ = [
    "AccuracyResult",
    "compare_means",
    "mapped_ratio",
    "mean_accuracy",
]


def mapped_ratio(spin_mean_ms: float, quic_mean_ms: float) -> float:
    """Figure 4's metric: ratio of means, sign-mapped.

    Divides the larger mean by the smaller and negates the result when
    the spin bit underestimates.  Both inputs must be positive: RTT
    means of real connections are.  Exact equality maps to +1.0.
    """
    if spin_mean_ms <= 0 or quic_mean_ms <= 0:
        raise ValueError("RTT means must be positive")
    if spin_mean_ms >= quic_mean_ms:
        return spin_mean_ms / quic_mean_ms
    return -(quic_mean_ms / spin_mean_ms)


def mean_accuracy(
    rtts_ms: Sequence[float], quic_mean_ms: float
) -> tuple[float, float] | None:
    """``(absolute_ms, ratio)`` of a spin RTT series against a stack mean
    in ``(0, inf)`` — or ``None`` when the series has no such mean itself:
    empty, all-zero intervals, a sum that underflows to a zero mean, NaN
    or infinity off a damaged column.  The one test of a mean the
    analysis folds rely on.
    """
    spin_mean_ms = sum(rtts_ms) / len(rtts_ms) if rtts_ms else 0.0
    if 0.0 < spin_mean_ms < inf:
        return spin_mean_ms - quic_mean_ms, mapped_ratio(spin_mean_ms, quic_mean_ms)
    return None


class AccuracyResult(NamedTuple):
    """Both per-connection accuracy metrics plus their inputs.

    What :func:`compare_means` hands a caller looking at one connection
    (``repro demo``, the long-flow study); the analysis folds count
    ``(absolute_ms, ratio)`` pairs and never build one.
    """

    spin_mean_ms: float
    quic_mean_ms: float
    absolute_ms: float
    ratio: float


def compare_means(
    spin_rtts_ms: Sequence[float], stack_rtts_ms: Sequence[float]
) -> AccuracyResult:
    """Compute the per-connection accuracy record of Section 5.1.

    Raises :class:`ValueError` when either series is empty — callers
    filter such connections out of the accuracy analysis first.
    """
    if not spin_rtts_ms:
        raise ValueError("no spin-bit RTT samples")
    if not stack_rtts_ms:
        raise ValueError("no stack RTT samples")
    spin_mean_ms = sum(spin_rtts_ms) / len(spin_rtts_ms)
    quic_mean_ms = sum(stack_rtts_ms) / len(stack_rtts_ms)
    return AccuracyResult(
        spin_mean_ms,
        quic_mean_ms,
        spin_mean_ms - quic_mean_ms,
        mapped_ratio(spin_mean_ms, quic_mean_ms),
    )
