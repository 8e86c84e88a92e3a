"""Internal utilities shared across the :mod:`repro` package.

These helpers are deliberately small and dependency-free: deterministic
random-number handling, whole-file replacement, and statistics primitives
used by both the simulator and the analysis pipeline.
"""

from repro._util.histogram import LogHistogram
from repro._util.rng import derive_rng, fork_rng
from repro._util.stats import (
    Histogram,
    binomial_pmf,
    percentile,
    weighted_choice,
)

__all__ = [
    "Histogram",
    "LogHistogram",
    "binomial_pmf",
    "derive_rng",
    "fork_rng",
    "percentile",
    "weighted_choice",
]
