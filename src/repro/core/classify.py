"""Spin-behaviour classification (Table 3 of the paper).

Each QUIC connection — and, aggregated over its connections, each
domain — falls into one of four observable categories:

* **ALL_ZERO** — every received 1-RTT packet carried spin value 0 (the
  dominant way of leaving the bit unused);
* **ALL_ONE** — every packet carried 1;
* **SPIN** — both values occurred and the samples pass the grease
  filter: the connection plausibly participates in the mechanism;
* **GREASE** — both values occurred but at least one spin RTT estimate
  undercuts the stack's minimum RTT, indicating per-packet greasing.

The classification is purely observational: a per-connection-greasing
endpoint is indistinguishable from ALL_ZERO / ALL_ONE on a single
connection, which is exactly the ambiguity the paper notes.
"""

from __future__ import annotations

from enum import Enum
from typing import Sequence

from repro.core.grease_filter import is_greasing
from repro.core.observer import SpinObservation

__all__ = ["SpinBehaviour", "classify_connection", "classify_domain"]


class SpinBehaviour(Enum):
    """Observable spin-bit behaviour of one connection or domain."""

    ALL_ZERO = "all_zero"
    ALL_ONE = "all_one"
    SPIN = "spin"
    GREASE = "grease"
    NO_PACKETS = "no_packets"


def classify_connection(
    observation: SpinObservation, stack_rtts_ms: Sequence[float]
) -> SpinBehaviour:
    """Classify one connection from its observation and stack RTTs."""
    if observation.packets_seen == 0:
        return SpinBehaviour.NO_PACKETS
    if observation.all_zero:
        return SpinBehaviour.ALL_ZERO
    if observation.all_one:
        return SpinBehaviour.ALL_ONE
    if is_greasing(observation.rtts_received_ms, stack_rtts_ms):
        return SpinBehaviour.GREASE
    return SpinBehaviour.SPIN


def classify_domain(connection_behaviours: Sequence[SpinBehaviour]) -> SpinBehaviour:
    """Aggregate a domain's connections into one domain-level category.

    Mirrors the paper's domain view: a domain counts as *Spin* when at
    least one of its connections shows unfiltered spin activity; as
    *Grease* when activity exists but every active connection was
    filtered; otherwise by the constant value its connections used.
    """
    behaviours = [b for b in connection_behaviours if b is not SpinBehaviour.NO_PACKETS]
    if not behaviours:
        return SpinBehaviour.NO_PACKETS
    if any(b is SpinBehaviour.SPIN for b in behaviours):
        return SpinBehaviour.SPIN
    if any(b is SpinBehaviour.GREASE for b in behaviours):
        return SpinBehaviour.GREASE
    if all(b is SpinBehaviour.ALL_ONE for b in behaviours):
        return SpinBehaviour.ALL_ONE
    if all(b is SpinBehaviour.ALL_ZERO for b in behaviours):
        return SpinBehaviour.ALL_ZERO
    # Mixed constants across connections: per-connection greasing with a
    # fixed value each time.  The paper's domain table counts these with
    # the zero-dominated group; we keep them distinguishable as GREASE.
    return SpinBehaviour.GREASE
