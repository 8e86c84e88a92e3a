"""Spin-bit endpoint behaviour (RFC 9000 Section 17.4, RFC 9312).

Two layers live here:

* the **wire mechanism** — :class:`SpinBitState` implements the exact
  client (invert) and server (reflect) rules keyed on the highest
  received packet number; and
* the **deployment policy** — :class:`SpinPolicy` /
  :class:`SpinDeploymentConfig` capture how real stacks decide what to
  put in the bit: participate, fix it at zero or one, or grease it
  per packet / per connection, plus the RFC 9000 "MUST disable on at
  least one in every 16 connections" rule (one in eight per RFC 9312).

The adoption and configuration analyses (Tables 1-4, Figure 2 of the
paper) are entirely about which of these policies servers run.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from enum import Enum

__all__ = [
    "EndpointRole",
    "SpinBitState",
    "SpinDeploymentConfig",
    "SpinPolicy",
    "resolve_connection_policy",
]


class EndpointRole(Enum):
    """Which side of the connection an endpoint plays."""

    CLIENT = "client"
    SERVER = "server"


class SpinPolicy(Enum):
    """Per-connection spin-bit behaviour of one endpoint.

    ``SPIN`` is active participation; the remaining values are the
    disabling strategies RFC 9000/9312 discuss and the paper classifies
    in Table 3 (All Zero / All One / greasing).
    """

    SPIN = "spin"
    ALWAYS_ZERO = "always_zero"
    ALWAYS_ONE = "always_one"
    GREASE_PER_PACKET = "grease_per_packet"
    GREASE_PER_CONNECTION = "grease_per_connection"

    @property
    def participates(self) -> bool:
        return self is SpinPolicy.SPIN


class SpinBitState:
    """The RFC 9000 spin-bit state machine for one endpoint.

    A client inverts the spin value of the highest-numbered packet it
    has received; a server reflects it.  The state machine is driven by
    *reconstructed* packet numbers, so reordered packets with lower
    numbers never move the state backwards — this is precisely why
    reordering only corrupts *observer* measurements (Fig. 1b of the
    paper), not the endpoints' signal generation.
    """

    __slots__ = (
        "role",
        "policy",
        "_rng",
        "_current_value",
        "_largest_received_pn",
        "_connection_value",
    )

    def __init__(self, role: EndpointRole, policy: SpinPolicy, rng: random.Random | None = None):
        self.role = role
        self.policy = policy
        self._rng = rng
        if policy in (SpinPolicy.GREASE_PER_PACKET, SpinPolicy.GREASE_PER_CONNECTION):
            if rng is None:
                raise ValueError(f"policy {policy.value} requires an rng")
        self._current_value = False
        self._largest_received_pn: int | None = None
        if policy is SpinPolicy.GREASE_PER_CONNECTION:
            self._connection_value = bool(self._rng.getrandbits(1))

    def on_packet_received(self, packet_number: int, spin_bit: bool) -> None:
        """Update state from an incoming 1-RTT packet.

        Only packets with a packet number larger than every previously
        processed one change the state (RFC 9000 17.4).
        """
        if self._largest_received_pn is not None and packet_number <= self._largest_received_pn:
            return
        self._largest_received_pn = packet_number
        if self.role is EndpointRole.CLIENT:
            self._current_value = not spin_bit
        else:
            self._current_value = spin_bit

    def outgoing_value(self) -> bool:
        """The spin-bit value to place on the next outgoing 1-RTT packet."""
        if self.policy is SpinPolicy.SPIN:
            return self._current_value
        if self.policy is SpinPolicy.ALWAYS_ZERO:
            return False
        if self.policy is SpinPolicy.ALWAYS_ONE:
            return True
        if self.policy is SpinPolicy.GREASE_PER_PACKET:
            return bool(self._rng.getrandbits(1))
        return self._connection_value


@dataclass(frozen=True, slots=True)
class SpinDeploymentConfig:
    """How a deployment (server stack or client build) treats the spin bit.

    ``base_policy`` applies to connections where the mechanism is
    enabled.  When ``base_policy`` participates, RFC 9000 requires the
    endpoint to disable the bit on at least one in every
    ``disable_one_in_n`` connections (16 per RFC 9000; 8 per RFC 9312);
    on such connections the endpoint falls back to
    ``disabled_policy``.  Stacks that never implement the spin bit use a
    non-participating ``base_policy`` and ``disable_one_in_n = None``.
    """

    base_policy: SpinPolicy
    disable_one_in_n: int | None = 16
    disabled_policy: SpinPolicy = SpinPolicy.ALWAYS_ZERO

    def __post_init__(self) -> None:
        if self.base_policy.participates:
            if self.disable_one_in_n is not None and self.disable_one_in_n < 1:
                raise ValueError("disable_one_in_n must be >= 1")
            if self.disabled_policy.participates:
                raise ValueError("disabled_policy must not participate")
        if not self.base_policy.participates and self.disable_one_in_n is not None:
            # A non-spinning deployment has nothing to disable.
            object.__setattr__(self, "disable_one_in_n", None)

    @property
    def ever_spins(self) -> bool:
        """Whether any connection of this deployment can show spin activity."""
        return self.base_policy.participates

    def expected_spin_share(self) -> float:
        """Expected fraction of connections with an *enabled* spin bit."""
        if not self.base_policy.participates:
            return 0.0
        if self.disable_one_in_n is None:
            return 1.0
        return 1.0 - 1.0 / self.disable_one_in_n


def resolve_connection_policy(
    config: SpinDeploymentConfig, rng: random.Random
) -> SpinPolicy:
    """Sample the effective policy for one new connection.

    Implements the per-connection 1-in-N disable draw that Figure 2 of
    the paper probes longitudinally.
    """
    if not config.base_policy.participates:
        return config.base_policy
    if config.disable_one_in_n is not None and rng.random() < 1.0 / config.disable_one_in_n:
        return config.disabled_policy
    return config.base_policy
