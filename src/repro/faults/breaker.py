"""Per-provider circuit breaker over scan results in population order.

A breaker with live cross-domain state inside the scan loop would make
results depend on shard boundaries (worker N sees a different failure
prefix than the sequential scan), so the breaker runs *after* the scan,
where results are emitted: :class:`BreakerPass` is fed every result in
population order, keyed by provider, and answers skipped domains with a
copy carrying one synthesized ``circuit_open`` record.  Same inputs,
same order, same output — at any ``--workers`` count, and identically on
a checkpoint resume (shard checkpoints store pre-breaker results).

Schedules are counted in *attempts*, not wall-clock: after
``failure_threshold`` consecutive failing domains the breaker opens and
skips the provider's next ``cooldown_attempts`` domains, then half-opens
— one probe domain is allowed through; its success closes the breaker,
its failure re-opens it for another cooldown.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Callable

from repro.faults.taxonomy import FailureKind
from repro.telemetry import Telemetry

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.web.scanner import DomainScanResult

__all__ = ["BreakerPass", "BreakerPolicy", "CircuitBreaker", "apply_circuit_breaker"]


@dataclass(frozen=True)
class BreakerPolicy:
    """When a provider's breaker trips and how long it stays open."""

    failure_threshold: int = 5
    cooldown_attempts: int = 20

    def __post_init__(self) -> None:
        if self.failure_threshold < 1:
            raise ValueError("failure_threshold must be >= 1")
        if self.cooldown_attempts < 1:
            raise ValueError("cooldown_attempts must be >= 1")


class CircuitBreaker:
    """One provider's breaker state machine (closed → open → half-open)."""

    def __init__(self, policy: BreakerPolicy):
        self.policy = policy
        self._consecutive_failures = 0
        self._skips_remaining = 0
        self._half_open = False
        self.trips = 0
        self.skipped = 0

    @property
    def is_open(self) -> bool:
        return self._skips_remaining > 0

    def allows(self) -> bool:
        """Whether the next attempt may proceed; counts a skip if not."""
        if self._skips_remaining > 0:
            self._skips_remaining -= 1
            self.skipped += 1
            if self._skips_remaining == 0:
                self._half_open = True
            return False
        return True

    def record(self, success: bool) -> None:
        """Feed the outcome of an allowed attempt back into the breaker."""
        if success:
            self._consecutive_failures = 0
            self._half_open = False
            return
        if self._half_open:
            # The half-open probe failed: straight back to open.
            self._half_open = False
            self._open()
            return
        self._consecutive_failures += 1
        if self._consecutive_failures >= self.policy.failure_threshold:
            self._open()

    def _open(self) -> None:
        self.trips += 1
        self._consecutive_failures = 0
        self._skips_remaining = self.policy.cooldown_attempts


def _short_circuited(result: "DomainScanResult") -> "DomainScanResult":
    """A copy of a skipped domain whose connections are one breaker record.

    A copy, never an in-place edit: the scanned result may still be on
    its way to a checkpoint shard, which must hold pre-breaker results.
    """
    from repro.core.classify import classify_connection
    from repro.core.observer import SpinObservation
    from repro.web.scanner import ConnectionRecord

    template = result.connections[0]
    observation = SpinObservation()
    record = ConnectionRecord(
        domain=template.domain,
        host=template.host,
        ip=template.ip,
        ip_version=template.ip_version,
        provider_name=template.provider_name,
        server_header=None,
        status=None,
        success=False,
        behaviour=classify_connection(observation, []),
        observation=observation,
        stack_rtts_ms=[],
        failure=FailureKind.CIRCUIT_OPEN,
        week=template.week,
    )
    return replace(
        result,
        connections=[record],
        quic_support=False,
        failure=FailureKind.CIRCUIT_OPEN,
    )


class BreakerPass:
    """The per-key breakers of one scan, fed results in population order.

    Forward-only: :meth:`step` needs nothing but the results before it,
    so the scan stream applies it as results are emitted and never holds
    the merged list.  Domains without connection attempts (unresolved,
    no QUIC stack) carry no signal and pass through untouched.
    """

    def __init__(
        self, policy: BreakerPolicy, key_of: Callable[["DomainScanResult"], str]
    ):
        self.policy = policy
        self.key_of = key_of
        self.breakers: dict[str, CircuitBreaker] = {}

    def step(self, result: "DomainScanResult") -> "DomainScanResult":
        """``result``, or its short-circuited copy behind an open breaker."""
        if not result.connections:
            return result
        key = self.key_of(result)
        breaker = self.breakers.get(key)
        if breaker is None:
            breaker = self.breakers[key] = CircuitBreaker(self.policy)
        if not breaker.allows():
            return _short_circuited(result)
        breaker.record(any(c.success for c in result.connections))
        return result

    def flush(self, telemetry) -> None:
        """Report trip and skip totals; once, at the end of the stream."""
        for key in sorted(self.breakers):
            breaker = self.breakers[key]
            if breaker.trips:
                telemetry.registry.counter(
                    "scan.breaker_trips", provider=key
                ).inc(breaker.trips)
            if breaker.skipped:
                telemetry.registry.counter(
                    "scan.breaker_skipped", provider=key
                ).inc(breaker.skipped)


def apply_circuit_breaker(
    results: list["DomainScanResult"],
    policy: BreakerPolicy,
    key_of: Callable[["DomainScanResult"], str],
    telemetry=None,
) -> dict[str, CircuitBreaker]:
    """Run a whole :class:`BreakerPass` over a merged result list.

    Skipped entries of ``results`` are replaced by their short-circuited
    copies.  Returns the per-key breakers so callers can inspect trip
    counts.
    """
    run = BreakerPass(policy, key_of)
    results[:] = [run.step(result) for result in results]
    run.flush(Telemetry.resolve(telemetry))
    return run.breakers
