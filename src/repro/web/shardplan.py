"""Shard planning for the scan stream.

The scan path cuts the target list into fixed ``chunk``-sized ranges —
``plan_shards(n, chunk)`` — so a shard's ordinal names the same domains
in every run, whatever the worker count: the layout a
:class:`~repro.faults.checkpoint.CheckpointStore` needs to resume.

Cost-aware planning is no longer on that path.  Pricing every domain
(the scanner's own derived fault stream, provider delay) to balance
shard boundaries and dispatch longest-first did not beat plain ordinal
dispatch on any measured workload, so the scheduler that used it is
gone.  :class:`ShardCostModel` and ``plan_shards(cost_of=...)`` remain
only because the benchmark times them (``bench/layers.py``,
``web.plan_shards_ms``); they leave with that metric.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.internet.population import DomainRecord, Population
    from repro.web.scanner import ScanConfig

__all__ = ["ShardCostModel", "ShardRange", "plan_shards"]

#: Relative cost of one domain that fails to resolve (one RNG draw).
_COST_UNRESOLVED = 0.05
#: Resolved but QUIC-less: DNS plus provider lookups, no simulation.
_COST_NO_QUIC = 0.3
#: A blackholed connection runs the simulator to its timeout budget.
_COST_BLACKHOLE = 5.0
#: Resets and VN dead-ends abort mid-exchange (and may retry).
_COST_ABORTED_EXCHANGE = 0.8


@dataclass(frozen=True)
class ShardRange:
    """One contiguous slice of the target list.

    ``index`` is the shard's ordinal: its emission position and, under
    a checkpoint, its shard-file number.
    """

    index: int
    start: int
    count: int
    cost: float

    @property
    def stop(self) -> int:
        return self.start + self.count


class ShardCostModel:  # the benchmark is its only caller
    """Deterministic per-domain scan-cost estimates.

    The provider component is cached per provider name (mean
    propagation delay stretches every simulated round trip); the fault
    component replays the scanner's own per-domain fault draw — derived
    from ``(seed, "scan", week, ip_version, domain, probe, "faults")``,
    never from the measurement stream — so pricing a domain cannot
    perturb its measurement.
    """

    def __init__(
        self,
        population: "Population",
        config: "ScanConfig",
        week_label: str,
        ip_version: int,
        probe: int,
    ) -> None:
        from repro._util.rng import SeedPrefix

        self._population = population
        self._ip_version = ip_version
        self._probe = probe
        self._provider_cost: dict[str, float] = {}
        faults = config.faults
        self._faults = faults if faults is not None and not faults.is_empty else None
        self._retry_attempts = 1
        if config.resilience is not None and config.resilience.retry is not None:
            self._retry_attempts = config.resilience.retry.max_attempts
        self._seed_prefix = (
            SeedPrefix(population.config.seed, "scan", week_label, ip_version)
            if self._faults is not None
            else None
        )

    def domain_cost(self, domain: "DomainRecord") -> float:
        if self._population.resolved_ip(domain, self._ip_version) is None:
            return _COST_UNRESOLVED
        if not domain.quic_enabled:
            return _COST_NO_QUIC
        cost = self._base_exchange_cost(domain.provider_name)
        if self._faults is not None:
            cost += self._fault_cost(domain.name)
        return cost

    def _base_exchange_cost(self, provider_name: str | None) -> float:
        cached = self._provider_cost.get(provider_name)
        if cached is None:
            from repro.internet.population import _provider

            provider = _provider(provider_name)
            # A slow path stretches the exchange: more simulated time,
            # more timer events.  50 ms one-way is the reference pace.
            cached = 1.0 + provider.propagation_delay.mean_ms() / 50.0
            self._provider_cost[provider_name] = cached
        return cached

    def _fault_cost(self, domain_name: str) -> float:
        drawn = self._faults.draw(
            self._seed_prefix.derive(domain_name, self._probe, "faults")
        )
        if not drawn.any_active:
            return 0.0
        cost = 0.0
        retries = float(self._retry_attempts)
        if drawn.blackhole:
            cost += _COST_BLACKHOLE * retries
        if drawn.reset_after_packets is not None:
            cost += _COST_ABORTED_EXCHANGE * retries
        if drawn.vn_failure:
            cost += _COST_ABORTED_EXCHANGE * retries
        cost += drawn.handshake_stall_ms / 1000.0
        cost += drawn.slow_server_stall_ms / 1000.0
        if drawn.loss_burst is not None:
            cost += 0.5  # retransmission flights
        return cost


def plan_shards(
    n_targets: int,
    chunk: int,
    cost_of: Callable[[int], float] | None = None,
    fixed: bool = False,
) -> list[ShardRange]:
    """Cut ``n_targets`` domains into ``ceil(n / chunk)`` shard ranges.

    With ``fixed=True`` (or no cost function) boundaries fall every
    ``chunk`` domains — what the scan stream always asks for.  With a
    ``cost_of`` (the benchmark is the only caller that passes one)
    boundaries equalize total cost: each shard closes once it
    reaches the average per-shard cost, subject to leaving at least one
    domain for every remaining shard.  Pure function of its inputs —
    worker count and completion timing never move a boundary.
    """
    if n_targets == 0:
        return []
    n_shards = -(-n_targets // chunk)
    if fixed or cost_of is None or n_shards == 1:
        return _fixed_plan(n_targets, chunk, cost_of)
    costs = [cost_of(i) for i in range(n_targets)]
    budget = sum(costs) / n_shards
    shards: list[ShardRange] = []
    start = 0
    acc = 0.0
    for i in range(n_targets):
        acc += costs[i]
        shards_left = n_shards - len(shards)
        domains_left_after = n_targets - (i + 1)
        if shards_left > 1 and (
            domains_left_after == shards_left - 1
            or (acc >= budget and domains_left_after >= shards_left - 1)
        ):
            shards.append(
                ShardRange(
                    index=len(shards), start=start, count=i + 1 - start, cost=acc
                )
            )
            start = i + 1
            acc = 0.0
    shards.append(
        ShardRange(
            index=len(shards), start=start, count=n_targets - start, cost=acc
        )
    )
    return shards


def _fixed_plan(
    n_targets: int,
    chunk: int,
    cost_of: Callable[[int], float] | None,
) -> list[ShardRange]:
    shards = []
    for index, start in enumerate(range(0, n_targets, chunk)):
        stop = min(start + chunk, n_targets)
        cost = (
            sum(cost_of(i) for i in range(start, stop))
            if cost_of is not None
            else float(stop - start)
        )
        shards.append(
            ShardRange(index=index, start=start, count=stop - start, cost=cost)
        )
    return shards
