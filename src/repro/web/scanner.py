"""The zgrab2-equivalent HTTP/3 scanner (Section 3.2 of the paper).

For every domain of the target population the scanner prepends ``www.``,
attempts an HTTP/3 fetch of the landing page, follows up to three
redirects (each redirect is a *new* QUIC connection, re-rolling the
server's per-connection spin decision), and captures a per-connection
trace.  The trace is immediately reduced to the per-connection record
the paper's released artifact contains — spin observation, spin-bit RTT
series (received and sorted order), stack RTT estimates, behaviour
classification — so large scans stay memory-bounded; full qlog capture
is available for a sampled subset.
"""

from __future__ import annotations

import random
import sys
import time
from dataclasses import dataclass, field, replace
from itertools import islice
from typing import Iterator, Sequence

from repro._util.rng import SeedPrefix, fork_rng
from repro.core.classify import SpinBehaviour, classify_connection
from repro.core.observer import SpinObservation, observe_recorder
from repro.core.spin import SpinPolicy, resolve_connection_policy
from repro.faults.resilience import ResilienceConfig
from repro.faults.spec import (
    VN_FAULT_VERSION,
    BlackholeImpairment,
    DrawnFaults,
    FaultPlan,
)
from repro.faults.taxonomy import RETRYABLE_KINDS, FailureKind, classify_exchange
from repro.internet.asdb import IpAddr
from repro.internet.population import DomainRecord, Population
from repro.netsim.delays import LogNormalDelay, UniformDelay
from repro.netsim.path import PathProfile
from repro.quic.connection import ConnectionConfig
from repro.qlog.writer import recorder_to_qlog
from repro.telemetry import Telemetry, trace_id_for
from repro.web.http3 import run_exchange
from repro.web.parallel import ParallelScanConfig, ShardedScan, close_pool, shard_stream
from repro.web.server_profiles import ServerStackProfile, stack_by_name


def _epoch_of(week_label: str) -> int:
    """Week serial for the stack-churn process; 0 for ad-hoc labels."""
    from repro.campaign.schedule import CalendarWeek

    try:
        return max(0, CalendarWeek.from_label(week_label).serial)
    except (ValueError, TypeError):
        return 0

__all__ = [
    "ConnectionRecord",
    "DomainScanResult",
    "ParallelScanConfig",
    "ScanConfig",
    "Scanner",
    "ScanDataset",
]

_MAX_REDIRECTS = 3


def stamp_week(results: list["DomainScanResult"], week_label: str) -> None:
    """Stamp every connection record with the measurement week."""
    for result in results:
        for record in result.connections:
            record.week = week_label


@dataclass(frozen=True)
class ScanConfig:
    """Scanner tunables.

    ``loss_probability`` and ``reorder_probability`` are per-packet path
    impairments; ``jitter_ms`` bounds the uniform per-packet queueing
    jitter.  ``qlog_sample_rate`` controls for what fraction of
    connections the full qlog document is retained (artifact export).
    """

    loss_probability: float = 0.001
    reorder_probability: float = 0.0015
    #: Median of the log-normal extra delay a reordered packet picks up.
    #: The heavy tail occasionally displaces a packet across a spin
    #: phase boundary — the Fig. 1b failure mode — while typical events
    #: swap packets within a flight and stay invisible.
    reorder_extra_delay_ms: float = 5.0
    jitter_ms: float = 0.8
    server_flush_dispatch_ms: tuple[float, float] = (0.8, 2.5)
    qlog_sample_rate: float = 0.0
    client_spin_policy: SpinPolicy = SpinPolicy.SPIN
    #: Send the final two-PING detection probe before teardown (see
    #: DESIGN.md Sec. 7); disabling it models a teardown-happy client
    #: that misses spinners on single-flight responses.
    final_probe: bool = True
    #: Fault-injection plan (:mod:`repro.faults.spec`); ``None`` or an
    #: empty plan leaves every connection — and every artifact byte —
    #: exactly as an un-faulted scan.
    faults: FaultPlan | None = None
    #: Resilience machinery (timeouts, retries, circuit breaker); with
    #: ``None`` the scanner behaves exactly as before this layer existed.
    resilience: ResilienceConfig | None = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.qlog_sample_rate <= 1.0:
            raise ValueError("qlog_sample_rate must be in [0, 1]")

    @property
    def faults_active(self) -> bool:
        """Whether any fault injection or resilience handling is on."""
        return (
            self.faults is not None and not self.faults.is_empty
        ) or self.resilience is not None


@dataclass(slots=True)
class ConnectionRecord:
    """The per-connection artifact record (cf. paper Appendix B)."""

    domain: str
    host: str
    ip: IpAddr
    ip_version: int
    provider_name: str
    server_header: str | None
    status: int | None
    success: bool
    behaviour: SpinBehaviour
    observation: SpinObservation
    stack_rtts_ms: list[float]
    qlog: dict | None = None
    #: Wire version the connection ended up using (after any Version
    #: Negotiation); ``None`` when the exchange failed early.
    negotiated_version: int | None = None
    #: Failure taxonomy entry (:class:`repro.faults.FailureKind`) for a
    #: failed exchange; ``None`` on success or when neither faults nor
    #: resilience are configured (classification off keeps legacy scans
    #: byte-identical).
    failure: FailureKind | None = None
    #: Calendar-week label of the measurement that produced this record
    #: (``"cw20-2023"``); stamped by the scanner so merged multi-week
    #: artifacts stay sliceable by week.  ``None`` on records from
    #: pre-week datasets.
    week: str | None = None

    @property
    def shows_spin_activity(self) -> bool:
        """Spin values 0 and 1 both seen (Table 1's Spin criterion)."""
        return self.observation.spins


@dataclass(slots=True)
class DomainScanResult:
    """Everything the scanner learned about one domain in one week."""

    domain: DomainRecord
    resolved: bool
    quic_support: bool
    #: The address DNS resolution returned (also for domains that then
    #: failed to answer HTTP/3): :meth:`Population.resolved_ip`.
    resolved_ip: IpAddr | None = None
    connections: list[ConnectionRecord] = field(default_factory=list)
    #: Domain-level failure kind when no connection of the chain
    #: succeeded (the last connection's classification); ``None`` on
    #: success or with classification off.
    failure: FailureKind | None = None

    @property
    def shows_spin_activity(self) -> bool:
        return any(c.shows_spin_activity for c in self.connections)


@dataclass
class ScanDataset:
    """One weekly scan over one IP version."""

    week_label: str
    ip_version: int
    results: list[DomainScanResult] = field(default_factory=list)

    def connection_records(self) -> list[ConnectionRecord]:
        """All connections of the scan, in domain order."""
        return [c for result in self.results for c in result.connections]


class Scanner:
    """Scans a population, one HTTP/3 fetch chain per domain per week.

    Every scan is one ordinal-ordered shard stream (see
    :mod:`repro.web.parallel`); ``parallel`` only shapes its executor —
    the default single-worker configuration runs fully in-process, more
    workers bring a process pool.  Datasets are bit-identical either way
    because every domain's randomness is derived independently.
    """

    def __init__(
        self,
        population: Population,
        config: ScanConfig | None = None,
        parallel: ParallelScanConfig | None = None,
        telemetry: Telemetry | None = None,
    ):
        self.population = population
        self.config = config or ScanConfig()
        self.parallel = parallel or ParallelScanConfig()
        #: :class:`repro.telemetry.Telemetry` bundle (``None``: off).  All
        #: scan metrics and trace events are deterministic functions of
        #: the scan arguments: event timestamps are *simulated*
        #: milliseconds (each domain's event cascade), never wall-clock,
        #: and the per-domain emission order is population order
        #: regardless of worker count (shards are absorbed in shard order).
        self.telemetry = Telemetry.resolve(telemetry)
        #: Shape of the latest scan (``units`` scanned, ``workers``,
        #: ``pool``, ``max_outstanding``), rewritten by every scan.
        self.last_scan_stats: dict = {}

    def close(self) -> None:
        """Release the scanner's worker pool, deterministically.

        Blocks until every pool worker has exited.  Idempotent, and the
        scanner stays usable — a later ``scan()`` simply builds a fresh
        pool.  Long-lived callers (repeated-scan studies, CLI, service
        daemon) close their scanner when a campaign ends instead of
        leaking live worker processes until garbage collection.
        """
        close_pool(self)

    def __enter__(self) -> "Scanner":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def scan(
        self,
        week_label: str = "cw20-2023",
        ip_version: int = 4,
        domains: list[DomainRecord] | None = None,
        probe: int = 0,
        verbose: bool = False,
        checkpoint_dir=None,
    ) -> ScanDataset:
        """Run one measurement week and hold the result as a dataset.

        Exactly ``list(scan_stream(...))`` — see there for the
        arguments and the determinism contract.
        """
        return ScanDataset(
            week_label=week_label,
            ip_version=ip_version,
            results=list(
                self.scan_stream(
                    week_label, ip_version, domains, probe, verbose, checkpoint_dir
                )
            ),
        )

    def scan_stream(
        self,
        week_label: str = "cw20-2023",
        ip_version: int = 4,
        domains: list[DomainRecord] | None = None,
        probe: int = 0,
        verbose: bool = False,
        checkpoint_dir=None,
        _shards: Iterator[list[DomainScanResult]] | None = None,
    ) -> Iterator[DomainScanResult]:
        """Scan ``domains`` (default: the whole population) as a stream.

        Yields one :class:`DomainScanResult` per domain, in population
        order, holding no more than a small window of shards — so a
        10 M+ domain scan runs in bounded RSS (see
        :func:`repro.web.parallel.shard_stream`).

        Deterministic in (population seed, week label, IP version,
        probe) — independent of worker count and sharding.  ``probe``
        distinguishes repeated measurements *within* the same week —
        the follow-up methodology of Section 6 re-rolls per-connection
        randomness (spin disabling, paths) while keeping the week's
        deployment state fixed.  ``verbose`` prints a one-line summary
        (domains, elapsed, throughput, executor) to stderr.

        ``checkpoint_dir`` enables crash-safe resume: completed shards
        are written to the scan's own directory under it as they are
        emitted (``verbose`` names it), and a re-run of the *same* scan
        (seed, week, IP version, probe, targets, config, chunk) loads
        them back instead of re-scanning.  The shard size is fixed by the
        chunk configuration, not the worker count, so a campaign can be
        resumed with a different ``--workers`` and still merge
        bit-identically.

        The circuit breaker runs here, over emitted results in
        population order: its per-provider state only ever moves
        forward, so decisions are identical for any worker count, and
        checkpoint shards always hold pre-breaker results.

        ``_shards`` is this scan's share of a :meth:`scan_streams` window.
        """
        population = self.population
        total = population.domain_count if domains is None else len(domains)
        if _shards is None:
            scan = self._sharded(week_label, ip_version, domains, probe, checkpoint_dir)
            if verbose and scan.checkpoint is not None:
                print(f"checkpoint: {scan.checkpoint.directory}", file=sys.stderr)
            _shards = (shard for _, shard in shard_stream(self, [scan]))
        breaker = None
        resilience = self.config.resilience
        if resilience is not None and resilience.breaker is not None:
            from repro.faults.breaker import BreakerPass

            breaker = BreakerPass(
                resilience.breaker, lambda r: population.provider_of(r.domain).name
            )
        started = time.perf_counter()  # wallclock-ok: stderr diagnostics only
        telemetry = self.telemetry
        tracer = telemetry.tracer
        if tracer.trace_id is None:
            # Standalone scan: the scan itself is the trace root.  Under
            # the campaign daemon the trace id is already the campaign's
            # and this scan nests beneath it.
            tracer.trace_id = trace_id_for(
                "scan", population.config.seed, week_label, ip_version, probe
            )
        emitted = quic = 0
        # A scan that raises (or is abandoned by its consumer) drops its
        # row unrecorded and leaves neither span nor phase open, so a
        # retry on this scanner opens the same span at the same path and
        # a crashed-then-retried campaign logs the span ids of an
        # uninterrupted one.  Deliberately no worker count on the row: it
        # is part of the deterministic trace, which must not depend on
        # sharding.
        with telemetry.phase("scan"), tracer.span(
            f"scan:{week_label}", ip_version=ip_version, domains=total
        ) as span:
            for shard in _shards:
                for result in shard:
                    if breaker is not None:
                        result = breaker.step(result)
                    emitted += 1
                    quic += result.quic_support
                    yield result
            # The merge marker closes the scan stage of the pipeline
            # however the work was split (inline "merges" too), so the
            # deterministic trace never depends on it.
            tracer.event("merge", domains=emitted)
            if breaker is not None:
                breaker.flush(telemetry)
            span.annotate(quic=quic)
        if verbose:
            elapsed = time.perf_counter() - started  # wallclock-ok: diagnostics
            rate = emitted / elapsed if elapsed > 0 else float("inf")
            stats = self.last_scan_stats
            print(
                f"scanned {emitted} domains in {elapsed:.1f} s "
                f"({rate:.0f} domains/s, "
                f"{'pool' if stats['pool'] else 'inline'}, "
                f"{stats['workers']} worker(s))",
                file=sys.stderr,
            )

    def scan_streams(
        self, scans: Sequence[dict], verbose: bool = False
    ) -> Iterator[Iterator[DomainScanResult]]:
        """One result stream per scan, all fed through one shard window.

        ``scans`` are :meth:`scan_stream` keyword arguments.  Stream *k*
        is ``scan_stream(**scans[k])``'s — results, span and checkpoint
        files — but scan *k + 1*'s shards already run while scan *k*
        emits its last ones.  Consume the streams in order, each to its
        end; closing this generator cancels every shard still queued.
        """
        planned = [self._sharded(**scan) for scan in scans]
        shards = shard_stream(self, planned)

        def share(number: int, count: int) -> Iterator[list[DomainScanResult]]:
            for owner, results in islice(shards, count):
                if owner != number:
                    raise RuntimeError("consume scan streams in order, each to its end")
                yield results

        try:
            for number, (scan, sharded) in enumerate(zip(scans, planned)):
                count = sharded.shard_count
                yield self.scan_stream(**scan, verbose=verbose, _shards=share(number, count))
        finally:
            shards.close()

    def _sharded(
        self, week_label="cw20-2023", ip_version=4, domains=None, probe=0,
        checkpoint_dir=None,
    ) -> ShardedScan:
        """A scan's shard plan and checkpoint store."""
        population = self.population
        total = population.domain_count if domains is None else len(domains)
        chunk = self.parallel.resolve_chunk_size(total)
        store = None
        if checkpoint_dir is not None:
            from repro.faults.checkpoint import CheckpointStore, scan_fingerprint

            chunk = self.parallel.chunk_size or 256
            fingerprint = scan_fingerprint(
                population.config.seed, week_label, ip_version, probe,
                population if domains is None else domains, repr(self.config),
            )
            store = CheckpointStore(checkpoint_dir, fingerprint, chunk)
        return ShardedScan(week_label, ip_version, probe, total, chunk, domains, store)

    def scan_shard(
        self,
        domains: Sequence[DomainRecord],
        week_label: str,
        ip_version: int,
        probe: int,
    ) -> tuple[list[DomainScanResult], tuple]:
        """Scan one shard in this process: ``(results, telemetry)``.

        The one place domains are scanned — the inline executor and the
        pool workers both call it.  The per-scan invariants — the week's
        churn epoch and the ``(seed, "scan", week, ip_version)`` seed
        prefix — are pure functions of the arguments, so every process
        computes identical values.

        The shard records into a *fresh* bundle of the scanner's state
        (:meth:`Telemetry.shard`) and returns its parts for
        :meth:`Telemetry.absorb_shard`; the stream absorbs bundles in
        shard order, which reproduces one sequential emission order at
        any worker count — and a shard that raises leaves no partial
        rows behind.  Records are week-stamped here, before a
        shard can be encoded or persisted, so checkpoint artifacts
        merged via ``repro convert`` stay queryable by week.
        """
        epoch = _epoch_of(week_label)
        seed_prefix = SeedPrefix(
            self.population.config.seed, "scan", week_label, ip_version
        )
        parent = self.telemetry
        self.telemetry = bundle = parent.shard()
        try:
            results = [
                self._scan_domain(domain, ip_version, probe, epoch, seed_prefix)
                for domain in domains
            ]
        finally:
            self.telemetry = parent
        stamp_week(results, week_label)
        # Rows are path-relative to the shard; the absorb re-roots them
        # under the stream's open scan span.
        tracer = bundle.tracer
        return results, (bundle.registry, tracer.records, tracer.diag_records)

    # ------------------------------------------------------------------

    def _scan_domain(
        self,
        domain: DomainRecord,
        ip_version: int,
        probe: int,
        epoch: int,
        seed_prefix: SeedPrefix,
    ) -> DomainScanResult:
        """One domain: a ``domain:<name>`` span around the fetch chain.

        The span's clock is the domain's *simulated* time and its
        ``connection:<n>`` children sit on the same clock, so the trace
        stays a pure function of the seed.
        """
        telemetry = self.telemetry
        registry = telemetry.registry
        self._domain_attempts = 0
        self._domain_sim_ms = 0.0
        with telemetry.tracer.span(f"domain:{domain.name}") as span, (
            telemetry.phase("scan.domain")
        ):
            registry.counter("scan.domains").inc()
            rng = seed_prefix.derive(domain.name, probe)
            result = DomainScanResult(domain=domain, resolved=False, quic_support=False)
            stack_name = None
            ip = result.resolved_ip = self.population.resolved_ip(domain, ip_version)
            if ip is not None:
                result.resolved = True
                if domain.quic_enabled:
                    stack_name = self.population.stack_of(domain, ip_version, epoch)
                registry.counter("scan.domains_resolved").inc()
            if stack_name is not None:
                stack = stack_by_name(stack_name)
                provider = self.population.provider_of(domain)

                # Fault draws come from a *separate* stream derived
                # alongside — never from — the measurement stream ``rng``,
                # so an all-zero (or absent) plan leaves every measurement
                # byte untouched, and any worker split sees the same
                # faults for the same domain.
                drawn = None
                faults = self.config.faults
                if faults is not None and not faults.is_empty:
                    drawn = faults.draw(seed_prefix.derive(domain.name, probe, "faults"))

                host = f"www.{domain.name}"
                redirects_left = _MAX_REDIRECTS
                while True:
                    record = self._connect_once(
                        domain, host, ip, ip_version, provider.name, stack,
                        provider.propagation_delay, rng,
                        allow_redirect=redirects_left > 0, drawn_faults=drawn,
                    )
                    result.connections.append(record)
                    if record.success:
                        result.quic_support = True
                    if record.status in (301, 302, 307, 308) and redirects_left > 0:
                        redirects_left -= 1
                        registry.counter("scan.redirects_followed").inc()
                        # Landing-page redirects overwhelmingly stay on the
                        # same host (http→https, apex→www); the scanner
                        # reconnects.
                        continue
                    break
                if not result.quic_support:
                    result.failure = result.connections[-1].failure
            spins = result.shows_spin_activity
            if result.quic_support:
                registry.counter("scan.domains_quic").inc()
            if spins:
                registry.counter("scan.domains_spinning").inc()
            span.annotate(
                resolved=result.resolved,
                quic=result.quic_support,
                spins=spins,
                connections=len(result.connections),
            )
            span.end(self._domain_sim_ms)
        return result

    def _connect_once(
        self,
        domain: DomainRecord,
        host: str,
        ip: IpAddr,
        ip_version: int,
        provider_name: str,
        stack: ServerStackProfile,
        propagation_delay,
        rng: random.Random,
        allow_redirect: bool,
        drawn_faults: DrawnFaults | None = None,
    ) -> ConnectionRecord:
        config = self.config
        resilience = config.resilience
        classify_enabled = config.faults_active
        server_policy = resolve_connection_policy(stack.spin_config, rng)
        retry_required = (
            stack.retry_probability > 0.0 and rng.random() < stack.retry_probability
        )
        plan = stack.sample_plan(
            rng, redirect_target=f"https://{host}/start" if allow_redirect else None
        )

        impairment = None
        server_versions = stack.supported_versions
        handshake_stall_ms = 0.0
        reset_after = None
        if drawn_faults is not None and drawn_faults.any_active:
            if drawn_faults.slow_server_stall_ms > 0.0:
                plan = replace(
                    plan,
                    think_time_ms=plan.think_time_ms
                    + drawn_faults.slow_server_stall_ms,
                )
            if drawn_faults.vn_failure:
                # The server only accepts a version the client will
                # never offer, forcing Version Negotiation to dead-end.
                server_versions = (VN_FAULT_VERSION,)
            handshake_stall_ms = drawn_faults.handshake_stall_ms
            reset_after = drawn_faults.reset_after_packets
            if drawn_faults.blackhole:
                impairment = BlackholeImpairment()
            elif drawn_faults.loss_burst is not None:
                impairment = drawn_faults.loss_burst

        one_way = propagation_delay.sample(rng)
        jitter = UniformDelay(0.0, config.jitter_ms)
        profile = PathProfile(
            propagation_delay_ms=one_way,
            jitter=jitter,
            loss_probability=config.loss_probability,
            reorder_probability=config.reorder_probability,
            reorder_extra_delay=LogNormalDelay(
                median_ms=config.reorder_extra_delay_ms, sigma=1.2
            ),
        )

        telemetry = self.telemetry
        registry = telemetry.registry
        retry = resilience.retry if resilience is not None else None
        max_attempts = retry.max_attempts if retry is not None else 1
        connect_timeout = (
            resilience.connect_timeout_ms if resilience is not None else None
        )
        domain_budget = (
            resilience.domain_budget_ms if resilience is not None else None
        )

        attempt = 0
        kind: FailureKind | None = None
        while True:
            with telemetry.phase("exchange"):
                exchange = run_exchange(
                    host,
                    plan,
                    config.client_spin_policy,
                    server_policy,
                    uplink_profile=profile,
                    downlink_profile=profile,
                    rng=fork_rng(rng, "exchange"),
                    final_probe=config.final_probe,
                    server_config=ConnectionConfig(
                        flush_dispatch_ms=config.server_flush_dispatch_ms,
                        version=server_versions[0],
                        supported_versions=server_versions,
                        retry_required=retry_required,
                        ack_delay_exponent=stack.ack_delay_exponent,
                        max_ack_delay_ms=stack.max_ack_delay_ms,
                        handshake_stall_ms=handshake_stall_ms,
                        reset_after_packets=reset_after,
                    ),
                    metrics=registry,
                    timeout_ms=connect_timeout,
                    impairment=impairment,
                )
            sim_end_ms = exchange.client.simulator.now_ms
            self._domain_sim_ms += sim_end_ms
            registry.counter("scan.connections").inc()
            outcome = "success" if exchange.success else "failure"
            registry.counter("scan.handshakes", outcome=outcome).inc()
            registry.histogram("scan.exchange_sim_ms").observe(sim_end_ms)
            # One row per attempt (retries included), numbered within the
            # domain so sibling ids stay unique, at the attempt's end on
            # the domain's clock.
            telemetry.tracer.event(
                f"connection:{self._domain_attempts}",
                time_ms=self._domain_sim_ms,
                host=host,
                status=exchange.status,
                success=exchange.success,
            )
            self._domain_attempts += 1
            kind = (
                classify_exchange(exchange)
                if classify_enabled and not exchange.success
                else None
            )
            if kind is None or kind not in RETRYABLE_KINDS:
                break
            if attempt + 1 >= max_attempts:
                break
            if domain_budget is not None and self._domain_sim_ms >= domain_budget:
                break
            # Deterministic exponential backoff charged to *simulated*
            # time — the scanner never sleeps on the wall clock.
            self._domain_sim_ms += retry.delay_ms(attempt, rng)
            attempt += 1
            registry.counter("scan.retries").inc()
        if kind is not None:
            registry.counter("scan.failures", kind=kind.value).inc()

        with telemetry.phase("classify"):
            observation = observe_recorder(exchange.recorder)
            stack_rtts = exchange.recorder.stack_rtts_ms()
            behaviour = classify_connection(observation, stack_rtts)
        qlog_doc = None
        if config.qlog_sample_rate and rng.random() < config.qlog_sample_rate:
            exchange.recorder.metadata = {
                "domain": domain.name,
                "ip": str(ip),
                "provider": provider_name,
            }
            with telemetry.phase("qlog"):
                qlog_doc = recorder_to_qlog(exchange.recorder, title=host)
        return ConnectionRecord(
            domain=domain.name,
            host=host,
            ip=ip,
            ip_version=ip_version,
            provider_name=provider_name,
            server_header=exchange.server_header,
            status=exchange.status,
            success=exchange.success,
            behaviour=behaviour,
            observation=observation,
            stack_rtts_ms=stack_rtts,
            qlog=qlog_doc,
            negotiated_version=(
                exchange.client.version if exchange.success else None
            ),
            failure=kind,
        )
