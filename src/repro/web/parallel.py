"""The one scan core: an ordinal-ordered shard stream.

The paper's measurement covers >200 M domains per week; at that scale a
single-core scanner is the bottleneck of the whole pipeline.  Scanning
is embarrassingly parallel, though: every domain's randomness is
independently derived from ``(population seed, week, ip_version,
domain, probe)`` (see :mod:`repro._util.rng`), so no state flows
between domains and the target list can be sharded freely.

:func:`shard_stream` is the only route from a target list to results:

* **Plan.**  :func:`~repro.web.shardplan.plan_shards` cuts ``[0, n)``
  into fixed ``chunk``-sized ranges, so a shard's ordinal names the
  same domains in every run (what lets a checkpoint resume at another
  worker count).
* **Scans.**  One stream runs a sequence of scans (a campaign tick's
  weeks, Fig. 2's passes) in (scan, ordinal) order, so the pool does
  not drain at a scan boundary.
* **Executor.**  A shard that is due is scanned in-process, or — when
  more than one usable core and more than one shard are available, or
  ``force_pool`` is set — submitted to a process pool in that order.
  Tasks carry ``(start, count)`` range descriptors (workers materialize
  their own slice; ad-hoc ``domains=`` lists ship their records) and
  come back as one cbr payload, not a pickled object graph.
* **Window.**  At most ``max(2, workers * 3)`` shards are outstanding
  (queued, in flight, or finished but behind a slower predecessor), and
  the queue is kept that deep, so a worker's next shard is already
  waiting when it finishes one.  Memory is proportional to the window,
  never the population.
* **Emission.**  Shards leave in (scan, ordinal) order; telemetry absorb
  and checkpoint save happen there, and :meth:`Scanner.scan_stream` runs
  the circuit breaker over what is emitted — all in population order.

Emission order alone fixes every byte downstream, so the stream is
**bit-identical** at any worker count or completion order — same
classifications, same RTT series, same sampled qlogs, same telemetry —
which the test suite verifies record by record.
"""

from __future__ import annotations

import os
import weakref
from itertools import islice
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator, Sequence

from repro.web.shardplan import ShardRange, plan_shards

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.faults.checkpoint import CheckpointStore
    from repro.internet.population import DomainRecord, PopulationConfig
    from repro.web.scanner import DomainScanResult, ScanConfig, Scanner

__all__ = ["ParallelScanConfig", "ShardedScan", "close_pool", "shard_stream"]


def _usable_cores() -> int:
    """The cores this process may run on: its CPU affinity, if known."""
    cores = os.cpu_count() or 1
    if hasattr(os, "sched_getaffinity"):
        return min(cores, len(os.sched_getaffinity(0)))
    return cores


@dataclass(frozen=True)
class ParallelScanConfig:
    """Executor shape of a scan.

    ``workers=1`` (the default) runs fully in-process — no pool, no
    pickling.  ``chunk_size=None`` picks a shard size that gives each
    worker several shards for tail balancing.

    Even with ``workers > 1`` the stream scans inline when a pool cannot
    help: a single shard, or fewer usable cores than two (a pool on one
    core only adds pickling on top of the same serial execution).
    ``force_pool=True`` overrides that — tests use it to exercise the
    real pool on any machine.
    """

    workers: int = 1
    chunk_size: int | None = None
    force_pool: bool = False

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.chunk_size is not None and self.chunk_size < 1:
            raise ValueError("chunk_size must be >= 1 when given")

    @classmethod
    def auto(cls) -> "ParallelScanConfig":
        """One worker per usable core."""
        return cls(workers=_usable_cores())

    def resolve_chunk_size(self, n_targets: int) -> int:
        """The shard size used for ``n_targets`` domains.

        Aims for ~4 shards per worker (so a slow shard cannot stall the
        pool at the tail) while capping shards at 512 domains to keep
        per-result IPC messages bounded.
        """
        if self.chunk_size is not None:
            return self.chunk_size
        balanced = -(-n_targets // (self.workers * 4))
        return max(1, min(512, balanced))


# ----------------------------------------------------------------------
# Worker side.  The population config and the scan config are shipped
# once per worker via the pool initializer; each task then carries only
# a range descriptor — or, for ad-hoc target lists, its domain records —
# so task payloads stay small.
# ----------------------------------------------------------------------

_WORKER_SCANNER: "Scanner | None" = None


def _init_worker(
    population_config: "PopulationConfig",
    scan_config: "ScanConfig",
    bundle_type: type,
) -> None:
    global _WORKER_SCANNER
    from repro.internet.population import Population
    from repro.web.scanner import Scanner

    population = Population(population_config)
    # The worker's own bundle — one of the parent's type, which is what
    # pickles — is never written to: ``scan_shard`` records each shard
    # into a fresh one of its state.
    _WORKER_SCANNER = Scanner(population, scan_config, telemetry=bundle_type())


def _scan_unit(task):
    """Scan one shard in a pool worker; returns ``(payload, telem)``.

    ``task`` is ``(start, count, domains, week_label, ip_version,
    probe)``; ``domains=None`` means "materialize ``[start, start +
    count)`` from the worker's own population" (range descriptors ship
    no records at all).  The results cross back to the parent as one
    ``KIND_DOMAINS`` cbr payload — compact columnar frames instead of a
    pickled object graph, and already the bytes of a checkpoint shard
    file — plus the shard's telemetry bundle.
    """
    start, count, domains, week_label, ip_version, probe = task
    scanner = _WORKER_SCANNER
    assert scanner is not None, "worker pool not initialized"
    from repro.faults.checkpoint import encode_domain_results

    if domains is None:
        domains = scanner.population.materialize_range(start, start + count)
    results, telem = scanner.scan_shard(domains, week_label, ip_version, probe)
    payload = encode_domain_results(results)
    scanner.population.trim_caches()
    return payload, telem


# ----------------------------------------------------------------------
# Pool lifecycle.
# ----------------------------------------------------------------------


def _pool_for(scanner: "Scanner", workers: int) -> ProcessPoolExecutor:
    """The scanner's persistent worker pool, (re)built on shape change.

    Pool start-up (process forks + population set-up in the
    initializer) dominated short scans when every ``scan()`` call built
    a fresh executor; campaigns run many weekly scans over one scanner,
    so the pool is cached on the scanner and reused.  A shape change
    shuts the old pool down *deterministically* (``wait=True`` — no
    orphaned workers lingering through the rest of a campaign); the
    owning scanner's ``close()`` does the same, and a GC finalizer
    remains only as a backstop for scanners that are never closed.
    """
    bundle_type = type(scanner.telemetry)
    key = (workers, bundle_type)
    cached = getattr(scanner, "_shard_pool", None)
    if cached is not None:
        if cached[0] == key:
            return cached[1]
        close_pool(scanner)
    pool = ProcessPoolExecutor(
        max_workers=workers,
        initializer=_init_worker,
        initargs=(
            scanner.population.config,
            scanner.config,
            bundle_type,
        ),
    )
    scanner._shard_pool = (key, pool)
    weakref.finalize(scanner, pool.shutdown, wait=False)
    return pool


def close_pool(scanner: "Scanner") -> None:
    """Deterministically shut down the scanner's cached worker pool.

    Blocks until every worker process has exited (``wait=True``), so a
    long campaign that closes its scanner releases all pool resources
    at that point instead of at garbage-collection time.  Idempotent;
    a later scan on the same scanner simply builds a fresh pool.
    """
    cached = getattr(scanner, "_shard_pool", None)
    if cached is not None:
        scanner._shard_pool = None
        cached[1].shutdown(wait=True)


def _drop_pool(scanner: "Scanner") -> None:
    """Discard a (possibly broken) pool without waiting on it."""
    cached = getattr(scanner, "_shard_pool", None)
    if cached is not None:
        scanner._shard_pool = None
        cached[1].shutdown(wait=False)


# ----------------------------------------------------------------------
# The stream.
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ShardedScan:
    """One scan of a shard stream: ``total`` targets cut every ``chunk``;
    ``domains=None`` is the scanner's whole population, else its list."""

    week_label: str
    ip_version: int
    probe: int
    total: int
    chunk: int
    domains: "Sequence[DomainRecord] | None" = None
    checkpoint: "CheckpointStore | None" = None

    @property
    def shard_count(self) -> int:
        return -(-self.total // self.chunk)


def shard_stream(
    scanner: "Scanner", scans: "Sequence[ShardedScan]"
) -> Iterator[tuple[int, list["DomainScanResult"]]]:
    """Yield ``(scan number, shard results)`` in (scan, ordinal) order.

    Shards are dispatched in that order through one window, so the next
    scan's first shards run while the scan before emits its last ones.

    A shard becomes *due* when the window has room for it.  Under its
    scan's ``checkpoint`` (:class:`repro.faults.CheckpointStore`) a due
    shard is first looked up on disk — lazily, one ordinal at a time, so
    a resume holds no more than the window either — and only scanned
    when absent or damaged.  Loaded shards contribute no telemetry:
    their events belong to the run that produced them.

    Everything order-sensitive happens at emission, one shard at a time:
    the shard's telemetry bundle is absorbed, and a freshly scanned
    shard is saved to its checkpoint on this thread before it is
    yielded.  So every emitted shard is already on disk, and a failed
    save raises here, before the shard is emitted.  A consumer that
    stops or raises cancels every queued shard, later scans' included,
    and waits out the ones already running.  ``scanner.last_scan_stats``
    is rewritten on every call and kept current as the stream advances.
    """
    from repro.faults.checkpoint import results_from_cbr_payload
    from repro.web.scanner import stamp_week

    population = scanner.population
    telemetry = scanner.telemetry
    #: (position, (scan number, scan, shard)) of every shard of every
    #: scan, in dispatch and emission order; one scan's plan at a time,
    #: so memory does not grow with the number of scans
    plan = enumerate(
        (n, scan, shard)
        for n, scan in enumerate(scans)
        for shard in plan_shards(scan.total, scan.chunk)
    )
    count = sum(scan.shard_count for scan in scans)

    def targets_of(scan: ShardedScan, shard: ShardRange):
        if scan.domains is None:
            return population.materialize_range(shard.start, shard.stop)
        return scan.domains[shard.start : shard.stop]

    parallel = scanner.parallel
    usable = min(parallel.workers, _usable_cores())
    use_pool = count > 0 and (parallel.force_pool or (usable > 1 and count > 1))
    workers = 1
    if use_pool:
        workers = parallel.workers if parallel.force_pool else usable
    # Inline, the one due shard is scanned and emitted before the next
    # is looked at; a pool keeps finished shards behind a straggler.
    window = max(2, workers * 3) if use_pool else 1
    stats = scanner.last_scan_stats = {
        "units": 0,
        "workers": workers,
        "pool": use_pool,
        "max_outstanding": 0,
    }
    #: position in ``plan`` -> (results | None, worker cbr payload |
    #: None, telemetry parts | None, loaded from the checkpoint?)
    ready: dict[int, tuple] = {}
    inflight: dict = {}
    #: position -> (scan number, scan, shard, its targets drawn once
    #: when the shard came due), for every shard in flight or ready
    drawn: dict[int, tuple] = {}

    def fill_window() -> None:
        for position, (number, scan, due) in islice(plan, window - len(drawn)):
            targets = targets_of(scan, due)
            drawn[position] = (number, scan, due, targets)
            if scan.checkpoint is not None:
                loaded = scan.checkpoint.load_shard(due.index, targets)
                if loaded is not None:
                    ready[position] = (loaded, None, None, True)
                    continue
            stats["units"] += 1
            if use_pool:
                # The population's own ranges ship as descriptors; the
                # workers cannot rebuild an ad-hoc list, so its records go.
                records = None if scan.domains is None else tuple(targets)
                task = (
                    due.start, due.count, records,
                    scan.week_label, scan.ip_version, scan.probe,
                )
                pool = _pool_for(scanner, workers)
                inflight[pool.submit(_scan_unit, task)] = position
            else:
                results, telem = scanner.scan_shard(
                    targets, scan.week_label, scan.ip_version, scan.probe
                )
                ready[position] = (results, None, telem, False)
        stats["max_outstanding"] = max(stats["max_outstanding"], len(drawn))

    try:
        for position in range(count):
            fill_window()
            while position not in ready:
                done, _ = wait(inflight, return_when=FIRST_COMPLETED)
                for future in done:
                    payload, telem = future.result()
                    ready[inflight.pop(future)] = (None, payload, telem, False)
                fill_window()
            results, payload, telem, loaded = ready.pop(position)
            number, scan, shard, targets = drawn.pop(position)
            if payload is not None:
                # Decoded only now, so shards waiting in the window are
                # compact bytes; strict, because a damaged in-memory IPC
                # payload is a bug, not a crash artifact.
                results = results_from_cbr_payload(payload, targets, strict=True)
            if telem is not None:
                telemetry.absorb_shard(*telem)
                # The shard layout is a sharding artifact: diagnostics
                # only, never the deterministic rows.
                telemetry.tracer.event(
                    f"shard:{shard.index}", diag=True, domains=shard.count
                )
            if loaded:
                stamp_week(results, scan.week_label)  # may predate week stamping
            elif scan.checkpoint is not None:
                # A worker's payload is already the shard file's bytes.
                scan.checkpoint.save_shard(
                    shard.index, results if payload is None else payload
                )
            population.trim_caches()
            yield number, results
    except Exception:
        if use_pool:
            # A broken pool must not poison later scans on this scanner.
            _drop_pool(scanner)
        raise
    finally:
        # The consumer stopped early, or a crash: nothing queued may run
        # on, and nothing running may outlive the stream.
        for future in inflight:
            future.cancel()
        if inflight:
            wait(inflight)
