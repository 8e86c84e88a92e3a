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
* **Executor.**  A shard that is due is scanned in-process, or — when
  more than one core and more than one shard are available, or
  ``force_pool`` is set — submitted to a process pool in ordinal order.
  Tasks carry ``(start, count)`` range descriptors (workers materialize
  their own slice; ad-hoc ``domains=`` lists ship their records) and
  come back as one cbr payload, not a pickled object graph.
* **Window.**  At most ``max(2, workers * 3)`` shards are outstanding
  (in flight, or finished but behind a slower predecessor), so memory
  is proportional to the window, never the population.
* **Emission.**  Shards leave in ascending ordinal; telemetry absorb and
  checkpoint save happen there, and :meth:`Scanner.scan_stream` runs the
  circuit breaker over what is emitted — all in population order.

Emission order alone fixes every byte downstream, so the stream is
**bit-identical** at any worker count or completion order — same
classifications, same RTT series, same sampled qlogs, same telemetry —
which the test suite verifies record by record.
"""

from __future__ import annotations

import os
import weakref
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator, Sequence

from repro.web.shardplan import ShardRange, plan_shards

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.internet.population import DomainRecord, Population
    from repro.web.scanner import DomainScanResult, ScanConfig, Scanner

__all__ = ["ParallelScanConfig", "close_pool", "shard_stream"]


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
        """One worker per available core."""
        return cls(workers=max(1, os.cpu_count() or 1))

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
# Worker side.  The population (or, for a streaming population, just its
# config) and the scan config are shipped once per worker via the pool
# initializer; each task then carries only a range descriptor — or, for
# ad-hoc target lists, its domain records — so task payloads stay small.
# ----------------------------------------------------------------------

_WORKER_SCANNER: "Scanner | None" = None


def _population_payload(population: "Population"):
    """What the pool initializer ships: spec for streaming, else object.

    A streaming population regenerates any domain from its config, so
    pickling the object graph (10 M+ records) through the initializer
    would defeat its whole point; the workers rebuild it from the
    config instead.
    """
    spawn = getattr(population, "spawn_spec", None)
    if spawn is not None:
        return spawn()
    return ("object", population)


def _init_worker(
    population_payload, scan_config: "ScanConfig", bundle_type: type
) -> None:
    global _WORKER_SCANNER
    from repro.web.scanner import Scanner

    kind, value = population_payload
    if kind == "streaming":
        from repro.internet.streaming import StreamingPopulation

        population = StreamingPopulation(value)
    else:
        population = value
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

    Pool start-up (process forks + population pickling through the
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
        scanner._shard_pool = None
        cached[1].shutdown(wait=True)
    pool = ProcessPoolExecutor(
        max_workers=workers,
        initializer=_init_worker,
        initargs=(
            _population_payload(scanner.population),
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


def shard_stream(
    scanner: "Scanner",
    domains: "Sequence[DomainRecord] | None",
    week_label: str,
    ip_version: int,
    probe: int,
    chunk: int,
    checkpoint=None,
) -> Iterator[list["DomainScanResult"]]:
    """Yield every shard's results, in ascending ordinal, bounded memory.

    ``domains=None`` scans the scanner's whole population through
    ``materialize_range`` (nothing here ever asks for the full list, so
    a :class:`~repro.internet.streaming.StreamingPopulation` works);
    otherwise the shards are slices of ``domains``.

    A shard becomes *due* when the window has room for it.  Under a
    ``checkpoint`` (:class:`repro.faults.CheckpointStore` or its async
    writer facade) a due shard is first looked up on disk — lazily, one
    ordinal at a time, so a resume holds no more than the window either
    — and only scanned when absent or damaged.  Loaded shards contribute
    no telemetry: their events belong to the run that produced them.

    Everything order-sensitive happens at emission, one shard at a time
    in population order: the shard's telemetry bundle is absorbed, and a
    freshly scanned shard is handed to the checkpoint before it is
    yielded.  ``scanner.last_scan_stats`` is rewritten on every call and
    kept current as the stream advances.
    """
    from repro.faults.checkpoint import results_from_cbr_payload
    from repro.web.scanner import stamp_week

    population = scanner.population
    telemetry = scanner.telemetry
    if domains is None:
        total = population.domain_count

        def targets_of(shard: ShardRange):
            return population.materialize_range(shard.start, shard.stop)

    else:
        total = len(domains)

        def targets_of(shard: ShardRange):
            return domains[shard.start : shard.stop]

    shards = plan_shards(total, chunk)
    parallel = scanner.parallel
    usable = min(parallel.workers, os.cpu_count() or 1)
    use_pool = bool(shards) and (
        parallel.force_pool or (usable > 1 and len(shards) > 1)
    )
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
    #: ordinal -> (results | None, worker cbr payload | None, telemetry
    #: parts | None, loaded from the checkpoint?)
    ready: dict[int, tuple] = {}
    inflight: dict = {}
    next_due = 0

    def fill_window() -> None:
        nonlocal next_due
        while (
            next_due < len(shards)
            and len(inflight) < workers
            and len(inflight) + len(ready) < window
        ):
            due = shards[next_due]
            next_due += 1
            if checkpoint is not None:
                loaded = checkpoint.load_shard(due.index, targets_of(due))
                if loaded is not None:
                    ready[due.index] = (loaded, None, None, True)
                    continue
            stats["units"] += 1
            if use_pool:
                # The population's own ranges ship as descriptors; the
                # workers cannot rebuild an ad-hoc list, so its records go.
                records = None if domains is None else tuple(targets_of(due))
                task = (due.start, due.count, records, week_label, ip_version, probe)
                pool = _pool_for(scanner, workers)
                inflight[pool.submit(_scan_unit, task)] = due.index
            else:
                results, telem = scanner.scan_shard(
                    targets_of(due), week_label, ip_version, probe
                )
                ready[due.index] = (results, None, telem, False)
        stats["max_outstanding"] = max(
            stats["max_outstanding"], len(inflight) + len(ready)
        )

    try:
        for shard in shards:
            fill_window()
            while shard.index not in ready:
                done, _ = wait(inflight, return_when=FIRST_COMPLETED)
                for future in done:
                    payload, telem = future.result()
                    ready[inflight.pop(future)] = (None, payload, telem, False)
                fill_window()
            results, payload, telem, loaded = ready.pop(shard.index)
            if payload is not None:
                # Decoded only now, so shards waiting in the window are
                # compact bytes; strict, because a damaged in-memory IPC
                # payload is a bug, not a crash artifact.
                results = results_from_cbr_payload(
                    payload, targets_of(shard), strict=True
                )
            if telem is not None:
                telemetry.absorb_shard(*telem)
                # The shard layout is a sharding artifact: diagnostics
                # only, never the deterministic rows.
                telemetry.tracer.event(
                    f"shard:{shard.index}", diag=True, domains=shard.count
                )
            if loaded:
                stamp_week(results, week_label)  # may predate week stamping
            elif checkpoint is not None:
                # A worker's payload is already the shard file's bytes.
                checkpoint.save_shard(
                    shard.index, results if payload is None else payload
                )
            population.trim_caches()
            yield results
    except Exception:
        if use_pool:
            # A broken pool must not poison later scans on this scanner.
            _drop_pool(scanner)
        raise
    finally:
        for future in inflight:  # consumer stopped early, or a crash
            future.cancel()
