"""Campaign daemon: scheduled scans feeding the spool and the index.

The daemon turns the one-shot ``repro scan`` workflow into a standing
measurement service.  Its unit of work is a *tick*: find the campaign
weeks whose scan is not yet recorded in the spool manifest, run the
next ones through the regular :class:`~repro.web.scanner.Scanner`
(checkpointed under the spool, so a crash mid-scan resumes shard by
shard), encode each dataset as a ``cbr`` artifact into the
content-addressed spool, and hand the spool to the
:class:`~repro.service.WeekIndexer`.

Crash-survivability is compositional, not bespoke: every step is either
idempotent or checkpointed by an existing layer —

* scan interrupted → :mod:`repro.faults.checkpoint` resumes shards;
* crash after the scan, before ``record_scan`` → the re-run produces
  the byte-identical dataset (scans are pure functions of the seed),
  whose submission dedupes on content and whose fold the ledger makes
  a no-op;
* crash mid-fold → the indexer's per-week fingerprint lists finish
  exactly the missing weeks.

Scheduling is clock-agnostic: :class:`Scheduler` paces ticks through a
pluggable clock.  Tests drive one where sleeping advances time; the
``repro service serve`` loop is the one place the service touches the
wall clock, with the determinism-lint pragmas marking that boundary.
"""

from __future__ import annotations

import io
import sys
from contextlib import closing
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from repro.campaign.schedule import CalendarWeek, Campaign
from repro.service.indexer import WeekIndexer
from repro.service.spool import SpoolStore, scan_digest
from repro.telemetry import Telemetry, trace_id_for

__all__ = [
    "CampaignDaemon",
    "Scheduler",
    "ServiceConfig",
    "WallClock",
]


@dataclass(frozen=True)
class ServiceConfig:
    """What one service instance measures, and how."""

    seed: int = 20230520
    czds_domains: int = 2_000
    toplist_domains: int = 200
    first_week: str = "cw18-2023"
    last_week: str = "cw20-2023"
    ip_version: int = 4
    workers: int = 1

    def __post_init__(self) -> None:
        if self.czds_domains < 0 or self.toplist_domains < 0:
            raise ValueError("domain counts must be non-negative")
        if self.czds_domains + self.toplist_domains == 0:
            raise ValueError("the population must contain at least one domain")
        if self.ip_version not in (4, 6):
            raise ValueError(f"ip_version must be 4 or 6, not {self.ip_version}")
        if self.workers < 0:
            raise ValueError("workers must be >= 0 (0 = one per core)")
        # Validates both labels and their ordering up front, so a typoed
        # week surfaces as one configuration error before any scanning.
        self.campaign()

    def campaign(self) -> Campaign:
        first = CalendarWeek.from_label(self.first_week)
        last = CalendarWeek.from_label(self.last_week)
        return Campaign(first=first, last=last)


class CampaignDaemon:
    """Drives campaign scans into a spool + index directory pair."""

    def __init__(
        self,
        directory: str | Path,
        config: ServiceConfig,
        telemetry=None,
        fault_hook: Callable[[str], None] | None = None,
    ) -> None:
        self.directory = Path(directory)
        self.config = config
        self.telemetry = telemetry = Telemetry.resolve(telemetry)
        self.spool = SpoolStore(self.directory / "spool", telemetry=telemetry)
        self.indexer = WeekIndexer(
            self.directory / "index", fault_hook=fault_hook, telemetry=telemetry
        )
        self._population = None
        self._scanner = None
        #: Domains this daemon has scanned, over all its ticks.
        self.domains_scanned = 0

    def close(self) -> None:
        """Shut down the daemon's scanner pool deterministically."""
        if self._scanner is not None:
            self._scanner.close()

    def __enter__(self) -> "CampaignDaemon":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def campaign_trace_id(self) -> str:
        """The campaign's deterministic trace identity."""
        config = self.config
        return trace_id_for(
            "campaign",
            config.seed,
            config.first_week,
            config.last_week,
            config.ip_version,
            config.czds_domains,
            config.toplist_domains,
        )

    @property
    def population(self):
        if self._population is None:
            from repro.internet.population import (
                PopulationConfig,
                build_population,
            )

            self._population = build_population(
                PopulationConfig(
                    toplist_domains=self.config.toplist_domains,
                    czds_domains=self.config.czds_domains,
                    seed=self.config.seed,
                )
            )
        return self._population

    @property
    def scanner(self):
        if self._scanner is None:
            from repro.web.parallel import ParallelScanConfig
            from repro.web.scanner import Scanner

            workers = self.config.workers
            parallel = (
                ParallelScanConfig.auto()
                if workers == 0
                else ParallelScanConfig(workers=workers)
            )
            self._scanner = Scanner(
                self.population, parallel=parallel, telemetry=self.telemetry
            )
        return self._scanner

    def pending_weeks(self) -> list[CalendarWeek]:
        """Campaign weeks whose scan the spool manifest does not record."""
        completed = self.spool.completed_scans()
        scanner, ip_version = self.scanner, self.config.ip_version
        return [
            week
            for week in self.config.campaign().weeks()
            if scan_digest(scanner.fingerprint(week.label, ip_version)) not in completed
        ]

    def run_once(self, max_weeks: int | None = None, verbose: bool = False) -> dict:
        """One daemon tick: scan pending weeks, spool, fold, report.

        Returns a machine-parseable status dict; folding covers *every*
        pending spooled artifact (also externally submitted ones), not
        just this tick's scans.
        """
        tracer, registry = self.telemetry.tracer, self.telemetry.registry
        if tracer.trace_id is None:
            tracer.trace_id = self.campaign_trace_id()
        with tracer.span(
            "campaign",
            first_week=self.config.first_week,
            last_week=self.config.last_week,
        ) as campaign_span:
            pending = self.pending_weeks()
            if max_weeks is not None:
                pending = pending[:max_weeks]
            scanned = []
            # One stream for the tick's weeks: week k is spooled while
            # week k + 1's shards already run.
            streams = self.scanner.scan_streams(
                [self._scan_args(week) for week in pending], verbose=verbose
            )
            with closing(streams):
                for week, results in zip(pending, streams):
                    scanned.append(self._spool_week(week, results, verbose))
            folded = self.indexer.fold_pending(self.spool)
            # The tick's read-back — the "query" step of the pipeline:
            # the status report is served from the index the tick just
            # wrote.
            with tracer.span("status") as status_span:
                still_pending = self.pending_weeks()
                indexed = self.indexer.weeks()
                status_span.annotate(
                    pending_weeks=len(still_pending),
                    indexed_weeks=len(indexed),
                )
            registry.counter("service.ticks_total").inc()
            registry.counter("service.weeks_scanned").inc(len(scanned))
            registry.counter("service.artifacts_folded").inc(len(folded))
            registry.gauge("service.pending_weeks").set(len(still_pending))
            registry.gauge("service.weeks_indexed").set(len(indexed))
            spooled = set(self.spool.fingerprints())
            registry.gauge("service.spool_backlog").set(
                len(spooled - self.indexer.ledger())  # one ledger read a tick
            )
            campaign_span.annotate(scanned=len(scanned), folded=len(folded))
        return {
            "scanned_weeks": scanned,
            "folded_artifacts": folded,
            "pending_weeks": len(still_pending),
            "indexed_weeks": indexed,
        }

    def _scan_args(self, week: CalendarWeek) -> dict:
        """The week's scan, checkpointed under ``spool/checkpoints``
        (each scan in its own directory there)."""
        return {
            "week_label": week.label,
            "ip_version": self.config.ip_version,
            "checkpoint_dir": self.directory / "spool" / "checkpoints",
        }

    def _spool_week(self, week: CalendarWeek, results, verbose: bool = False) -> str:
        from repro.artifacts.cbr import write_records_cbr
        from repro.web.scanner import ScanDataset

        if verbose:
            print(
                f"service: scanning week {week.label} "
                f"(IPv{self.config.ip_version}) ...",
                file=sys.stderr,
            )
        dataset = ScanDataset(week.label, self.config.ip_version, list(results))
        self.domains_scanned += len(dataset.results)
        with self.telemetry.tracer.span(f"spool:{week.label}") as spool_span:
            buffer = io.BytesIO()
            write_records_cbr(dataset.connection_records(), buffer)
            entry = self.spool.submit_bytes(
                buffer.getvalue(), source=f"daemon:{week.label}"
            )
            self.spool.record_scan(
                self.scanner.fingerprint(week.label, dataset.ip_version),
                entry.fingerprint,
            )
            spool_span.annotate(
                artifact=entry.fingerprint,
                bytes=entry.size,
                duplicate=not entry.new,
            )
        return week.label

class WallClock:
    """The real clock — only the serve loop runs on it, never analysis."""

    def monotonic(self) -> float:
        import time

        return time.monotonic()

    def sleep(self, seconds: float) -> None:
        import time

        time.sleep(seconds)  # robustness-ok: serve-loop pacing, not a scan


class Scheduler:
    """Paces daemon ticks on a fixed cadence through a pluggable clock:
    anything with ``monotonic()`` and ``sleep(seconds)``."""

    def __init__(self, daemon: CampaignDaemon, interval_s: float, clock) -> None:
        if interval_s <= 0:
            raise ValueError("tick interval must be positive")
        self.daemon = daemon
        self.interval_s = interval_s
        self.clock = clock
        self.ticks = 0

    def run(
        self,
        max_ticks: int | None = None,
        should_stop: Callable[[], bool] | None = None,
        verbose: bool = False,
    ) -> None:
        """Tick until ``max_ticks`` or ``should_stop()``; sleeps between.

        The next tick is scheduled relative to the *start* of the last
        one, so slow scans do not drift the cadence further than they
        must.  A tick that scanned domains sets the gauge
        ``service.scan_domains_per_s``: its domains over its elapsed
        time on this clock.
        """
        while max_ticks is None or self.ticks < max_ticks:
            if should_stop is not None and should_stop():
                return
            started = self.clock.monotonic()
            scanned = self.daemon.domains_scanned
            self.daemon.run_once(verbose=verbose)
            self.ticks += 1
            elapsed = self.clock.monotonic() - started
            scanned = self.daemon.domains_scanned - scanned
            if scanned and elapsed > 0:
                # Throughput on the scheduler's clock is operational
                # state, not a measurement: it feeds the scan-throughput
                # SLO and never enters a tick's own telemetry, which
                # stays a function of the seed.
                self.daemon.telemetry.registry.gauge(
                    "service.scan_domains_per_s"
                ).set(scanned / elapsed)
            if max_ticks is not None and self.ticks >= max_ticks:
                return
            self.clock.sleep(max(0.0, self.interval_s - elapsed))
