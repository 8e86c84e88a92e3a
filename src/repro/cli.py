"""Command-line interface for the spin-bit reproduction.

The subcommands mirror the study's workflow::

    repro scan        # build a population, scan it, export the dataset
    repro analyze     # run the connection-level analyses on a dataset
    repro query       # index-backed point lookups (e.g. one domain)
    repro convert     # re-encode an artifact (jsonl <-> cbr), merge shards
    repro compliance  # the Figure 2 longitudinal study
    repro report      # regenerate every table and figure in one run
    repro monitor     # streaming on-path monitoring of many-flow traffic
    repro demo        # one observed connection, spin vs stack RTT
    repro telemetry   # summarize a --telemetry-out directory
    repro service     # campaign daemon + week index + HTTP query API
    repro serve       # shorthand for 'repro service serve'
    repro status      # SLO health verdict (live server or finished campaign)
    repro profile     # sampling profiler over a seeded scan
    repro top         # one-shot operator console over a running server

``scan`` writes the artifact that ``analyze`` consumes — the
Appendix-B-style JSONL schema or the columnar binary ``cbr`` store
(``--artifact-format``, auto-detected on read) — so the two halves can
run on different machines, exactly how the paper separates measurement
from analysis.  ``analyze`` streams the artifact through the single-pass
:class:`~repro.analysis.engine.AnalysisEngine`: every requested section
folds over one shared stream of record batches, decoding the artifact
exactly once in bounded memory.  With ``--where`` the stream first goes
through the predicate-pushdown planner
(:mod:`repro.analysis.query`): on cbr artifacts whole chunks are pruned
via footer zone maps before any decoding, and ``query domain`` answers
point lookups from the footer's domain index.  ``monitor`` is the
operator-side counterpart: it multiplexes many concurrent simulated
connections into one tap stream and publishes windowed RTT metric
snapshots as JSONL while the stream runs.

Output discipline: stdout carries only machine-parseable command output
(datasets, analysis blocks, summaries); every progress or diagnostic
line goes to stderr.  ``--telemetry-out DIR`` on ``scan`` and
``monitor`` additionally writes the deterministic telemetry directory
(see :mod:`repro.telemetry`), which ``repro telemetry summarize DIR``
renders for humans.
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

__all__ = ["main"]


def _build_parser() -> argparse.ArgumentParser:
    from repro.analysis.engine import RECORD_SECTIONS

    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Does It Spin?' (IMC 2023): scan a "
        "synthetic web population for QUIC spin-bit adoption and analyze "
        "the resulting dataset.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    scan = sub.add_parser("scan", help="run a weekly measurement and export JSONL")
    scan.add_argument("--czds", type=int, default=8_000, help="CZDS domain count")
    scan.add_argument("--toplist", type=int, default=1_000, help="toplist domain count")
    scan.add_argument("--seed", type=int, default=20230520)
    scan.add_argument("--week", default="cw20-2023", help="calendar week label")
    scan.add_argument("--ip-version", type=int, choices=(4, 6), default=4)
    scan.add_argument(
        "--workers",
        type=int,
        default=1,
        help="scan worker processes (1 = in-process; 0 = one per core)",
    )
    scan.add_argument(
        "--chunk-size",
        type=int,
        default=None,
        help="domains per worker shard (default: auto)",
    )
    scan.add_argument(
        "--force-pool",
        action="store_true",
        help="always dispatch through the worker pool, even when the "
        "engine would fall back in-process (single core / single shard)",
    )
    scan.add_argument(
        "--out", required=True, help="output artifact path ('-' for stdout)"
    )
    scan.add_argument(
        "--artifact-format",
        choices=("auto", "jsonl", "cbr"),
        default="auto",
        help="artifact encoding: columnar binary (cbr) or JSON lines; "
        "'auto' keys off the --out extension (.cbr => cbr)",
    )
    scan.add_argument(
        "--telemetry-out",
        default=None,
        metavar="DIR",
        help="write deterministic telemetry (trace.jsonl, metrics.prom, ...) "
        "to this directory",
    )
    scan.add_argument(
        "--fault",
        action="append",
        default=None,
        metavar="SPEC",
        help="inject seeded faults: 'kind:prob[:magnitude]' (comma-separable, "
        "repeatable); kinds: loss-burst, blackhole, handshake-stall, "
        "vn-failure, reset, slow-server, qlog-truncate, corrupt-datagram",
    )
    scan.add_argument(
        "--connect-timeout-ms",
        type=float,
        default=None,
        help="simulated-time budget per connection attempt",
    )
    scan.add_argument(
        "--domain-budget-ms",
        type=float,
        default=None,
        help="simulated-time budget per domain (caps retries)",
    )
    scan.add_argument(
        "--retries",
        type=int,
        default=0,
        help="retry attempts after a retryable failure (default 0)",
    )
    scan.add_argument(
        "--breaker-threshold",
        type=int,
        default=None,
        help="trip a per-provider circuit breaker after this many "
        "consecutive failures (default: off)",
    )
    scan.add_argument(
        "--breaker-cooldown",
        type=int,
        default=20,
        help="attempts a tripped breaker skips before half-opening",
    )
    scan.add_argument(
        "--checkpoint-dir",
        default=None,
        metavar="DIR",
        help="crash-safe resume: persist completed shards here and load "
        "them back when re-running the same scan",
    )
    scan.add_argument(
        "--qlog-sample-rate",
        type=float,
        default=0.0,
        help="fraction of connections to capture full qlogs for",
    )
    scan.add_argument(
        "--qlog-out",
        default=None,
        help="write sampled qlog documents as JSONL ('-' for stdout)",
    )

    analyze = sub.add_parser(
        "analyze", help="analyze an exported dataset (jsonl or cbr)"
    )
    analyze.add_argument(
        "dataset",
        nargs="?",
        default=None,
        help="artifact path ('-' for stdin); not needed for "
        "--section migration, which simulates its own traffic",
    )
    analyze.add_argument(
        "--section",
        choices=(*RECORD_SECTIONS, "migration", "all"),
        default="all",
    )
    analyze.add_argument(
        "--flows",
        type=int,
        default=120,
        help="(migration section) QUIC flows to simulate",
    )
    analyze.add_argument(
        "--tcp-flows",
        type=int,
        default=10,
        help="(migration section) TCP flows multiplexed into the tap",
    )
    analyze.add_argument(
        "--seed", type=int, default=20230520, help="(migration section)"
    )
    analyze.add_argument(
        "--migrate",
        default="nat-rebind:0.3,cid-rotation:0.3,path-migration:0.1",
        metavar="PLAN",
        help="(migration section) comma-separated kind:probability[:delay_ms] "
        "migration plan",
    )
    analyze.add_argument(
        "--json",
        action="store_true",
        help="(migration section) emit the study result as JSON instead of "
        "the rendered table",
    )
    analyze.add_argument(
        "--where",
        default=None,
        metavar="EXPR",
        help="filter records before analysis, with zone-map chunk pruning "
        "on cbr artifacts; e.g. \"provider == cloudflare and week between "
        "cw20-2023 and cw25-2023\" (operators: ==, in, between, present; "
        "clauses joined by 'and')",
    )
    analyze.add_argument(
        "--telemetry-out",
        default=None,
        metavar="DIR",
        help="write deterministic telemetry (query planner counters) to "
        "this directory",
    )
    analyze.add_argument(
        "--verbose",
        action="store_true",
        help="print the query-planner plan line to stderr (off by default "
        "so piped output stays clean; telemetry counters are unaffected)",
    )

    query = sub.add_parser(
        "query",
        help="index-backed point lookups over an artifact (cbr footer "
        "domain index + zone maps)",
    )
    query_sub = query.add_subparsers(dest="query_command", required=True)
    query_domain = query_sub.add_parser(
        "domain", help="print every connection record of one domain as JSONL"
    )
    query_domain.add_argument("name", help="registered domain name to look up")
    query_domain.add_argument("dataset", help="artifact path ('-' for stdin)")
    query_domain.add_argument(
        "--telemetry-out",
        default=None,
        metavar="DIR",
        help="write deterministic telemetry (query planner counters) to "
        "this directory",
    )
    query_domain.add_argument(
        "--verbose",
        action="store_true",
        help="print the query-planner plan line to stderr (off by default "
        "so piped output stays clean; telemetry counters are unaffected)",
    )

    convert = sub.add_parser(
        "convert",
        help="re-encode an artifact between jsonl and cbr (or merge a "
        "checkpoint directory of cbr shards)",
    )
    convert.add_argument(
        "input", help="artifact path, or a --checkpoint-dir directory of shards"
    )
    convert.add_argument("output", help="output artifact path")
    convert.add_argument(
        "--to",
        choices=("auto", "jsonl", "cbr"),
        default="auto",
        help="target encoding ('auto' keys off the output extension)",
    )

    compliance = sub.add_parser(
        "compliance", help="12-week longitudinal RFC-compliance study (Figure 2)"
    )
    compliance.add_argument("--czds", type=int, default=5_000)
    compliance.add_argument("--seed", type=int, default=20230520)
    compliance.add_argument("--weeks", type=int, default=12)
    compliance.add_argument(
        "--workers",
        type=int,
        default=1,
        help="scan worker processes (1 = in-process; 0 = one per core)",
    )

    report = sub.add_parser(
        "report", help="regenerate every table and figure of the paper"
    )
    report.add_argument("--czds", type=int, default=8_000)
    report.add_argument("--toplist", type=int, default=1_000)
    report.add_argument("--seed", type=int, default=20230520)
    report.add_argument(
        "--skip-longitudinal",
        action="store_true",
        help="skip the 12-week Figure 2 study (the slowest part)",
    )

    monitor = sub.add_parser(
        "monitor",
        help="streaming on-path spin monitoring of interleaved many-flow traffic",
    )
    monitor.add_argument("--flows", type=int, default=200, help="concurrent flows")
    monitor.add_argument("--seed", type=int, default=20230520)
    monitor.add_argument(
        "--arrival-window-ms",
        type=float,
        default=5_000.0,
        help="flow starts are staggered uniformly over this span",
    )
    monitor.add_argument(
        "--window-ms", type=float, default=1_000.0, help="aggregation window width"
    )
    monitor.add_argument(
        "--slide",
        type=int,
        default=1,
        help="sliding view over the last N windows (1 = tumbling only)",
    )
    monitor.add_argument(
        "--max-flows", type=int, default=10_000, help="flow-table capacity"
    )
    monitor.add_argument(
        "--idle-timeout-ms",
        type=float,
        default=30_000.0,
        help="retire flows idle for this long",
    )
    monitor.add_argument(
        "--overflow-policy",
        choices=("evict-lru", "drop-new"),
        default="evict-lru",
        help="behaviour when the flow table is full",
    )
    monitor.add_argument(
        "--out", required=True, help="snapshot JSONL path ('-' for stdout)"
    )
    monitor.add_argument(
        "--telemetry-out",
        default=None,
        metavar="DIR",
        help="write deterministic telemetry (trace.jsonl, metrics.prom, ...) "
        "to this directory",
    )
    monitor.add_argument(
        "--fault",
        action="append",
        default=None,
        metavar="SPEC",
        help="inject seeded faults into the tap stream; "
        "'corrupt-datagram:prob' truncates that fraction of datagrams",
    )
    monitor.add_argument(
        "--migrate",
        default=None,
        metavar="PLAN",
        help="inject seeded connection migrations mid-flow; comma-separated "
        "kind:probability[:delay_ms] with kinds nat-rebind, cid-rotation, "
        "path-migration (e.g. 'nat-rebind:0.3,path-migration:0.05')",
    )
    monitor.add_argument(
        "--tcp-flows",
        type=int,
        default=0,
        help="multiplex N simulated TCP flows into the tap (exercises "
        "transport classification)",
    )
    monitor.add_argument(
        "--no-cid-linkage",
        action="store_true",
        help="disable CID-to-flow linkage in the resolver (degraded control "
        "arm: migrations split flows instead of being tracked)",
    )

    sub.add_parser("demo", help="one simulated connection, spin vs stack RTT")

    service = sub.add_parser(
        "service",
        help="measurement-as-a-service plane: campaign daemon, incremental "
        "week index, HTTP/JSON query API",
    )
    service_sub = service.add_subparsers(dest="service_command", required=True)

    run_once = service_sub.add_parser(
        "run-once",
        help="one daemon tick: scan pending campaign weeks into the spool "
        "and fold every new artifact into the week index",
    )
    _add_service_dir_arg(run_once)
    _add_service_campaign_args(run_once)
    run_once.add_argument(
        "--max-weeks",
        type=int,
        default=None,
        help="scan at most this many pending weeks this tick (default: all)",
    )

    service_serve = service_sub.add_parser(
        "serve", help="run the HTTP/JSON query API (plus the scan scheduler)"
    )
    _add_serve_args(service_serve)

    index = service_sub.add_parser(
        "index",
        help="fold every spooled artifact the ledger does not list yet",
    )
    _add_service_dir_arg(index)

    submit = service_sub.add_parser(
        "submit",
        help="spool existing artifact files (content-addressed, dedup on "
        "identical bytes) and fold them into the week index",
    )
    _add_service_dir_arg(submit)
    submit.add_argument("artifacts", nargs="+", help="artifact paths to spool")

    serve = sub.add_parser(
        "serve", help="shorthand for 'repro service serve'"
    )
    _add_serve_args(serve)

    telemetry = sub.add_parser(
        "telemetry", help="inspect telemetry directories written by scan/monitor"
    )
    telemetry_sub = telemetry.add_subparsers(dest="telemetry_command", required=True)
    summarize = telemetry_sub.add_parser(
        "summarize", help="human-readable digest of a saved telemetry directory"
    )
    summarize.add_argument("directory", help="directory passed to --telemetry-out")

    status = sub.add_parser(
        "status",
        help="evaluate SLOs into a health verdict, from a live server's "
        "/v1/metrics or a finished campaign's service directory",
    )
    target = status.add_mutually_exclusive_group(required=True)
    target.add_argument(
        "--dir", metavar="DIR", help="service directory to judge offline"
    )
    target.add_argument(
        "--url", metavar="URL", help="base URL of a running 'repro serve'"
    )
    status.add_argument(
        "--slo",
        default=None,
        metavar="FILE",
        help="JSON list of SLO specs replacing the built-in objectives",
    )
    status.add_argument(
        "--metrics",
        default=None,
        metavar="FILE",
        help="metrics.json snapshot to evaluate alongside --dir gauges "
        "(default: DIR/telemetry/metrics.json when present)",
    )
    status.add_argument(
        "--json",
        action="store_true",
        help="emit the structured report instead of the text rendering",
    )
    status.add_argument(
        "--exit-code",
        action="store_true",
        help="exit 0 when ok, 1 when degraded, 2 when failing (shell gate)",
    )

    profile = sub.add_parser(
        "profile",
        help="run the sampling profiler over a seeded scan and report "
        "per-phase self time",
    )
    profile.add_argument("--czds", type=int, default=400, help="CZDS domain count")
    profile.add_argument(
        "--toplist", type=int, default=100, help="toplist domain count"
    )
    profile.add_argument("--seed", type=int, default=20230520)
    profile.add_argument("--week", default="cw20-2023", help="calendar week label")
    profile.add_argument("--ip-version", type=int, choices=(4, 6), default=4)
    profile.add_argument(
        "--sim",
        action="store_true",
        help="charge simulated milliseconds instead of wall time "
        "(deterministic per seed)",
    )
    profile.add_argument(
        "--sample-interval-ms",
        type=float,
        default=1.0,
        help="milliseconds of self time per synthetic sample",
    )
    profile.add_argument(
        "--analyze",
        action="store_true",
        help="also run the analysis folds over the scanned dataset, "
        "profiled per section",
    )
    profile.add_argument(
        "--out",
        default=None,
        metavar="FILE",
        help="write collapsed stacks (flamegraph input) there ('-' for stdout)",
    )

    top = sub.add_parser(
        "top", help="one-shot operator console over a running 'repro serve'"
    )
    top.add_argument(
        "--url",
        default="http://127.0.0.1:8323",
        help="base URL of the running service API",
    )
    return parser


def _add_service_dir_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--dir",
        required=True,
        metavar="DIR",
        help="service directory (spool/ and index/ live underneath)",
    )
    parser.add_argument(
        "--telemetry-out",
        default=None,
        metavar="DIR",
        help="write deterministic telemetry for this invocation there",
    )


def _add_service_campaign_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=20230520)
    parser.add_argument("--czds", type=int, default=2_000, help="CZDS domain count")
    parser.add_argument(
        "--toplist", type=int, default=200, help="toplist domain count"
    )
    parser.add_argument(
        "--first-week", default="cw18-2023", help="first campaign week label"
    )
    parser.add_argument(
        "--last-week", default="cw20-2023", help="last campaign week label"
    )
    parser.add_argument("--ip-version", type=int, choices=(4, 6), default=4)
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        help="scan worker processes (1 = in-process; 0 = one per core)",
    )


def _add_serve_args(parser: argparse.ArgumentParser) -> None:
    _add_service_dir_arg(parser)
    _add_service_campaign_args(parser)
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8323)
    parser.add_argument(
        "--interval-s",
        type=float,
        default=3600.0,
        help="scan-scheduler cadence in wall-clock seconds",
    )
    parser.add_argument(
        "--no-scan",
        action="store_true",
        help="serve the existing index only; schedule no scans",
    )


def _open_out(path: str):
    if path == "-":
        return sys.stdout, False
    try:
        return open(path, "w", encoding="utf-8"), True
    except OSError as error:
        raise SystemExit(f"repro: error: cannot write {path}: {error}")


def _fault_plan_from_args(fault_args):
    """Parse repeated ``--fault`` values into one plan (or ``None``)."""
    if not fault_args:
        return None
    from repro.faults import parse_fault_plan

    try:
        return parse_fault_plan(",".join(fault_args))
    except ValueError as error:
        raise SystemExit(f"repro: error: {error}")


def _resilience_from_args(args):
    """Build a ResilienceConfig from scan flags; ``None`` when all off."""
    from repro.faults import BreakerPolicy, ResilienceConfig, RetryPolicy

    retry = RetryPolicy(max_attempts=args.retries + 1) if args.retries else None
    breaker = (
        BreakerPolicy(
            failure_threshold=args.breaker_threshold,
            cooldown_attempts=args.breaker_cooldown,
        )
        if args.breaker_threshold is not None
        else None
    )
    if (
        args.connect_timeout_ms is None
        and args.domain_budget_ms is None
        and retry is None
        and breaker is None
    ):
        return None
    return ResilienceConfig(
        connect_timeout_ms=args.connect_timeout_ms,
        domain_budget_ms=args.domain_budget_ms,
        retry=retry,
        breaker=breaker,
    )


def _make_telemetry(on):
    """A live Telemetry bundle if ``on`` (``--telemetry-out`` was given),
    else the off one — the one place the CLI decides between the two."""
    from repro.telemetry import Telemetry

    return Telemetry.resolve(Telemetry() if on else None)


def _save_telemetry(telemetry, telemetry_out: str | None) -> None:
    if telemetry_out:
        telemetry.save(telemetry_out)
        print(f"telemetry written to {telemetry_out}", file=sys.stderr)


def _parallel_config(
    workers: int, chunk_size: int | None = None, force_pool: bool = False
):
    from repro.web.parallel import ParallelScanConfig

    try:
        if workers == 0:
            auto = ParallelScanConfig.auto()
            workers = auto.workers
        return ParallelScanConfig(
            workers=workers, chunk_size=chunk_size, force_pool=force_pool
        )
    except ValueError as error:
        raise SystemExit(f"repro: error: {error}")


def _cmd_scan(args: argparse.Namespace) -> int:
    """``repro scan``: one consumer of :meth:`Scanner.scan_stream`.

    Records flow straight into the artifact writer, sampled qlogs into
    ``--qlog-out`` line by line and outcomes into the failure fold, so
    no step holds the dataset, and the population draws the targets
    shard by shard, so none holds the domain list either.
    """
    import json

    from repro.artifacts import write_records
    from repro.faults import CheckpointError, truncate_jsonl_line
    from repro.faults.taxonomy import FailureFold
    from repro.internet.population import PopulationConfig, build_population
    from repro.web.scanner import ScanConfig, Scanner

    # All configuration errors surface as one clean stderr line before
    # any work starts; stdout stays machine-parseable.
    faults = _fault_plan_from_args(args.fault)
    try:
        resilience = _resilience_from_args(args)
        scan_config = ScanConfig(
            qlog_sample_rate=args.qlog_sample_rate,
            faults=faults,
            resilience=resilience,
        )
    except ValueError as error:
        raise SystemExit(f"repro: error: {error}")
    population = build_population(
        PopulationConfig(
            toplist_domains=args.toplist, czds_domains=args.czds, seed=args.seed
        )
    )
    parallel = _parallel_config(args.workers, args.chunk_size, args.force_pool)
    print(
        f"scanning {population.domain_count} domains "
        f"(week {args.week}, IPv{args.ip_version}, "
        f"{parallel.workers} worker(s)) ...",
        file=sys.stderr,
    )
    telemetry = _make_telemetry(args.telemetry_out)
    scanner = Scanner(
        population, config=scan_config, parallel=parallel, telemetry=telemetry
    )
    fold = FailureFold() if scan_config.faults_active else None
    qlog_stream, qlog_close = (
        _open_out(args.qlog_out) if args.qlog_out else (None, False)
    )
    qlogs = truncated = 0

    def connection_stream():
        nonlocal qlogs, truncated
        for result in scanner.scan_stream(
            week_label=args.week,
            ip_version=args.ip_version,
            verbose=True,
            checkpoint_dir=args.checkpoint_dir,
        ):
            connections = result.connections
            if fold is not None:
                fold.update_columns(
                    [c.success for c in connections],
                    [c.failure for c in connections],
                )
            if qlog_stream is not None:
                for record in connections:
                    if record.qlog is None:
                        continue
                    line = json.dumps(record.qlog, separators=(",", ":"))
                    cut = truncate_jsonl_line(line, qlogs, faults, args.seed)
                    qlog_stream.write(cut + "\n")
                    qlogs += 1
                    truncated += len(cut) < len(line)
            yield from connections

    try:
        count = write_records(
            connection_stream(), args.out, format=args.artifact_format
        )
    except CheckpointError as error:
        raise SystemExit(f"repro: error: {error}")
    except (OSError, ValueError) as error:
        raise SystemExit(f"repro: error: cannot write {args.out}: {error}")
    finally:
        scanner.close()
        if qlog_close:
            qlog_stream.close()
    if qlog_stream is not None:
        print(
            f"exported {qlogs} qlog documents"
            + (f" ({truncated} truncated by fault injection)" if truncated else ""),
            file=sys.stderr,
        )
    if fold is not None:
        summary = fold.finish()
        kinds = ", ".join(f"{k}={v}" for k, v in summary["kinds"].items())
        print(
            f"failures: {summary['failed']}/{summary['total']} connections"
            + (f" ({kinds})" if kinds else ""),
            file=sys.stderr,
        )
    _save_telemetry(telemetry, args.telemetry_out)
    print(f"exported {count} connection records", file=sys.stderr)
    return 0


def _parse_where_arg(expression: str | None):
    """``--where`` text -> (predicate, stats) or ``(None, None)``."""
    if not expression:
        return None, None
    from repro.analysis.query import QueryError, QueryStats, parse_where

    try:
        return parse_where(expression), QueryStats()
    except QueryError as error:
        raise SystemExit(f"repro: error: invalid --where: {error}")


def _print_query_stats(stats, verbose: bool) -> None:
    """The planner's plan line — stderr, and only with ``--verbose``.

    Scripts piping ``repro analyze``/``repro query`` output should not
    have to filter planner chatter; the telemetry counters
    (``query.chunks_total`` etc.) stay unconditional.
    """
    if not verbose:
        return
    fallback = ", footer unreadable: sequential scan" if stats.footer_fallbacks else ""
    print(
        f"query plan: decoded {stats.chunks_selected}/{stats.chunks_total} "
        f"chunks ({stats.chunks_pruned} pruned), matched "
        f"{stats.records_matched}/{stats.records_scanned} records{fallback}",
        file=sys.stderr,
    )


def _cmd_analyze(args: argparse.Namespace) -> int:
    from repro.analysis.engine import AnalysisEngine, build_record_folds
    from repro.analysis.report import render_analysis_sections
    from repro.artifacts import open_query_source

    wanted = args.section
    if wanted == "migration":
        # Simulation study, not a dataset read: compares per-flow RTT
        # accuracy with and without CID linkage under migration chaos.
        return _cmd_analyze_migration(args)

    if args.dataset is None:
        raise SystemExit(
            "repro: error: analyze requires a dataset argument "
            "(only --section migration runs without one)"
        )
    predicate, stats = _parse_where_arg(args.where)
    telemetry = _make_telemetry(args.telemetry_out)
    engine = AnalysisEngine(build_record_folds(wanted))
    want_edges_received = engine.needs_edges_received or (
        predicate is not None and predicate.needs_edges_received
    )
    try:
        with open_query_source(
            args.dataset,
            predicate,
            stats=stats,
            want_edges_received=want_edges_received,
            want_edges_sorted=engine.needs_edges_sorted,
            errors="count",
        ) as source:
            results = engine.run(source.batches(), predicate=predicate, stats=stats)
            loaded = source.records_read
            corrupt = source.corrupt_chunks
    except OSError as error:
        raise SystemExit(f"repro: error: cannot read {args.dataset}: {error}")
    # Diagnostic, not analysis output: keep stdout machine-parseable.
    print(f"{loaded} connection records loaded", file=sys.stderr)
    if corrupt:
        print(f"{corrupt} corrupt chunks skipped", file=sys.stderr)
    if stats is not None:
        _print_query_stats(stats, args.verbose)
        stats.emit(telemetry)
    _save_telemetry(telemetry, args.telemetry_out)

    print(render_analysis_sections(results, wanted))
    return 0


def _cmd_analyze_migration(args: argparse.Namespace) -> int:
    import json

    from repro.analysis.migration import (
        render_migration_section,
        run_linkage_study,
    )
    from repro.monitor import TrafficConfig
    from repro.netsim import parse_migration_plan

    try:
        plan = parse_migration_plan(args.migrate) if args.migrate else None
        traffic = TrafficConfig(
            flows=args.flows,
            seed=args.seed,
            migration=plan,
            tcp_flows=args.tcp_flows,
        )
    except ValueError as error:
        raise SystemExit(f"repro: error: {error}")
    print(
        f"simulating {traffic.flows} QUIC + {traffic.tcp_flows} TCP flows "
        f"under plan '{args.migrate or '(none)'}' (seed {traffic.seed}) "
        "through linked and unlinked observers ...",
        file=sys.stderr,
    )
    result = run_linkage_study(traffic)
    if args.json:
        print(json.dumps(result, sort_keys=True))
    else:
        print(render_migration_section(result))
    return 0


def _cmd_query(args: argparse.Namespace) -> int:
    from repro.analysis.query import QueryStats, domain_lines

    stats = QueryStats()
    telemetry = _make_telemetry(args.telemetry_out)
    try:
        for line in domain_lines(args.dataset, args.name, stats):
            print(line)
    except OSError as error:
        raise SystemExit(f"repro: error: cannot read {args.dataset}: {error}")
    _print_query_stats(stats, args.verbose)
    stats.emit(telemetry)
    _save_telemetry(telemetry, args.telemetry_out)
    return 0


def _cmd_convert(args: argparse.Namespace) -> int:
    import os

    from repro.artifacts import (
        FORMAT_CBR,
        open_record_batches,
        resolve_write_format,
        write_records,
    )

    try:
        target = resolve_write_format(args.output, args.to)
    except ValueError as error:
        raise SystemExit(f"repro: error: {error}")

    if os.path.isdir(args.input):
        # A checkpoint directory of cbr shards: when the target is cbr
        # too, merge by frame concatenation — no decode, no re-encode.
        from repro.artifacts.cbr import CbrFormatError, concat_frames

        shards = sorted(
            os.path.join(args.input, name)
            for name in os.listdir(args.input)
            if name.startswith("shard-") and name.endswith(".cbr")
        )
        if not shards:
            raise SystemExit(
                f"repro: error: no cbr shards (shard-*.cbr) in {args.input}"
            )
        if target == FORMAT_CBR:
            try:
                with open(args.output, "wb") as out:
                    _, count = concat_frames(shards, out)
            except (OSError, CbrFormatError) as error:
                if os.path.isfile(args.output):
                    os.remove(args.output)  # ours, and torn
                raise SystemExit(f"repro: error: {error}")
            print(
                f"merged {len(shards)} shards, {count} connection records",
                file=sys.stderr,
            )
            return 0

        def shard_records():
            for shard in shards:
                with open_record_batches(shard) as source:
                    yield from source.records()

        try:
            count = write_records(shard_records(), args.output, format=target)
        except (OSError, ValueError) as error:
            raise SystemExit(f"repro: error: {error}")
        print(
            f"converted {len(shards)} shards, {count} connection records",
            file=sys.stderr,
        )
        return 0

    try:
        with open_record_batches(args.input) as source:
            count = write_records(source.records(), args.output, format=target)
    except (OSError, ValueError) as error:
        raise SystemExit(f"repro: error: {error}")
    print(f"converted {count} connection records", file=sys.stderr)
    return 0


def _cmd_compliance(args: argparse.Namespace) -> int:
    from repro.analysis.compliance import compliance_histogram
    from repro.analysis.report import render_compliance_histogram
    from repro.campaign.runner import CampaignRunner
    from repro.campaign.schedule import DEFAULT_CAMPAIGN
    from repro.internet.population import PopulationConfig, build_population

    population = build_population(
        PopulationConfig(toplist_domains=0, czds_domains=args.czds, seed=args.seed)
    )
    quic_domains = [d for d in population.iter_targets() if d.quic_enabled]
    print(
        f"scanning {len(quic_domains)} QUIC domains in {args.weeks} spread weeks ...",
        file=sys.stderr,
    )
    with CampaignRunner(
        population, DEFAULT_CAMPAIGN, parallel=_parallel_config(args.workers)
    ) as runner:
        result = runner.run_longitudinal(
            args.weeks, domains=quic_domains, verbose=True
        )
    print(render_compliance_histogram(compliance_histogram(result)))
    return 0


def _cmd_monitor(args: argparse.Namespace) -> int:
    from repro.monitor import (
        MonitorConfig,
        TrafficConfig,
        WindowConfig,
        run_monitor,
    )

    try:
        migration = None
        if args.migrate:
            from repro.netsim import parse_migration_plan

            migration = parse_migration_plan(args.migrate)
        traffic = TrafficConfig(
            flows=args.flows,
            seed=args.seed,
            arrival_window_ms=args.arrival_window_ms,
            migration=migration,
            tcp_flows=args.tcp_flows,
        )
        monitor = MonitorConfig(
            max_flows=args.max_flows,
            idle_timeout_ms=args.idle_timeout_ms,
            overflow_policy=args.overflow_policy,
            window=WindowConfig(
                window_ms=args.window_ms, slide_windows=args.slide
            ),
            track_migration=traffic.migration_active or args.tcp_flows > 0,
            cid_linkage=not args.no_cid_linkage,
        )
    except ValueError as error:
        raise SystemExit(f"repro: error: {error}")
    print(
        f"monitoring {traffic.flows} flows "
        f"(seed {traffic.seed}, {monitor.window.window_ms:.0f} ms windows, "
        f"table capacity {monitor.max_flows}) ...",
        file=sys.stderr,
    )
    faults = _fault_plan_from_args(args.fault)
    telemetry = _make_telemetry(args.telemetry_out)
    stream, close = _open_out(args.out)
    try:
        run_monitor(
            traffic,
            monitor,
            out=stream,
            verbose=True,
            telemetry=telemetry,
            faults=faults,
        )
    finally:
        if close:
            stream.close()
    _save_telemetry(telemetry, args.telemetry_out)
    return 0


def _cmd_demo(_: argparse.Namespace) -> int:
    from repro._util.rng import derive_rng
    from repro.core.metrics import compare_means
    from repro.core.observer import observe_recorder
    from repro.core.spin import SpinPolicy
    from repro.netsim.path import PathProfile
    from repro.web.http3 import ResponsePlan, run_exchange

    plan = ResponsePlan(
        server_header="LiteSpeed",
        think_time_ms=60.0,
        write_gaps_ms=(0.0, 150.0),
        write_sizes=(11_000, 11_000),
    )
    path = PathProfile(propagation_delay_ms=25.0)
    result = run_exchange(
        "www.example.com",
        plan,
        SpinPolicy.SPIN,
        SpinPolicy.SPIN,
        path,
        path,
        derive_rng(0, "cli-demo"),
    )
    observation = observe_recorder(result.recorder)
    accuracy = compare_means(
        observation.rtts_received_ms, result.recorder.stack_rtts_ms()
    )
    print(f"fetched {result.body_bytes} bytes over a 50 ms-RTT path")
    print(f"spin samples (ms): {[round(s, 1) for s in observation.rtts_received_ms]}")
    print(f"stack samples (ms): {[round(s, 1) for s in result.recorder.stack_rtts_ms()]}")
    print(f"mapped ratio: {accuracy.ratio:+.2f}")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.analysis.paper_report import generate_paper_report
    from repro.internet.population import PopulationConfig, build_population

    population = build_population(
        PopulationConfig(
            toplist_domains=args.toplist, czds_domains=args.czds, seed=args.seed
        )
    )
    print(
        f"running the full study over {population.domain_count} domains ...",
        file=sys.stderr,
    )
    report = generate_paper_report(
        population, include_longitudinal=not args.skip_longitudinal
    )
    print(report.text)
    return 0


def _cmd_telemetry(args: argparse.Namespace) -> int:
    import json
    from pathlib import Path

    from repro.telemetry import (
        SNAPSHOT_FILENAME,
        TRACE_FILENAME,
        read_trace,
        render_summary,
    )

    directory = Path(args.directory)
    snapshot_path = directory / SNAPSHOT_FILENAME
    if not snapshot_path.is_file():
        raise SystemExit(
            f"repro: error: no telemetry snapshot at {snapshot_path}"
        )
    snapshot = json.loads(snapshot_path.read_text(encoding="utf-8"))
    rows = None
    trace_path = directory / TRACE_FILENAME
    if trace_path.is_file():
        with open(trace_path, "r", encoding="utf-8", errors="replace") as stream:
            rows, skipped = read_trace(stream)
        if skipped:
            print(
                f"repro telemetry: skipped {skipped} unreadable line(s) "
                f"of {trace_path}",
                file=sys.stderr,
            )
    print(render_summary(snapshot, rows))
    return 0


def _load_slo_specs(slo_path: str | None):
    """The SLO spec set for ``repro status``: built-ins or a JSON file."""
    from repro.obs import default_service_slos, parse_slo_specs

    if not slo_path:
        return default_service_slos()
    try:
        with open(slo_path, "r", encoding="utf-8") as stream:
            text = stream.read()
    except OSError as error:
        raise SystemExit(f"repro: error: cannot read {slo_path}: {error}")
    try:
        return parse_slo_specs(text)
    except ValueError as error:
        raise SystemExit(f"repro: error: {error}")


def _cmd_status(args: argparse.Namespace) -> int:
    import json
    import os

    from repro.obs import HealthEngine

    specs = _load_slo_specs(args.slo)
    if args.url:
        from repro.obs.console import fetch_json, health_from_payload

        base = args.url.rstrip("/")
        try:
            if args.slo:
                # Custom objectives: pull the raw snapshot and judge
                # locally — the server only knows its own spec set.
                payload = fetch_json(base + "/v1/metrics")
                snapshot = payload.get("metrics", payload)
                report = HealthEngine(specs).evaluate(snapshot)
            else:
                report = health_from_payload(fetch_json(base + "/v1/status"))
        except ConnectionError as error:
            raise SystemExit(f"repro: error: {error}")
    else:
        from repro.obs import collect_service_gauges

        if not os.path.isdir(args.dir):
            raise SystemExit(
                f"repro: error: no service directory at {args.dir}"
            )
        spool, indexer = _service_stores(args)
        snapshot: dict = {"counters": {}, "gauges": {}, "histograms": {}}
        metrics_path = args.metrics
        if metrics_path is None:
            candidate = os.path.join(args.dir, "telemetry", "metrics.json")
            if os.path.isfile(candidate):
                metrics_path = candidate
        if metrics_path:
            try:
                with open(metrics_path, "r", encoding="utf-8") as stream:
                    loaded = json.load(stream)
            except (OSError, ValueError) as error:
                raise SystemExit(
                    f"repro: error: cannot read {metrics_path}: {error}"
                )
            for section in ("counters", "gauges", "histograms"):
                snapshot[section].update(loaded.get(section, {}))
        snapshot["gauges"].update(collect_service_gauges(spool, indexer))
        report = HealthEngine(specs).evaluate(snapshot)
    if args.json:
        print(json.dumps(report.to_dict(), sort_keys=True))
    else:
        print(report.render())
    return report.exit_code if args.exit_code else 0


def _cmd_profile(args: argparse.Namespace) -> int:
    import time

    from repro.internet.population import PopulationConfig, build_population
    from repro.obs import PhaseProfiler
    from repro.telemetry import Telemetry
    from repro.web.scanner import Scanner

    # Diagnostics-only wall clock, injected so the profiler package
    # itself never reads one (the determinism lint covers it).
    clock = None if args.sim else time.perf_counter  # wallclock-ok: profiling diagnostics
    try:
        profiler = PhaseProfiler(
            sample_interval_ms=args.sample_interval_ms, clock=clock
        )
    except ValueError as error:
        raise SystemExit(f"repro: error: {error}")
    telemetry = Telemetry()
    telemetry.profiler = profiler
    population = build_population(
        PopulationConfig(
            toplist_domains=args.toplist, czds_domains=args.czds, seed=args.seed
        )
    )
    print(
        f"profiling a scan of {population.domain_count} domains "
        f"(week {args.week}, IPv{args.ip_version},"
        f" {'simulated' if args.sim else 'wall'} clock) ...",
        file=sys.stderr,
    )
    started = time.perf_counter()  # wallclock-ok: coverage denominator (stderr only)
    with Scanner(population, telemetry=telemetry) as scanner:
        dataset = scanner.scan(week_label=args.week, ip_version=args.ip_version)
    elapsed_ms = (time.perf_counter() - started) * 1000.0  # wallclock-ok: coverage denominator (stderr only)
    if args.analyze:
        from repro.analysis.engine import AnalysisEngine, build_record_folds

        engine = AnalysisEngine(
            build_record_folds(("webservers", "accuracy", "versions", "filters")),
            telemetry=telemetry,
        )
        engine.run([dataset.connection_records()])
    print(profiler.render_report("repro profile"))
    if not args.sim:
        print(
            f"coverage: {profiler.coverage(elapsed_ms) * 100.0:.1f}% of "
            f"{elapsed_ms:.0f} ms scan wall time attributed",
            file=sys.stderr,
        )
    if args.out:
        stream, close = _open_out(args.out)
        try:
            for line in profiler.collapsed():
                stream.write(line + "\n")
        finally:
            if close:
                stream.close()
        if close:
            print(f"collapsed stacks written to {args.out}", file=sys.stderr)
    return 0


def _cmd_top(args: argparse.Namespace) -> int:
    from repro.obs.console import fetch_json, render_console

    base = args.url.rstrip("/")
    try:
        healthz = fetch_json(base + "/v1/healthz")
        status = fetch_json(base + "/v1/status")
        metrics = fetch_json(base + "/v1/metrics")
        spans_payload = fetch_json(base + "/v1/spans")
    except ConnectionError as error:
        raise SystemExit(f"repro: error: {error}")
    print(render_console(healthz, status, metrics, spans_payload))
    return 0


def _service_config_from_args(args: argparse.Namespace):
    """Build a ServiceConfig, routing every error through the one-line
    ``repro: error:`` convention before any directory is touched."""
    from repro.service import ServiceConfig

    try:
        return ServiceConfig(
            seed=args.seed,
            czds_domains=args.czds,
            toplist_domains=args.toplist,
            first_week=args.first_week,
            last_week=args.last_week,
            ip_version=args.ip_version,
            workers=args.workers,
        )
    except ValueError as error:
        raise SystemExit(f"repro: error: {error}")


def _service_stores(args: argparse.Namespace):
    from repro.service import SpoolStore, WeekIndexer

    try:
        spool = SpoolStore(f"{args.dir}/spool")
        indexer = WeekIndexer(f"{args.dir}/index")
    except OSError as error:
        raise SystemExit(
            f"repro: error: cannot open service directory {args.dir}: {error}"
        )
    return spool, indexer


def _cmd_service(args: argparse.Namespace) -> int:
    import json

    from repro.service import CampaignDaemon, serve_forever

    command = getattr(args, "service_command", "serve")
    if command in ("run-once", "serve"):
        config = _service_config_from_args(args)
        # A server's telemetry is what /v1/metrics, /v1/status and
        # /v1/spans answer with (and is never saved), so it is always on.
        telemetry = _make_telemetry(args.telemetry_out or command == "serve")
        try:
            daemon = CampaignDaemon(args.dir, config, telemetry=telemetry)
        except OSError as error:
            raise SystemExit(
                f"repro: error: cannot open service directory {args.dir}: {error}"
            )
        if command == "run-once":
            status = daemon.run_once(max_weeks=args.max_weeks, verbose=True)
            _save_telemetry(telemetry, args.telemetry_out)
            print(json.dumps(status, sort_keys=True))
            return 0
        if args.port < 0 or args.port > 65535:
            raise SystemExit(f"repro: error: invalid port {args.port}")
        try:
            serve_forever(
                daemon,
                host=args.host,
                port=args.port,
                interval_s=None if args.no_scan else args.interval_s,
            )
        except ValueError as error:
            raise SystemExit(f"repro: error: {error}")
        except OSError as error:
            raise SystemExit(
                f"repro: error: cannot bind {args.host}:{args.port}: {error}"
            )
        return 0

    spool, indexer = _service_stores(args)
    telemetry = _make_telemetry(args.telemetry_out)
    if command == "submit":
        for path in args.artifacts:
            try:
                entry = spool.submit_file(path)
            except OSError as error:
                raise SystemExit(f"repro: error: cannot read {path}: {error}")
            print(
                f"spooled {path} as {entry.fingerprint}"
                + ("" if entry.new else " (duplicate payload)"),
                file=sys.stderr,
            )
    folded = indexer.fold_pending(spool)
    telemetry.registry.counter("service.artifacts_folded").inc(len(folded))
    _save_telemetry(telemetry, args.telemetry_out)
    print(
        json.dumps(
            {"folded_artifacts": folded, "indexed_weeks": indexer.weeks()},
            sort_keys=True,
        )
    )
    return 0


_COMMANDS = {
    "scan": _cmd_scan,
    "report": _cmd_report,
    "analyze": _cmd_analyze,
    "query": _cmd_query,
    "convert": _cmd_convert,
    "compliance": _cmd_compliance,
    "monitor": _cmd_monitor,
    "demo": _cmd_demo,
    "telemetry": _cmd_telemetry,
    "service": _cmd_service,
    "serve": _cmd_service,
    "status": _cmd_status,
    "profile": _cmd_profile,
    "top": _cmd_top,
}


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = _build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
