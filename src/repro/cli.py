"""Command-line interface for the spin-bit reproduction.

The subcommands mirror the study's workflow::

    repro scan        # build a population, scan it, export the dataset
    repro analyze     # run the connection-level analyses on a dataset
    repro query       # index-backed point lookups (e.g. one domain)
    repro convert     # export cbr as JSONL, re-encode it, merge shards
    repro compliance  # the Figure 2 longitudinal study
    repro report      # regenerate every table and figure in one run
    repro monitor     # streaming on-path monitoring of many-flow traffic
    repro demo        # one observed connection, spin vs stack RTT
    repro service     # campaign daemon + week index + HTTP query API
    repro status      # SLO health + telemetry digest (live server or directory)
    repro profile     # sampling profiler over a seeded scan

``scan`` writes the artifact that ``analyze`` consumes — the columnar
binary ``cbr`` store — so the two halves can run on different machines,
exactly how the paper separates measurement from analysis; ``convert``
exports it as the Appendix-B JSONL schema, which nothing reads back.
``analyze`` streams the artifact through the single-pass
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

The parser is one table (DESIGN.md §16): ``_FLAGS`` declares each flag
once, and each ``_ROWS`` row names a subcommand's handler, the library
configs it builds and the flags it takes.  A flag's default is the
row's own, else the default of the config field it sets, else the
declaration's.  Handlers build every config through ``_checked`` before
any output or work, so an invalid value is one ``repro: error:`` line.

Output discipline: stdout carries only machine-parseable command output
(datasets, analysis blocks, summaries); every progress or diagnostic
line goes to stderr.  ``--telemetry-out DIR`` on ``scan`` and
``monitor`` additionally writes the deterministic telemetry directory
(see :mod:`repro.telemetry`), which ``repro status --dir DIR``
renders for humans.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
from typing import Callable, NamedTuple, Sequence

from repro.analysis.engine import RECORD_SECTIONS
from repro.core.flow_table import OVERFLOW_POLICIES
from repro.faults import (
    BreakerPolicy,
    ResilienceConfig,
    RetryPolicy,
    parse_fault_plan,
    truncate_jsonl_line,
)
from repro.internet.population import PopulationConfig, build_population
from repro.monitor import MonitorConfig, TrafficConfig, WindowConfig, run_monitor
from repro.netsim import parse_migration_plan
from repro.service import CampaignDaemon, ServiceConfig, SpoolStore, WeekIndexer, serve_forever
from repro.web.parallel import ParallelScanConfig
from repro.web.scanner import ScanConfig, Scanner

__all__ = ["main"]

#: Every flag and positional argument, declared once as its
#: ``add_argument`` keywords.  A default given here is one that no
#: library config holds and that no row overrides.
_FLAGS: dict[str, dict] = {
    "--czds": dict(type=int, help="CZDS domain count"),
    "--toplist": dict(type=int, help="toplist domain count"),
    "--seed": dict(
        type=int,
        help="seed of the population, or of the simulated traffic (monitor, "
        "and analyze's migration section)",
    ),
    "--week": dict(default="cw20-2023", help="calendar week label"),
    "--ip-version": dict(type=int, choices=(4, 6), default=4),
    "--workers": dict(
        type=int, help="scan worker processes (1 = in-process; 0 = one per core)"
    ),
    "--chunk-size": dict(type=int, help="domains per worker shard (default: auto)"),
    "--force-pool": dict(
        action="store_true",
        help="always dispatch through the worker pool, even when the "
        "engine would fall back in-process (single core / single shard)",
    ),
    "--out": dict(
        required=True,
        help="output path: scan's cbr artifact (for the JSONL export, run "
        "'repro convert OUT.cbr OUT.jsonl' afterwards), monitor's snapshot "
        "JSONL, profile's collapsed stacks (flamegraph input); '-' for stdout "
        "(monitor, profile)",
    ),
    "--telemetry-out": dict(
        metavar="DIR",
        help="write deterministic telemetry to this directory: trace.jsonl, "
        "metrics.prom, ... for scan and monitor, the query planner counters "
        "for analyze and query, this invocation's for service",
    ),
    "--fault": dict(
        action="append",
        metavar="SPEC",
        help="inject seeded faults: 'kind:prob[:magnitude]' (comma-separable, "
        "repeatable); kinds: loss-burst, blackhole, handshake-stall, "
        "vn-failure, reset, slow-server, qlog-truncate, corrupt-datagram; "
        "in monitor's tap stream, 'corrupt-datagram:prob' truncates that "
        "fraction of datagrams",
    ),
    "--connect-timeout-ms": dict(
        type=float, help="simulated-time budget per connection attempt"
    ),
    "--domain-budget-ms": dict(
        type=float, help="simulated-time budget per domain (caps retries)"
    ),
    "--retries": dict(
        type=int,
        default=0,
        help="retry attempts after a retryable failure (default 0)",
    ),
    "--breaker-threshold": dict(
        type=int,
        help="trip a per-provider circuit breaker after this many "
        "consecutive failures (default: off)",
    ),
    "--breaker-cooldown": dict(
        type=int, help="attempts a tripped breaker skips before half-opening"
    ),
    "--checkpoint-dir": dict(
        metavar="DIR",
        help="crash-safe resume: persist completed shards in the scan's own "
        "directory under DIR (named on stderr) and load them back when "
        "re-running the same scan",
    ),
    "--qlog-sample-rate": dict(
        type=float, help="fraction of connections to capture full qlogs for"
    ),
    "--qlog-out": dict(
        help="write sampled qlog documents as JSONL ('-' for stdout)"
    ),
    "dataset": dict(
        help="artifact path ('-' for stdin); analyze needs none for "
        "--section migration, which simulates its own traffic",
    ),
    "--section": dict(choices=(*RECORD_SECTIONS, "migration", "all"), default="all"),
    "--flows": dict(
        type=int,
        help="concurrent QUIC flows to simulate (analyze: migration section)",
    ),
    "--tcp-flows": dict(
        type=int,
        help="multiplex N simulated TCP flows into the tap (exercises "
        "transport classification; analyze: migration section)",
    ),
    "--migrate": dict(
        metavar="PLAN",
        help="inject seeded connection migrations mid-flow; comma-separated "
        "kind:probability[:delay_ms] with kinds nat-rebind, cid-rotation, "
        "path-migration (e.g. 'nat-rebind:0.3,path-migration:0.05'); "
        "analyze: the migration section's plan",
    ),
    "--json": dict(
        action="store_true",
        help="emit JSON instead of the rendered text: the study result of "
        "analyze's migration section, or status's structured report",
    ),
    "--where": dict(
        metavar="EXPR",
        help="filter records before analysis, with zone-map chunk pruning "
        "on cbr artifacts; e.g. \"provider == cloudflare and week between "
        "cw20-2023 and cw25-2023\" (operators: ==, in, between, present; "
        "clauses joined by 'and')",
    ),
    "--verbose": dict(
        action="store_true",
        help="print the query-planner plan line to stderr (off by default "
        "so piped output stays clean; telemetry counters are unaffected)",
    ),
    "name": dict(help="registered domain name to look up"),
    "input": dict(help="cbr artifact path, or one scan's checkpoint directory of shards"),
    "output": dict(
        help="output path: '.jsonl' writes the JSONL export, anything else cbr"
    ),
    "--weeks": dict(type=int, default=12),
    "--skip-longitudinal": dict(
        action="store_true", help="skip the 12-week Figure 2 study (the slowest part)"
    ),
    "--arrival-window-ms": dict(
        type=float, help="flow starts are staggered uniformly over this span"
    ),
    "--window-ms": dict(type=float, help="aggregation window width"),
    "--slide": dict(
        type=int, help="sliding view over the last N windows (1 = tumbling only)"
    ),
    "--max-flows": dict(type=int, help="flow-table capacity"),
    "--idle-timeout-ms": dict(type=float, help="retire flows idle for this long"),
    "--overflow-policy": dict(
        choices=OVERFLOW_POLICIES, help="behaviour when the flow table is full"
    ),
    "--no-cid-linkage": dict(
        action="store_true",
        help="disable CID-to-flow linkage in the resolver (degraded control "
        "arm: migrations split flows instead of being tracked)",
    ),
    "--dir": dict(
        required=True,
        metavar="DIR",
        help="service directory (spool/ and index/ live underneath); status "
        "reads it, or a --telemetry-out directory, offline",
    ),
    "--first-week": dict(help="first campaign week label"),
    "--last-week": dict(help="last campaign week label"),
    "--max-weeks": dict(
        type=int, help="scan at most this many pending weeks this tick (default: all)"
    ),
    "--host": dict(default="127.0.0.1"),
    "--port": dict(type=int, default=8323),
    "--interval-s": dict(
        type=float,
        default=3600.0,
        help="scan-scheduler cadence in wall-clock seconds",
    ),
    "--no-scan": dict(
        action="store_true", help="serve the existing index only; schedule no scans"
    ),
    "artifacts": dict(nargs="+", help="artifact paths to spool"),
    "--url": dict(
        metavar="URL", help="base URL of a running 'repro service serve' API"
    ),
    "--slo": dict(
        metavar="FILE",
        help="JSON list of SLO specs replacing the built-in objectives",
    ),
    "--exit-code": dict(
        action="store_true",
        help="exit 0 when ok, 1 when degraded, 2 when failing (shell gate)",
    ),
    "--sample-interval-ms": dict(
        type=float,
        default=1.0,
        help="milliseconds of self time per synthetic sample",
    ),
    "--analyze": dict(
        action="store_true",
        help="also run the analysis folds over the scanned dataset, "
        "profiled per section",
    ),
}

#: Flags whose dest is not the name of the config field they set.
_FIELD = {
    "czds": "czds_domains",
    "toplist": "toplist_domains",
    "slide": "slide_windows",
    "breaker_threshold": "failure_threshold",
    "breaker_cooldown": "cooldown_attempts",
}


class _Row(NamedTuple):
    """One subcommand; a row without a handler is a group of them."""

    name: str
    help: str
    handler: Callable[[argparse.Namespace], int] | None = None
    #: The library configs the handler builds; a flag that sets one of
    #: their fields defaults to that field's default.
    configs: tuple[type, ...] = ()
    #: Flag names; a tuple of names is a group of which one is given.
    flags: tuple = ()
    #: Defaults that exist only in the CLI, by dest.  A default makes a
    #: required flag optional and a positional argument ``nargs="?"``.
    defaults: dict = {}


def _add_flags(parser: argparse.ArgumentParser, row: _Row) -> None:
    fields = {
        field.name: field.default
        for config in row.configs
        for field in dataclasses.fields(config)
        if field.default is not dataclasses.MISSING
    }
    for entry in row.flags:
        group = isinstance(entry, tuple)
        target = parser.add_mutually_exclusive_group(required=True) if group else parser
        for name in entry if group else (entry,):
            kwargs = dict(_FLAGS[name])
            dest = name.lstrip("-").replace("-", "_")
            field = _FIELD.get(dest, dest)
            if dest in row.defaults:
                kwargs["default"] = row.defaults[dest]
                kwargs.pop("required", None)
                if not name.startswith("-"):
                    kwargs["nargs"] = "?"
            elif field in fields:
                kwargs["default"] = fields[field]
            target.add_argument(name, **kwargs)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Does It Spin?' (IMC 2023): scan a "
        "synthetic web population for QUIC spin-bit adoption and analyze "
        "the resulting dataset.",
    )
    groups = {"": parser.add_subparsers(dest="command", required=True)}
    for row in _ROWS:
        group, _, name = row.name.rpartition(" ")
        command = groups[group].add_parser(name, help=row.help)
        if row.handler is None:
            groups[row.name] = command.add_subparsers(
                dest=f"{name}_command", required=True
            )
        _add_flags(command, row)
    return parser


def _checked(build, *args, **kwargs):
    """``build(*args, **kwargs)``, its ValueError (an invalid option
    value) turned into the one-line ``repro: error:`` exit."""
    try:
        return build(*args, **kwargs)
    except ValueError as error:
        raise SystemExit(f"repro: error: {error}")


def _config(config_type, args: argparse.Namespace, **given):
    """A ``config_type`` from the flags that set its fields, and
    ``given``, through :func:`_checked`."""
    values = {_FIELD.get(dest, dest): value for dest, value in vars(args).items()}
    names = [field.name for field in dataclasses.fields(config_type)]
    picked = {name: values[name] for name in names if name in values}
    return _checked(config_type, **{**picked, **given})


def _open_out(path: str):
    if path == "-":
        return sys.stdout, False
    try:
        return open(path, "w", encoding="utf-8"), True
    except OSError as error:
        raise SystemExit(f"repro: error: cannot write {path}: {error}")


def _plan(parse, text: str | None):
    """The ``--fault`` / ``--migrate`` plan ``text`` describes, or ``None``."""
    return _checked(parse, text) if text else None


def _resilience(args: argparse.Namespace):
    """The scan flags' ResilienceConfig; ``None`` when all are off."""
    retry = _checked(RetryPolicy, max_attempts=args.retries + 1) if args.retries else None
    breaker = _config(BreakerPolicy, args) if args.breaker_threshold is not None else None
    if (
        args.connect_timeout_ms is None
        and args.domain_budget_ms is None
        and retry is None
        and breaker is None
    ):
        return None
    return _config(ResilienceConfig, args, retry=retry, breaker=breaker)


def _parallel(args: argparse.Namespace):
    """The ParallelScanConfig of ``--workers`` (0 = one per core)."""
    workers = args.workers or ParallelScanConfig.auto().workers
    return _config(ParallelScanConfig, args, workers=workers)


def _make_telemetry(on):
    """A live Telemetry bundle if ``on`` (``--telemetry-out`` was given),
    else the off one — the one place the CLI decides between the two."""
    from repro.telemetry import Telemetry

    return Telemetry.resolve(Telemetry() if on else None)


def _save_telemetry(telemetry, telemetry_out: str | None) -> None:
    if telemetry_out:
        telemetry.save(telemetry_out)
        print(f"telemetry written to {telemetry_out}", file=sys.stderr)


def _refuse_non_cbr_out(path: str) -> None:
    """A cbr artifact is written to a file: stdout and ``.jsonl`` paths
    are refused, since JSONL is an export of a finished artifact."""
    if path == "-" or path.endswith(".jsonl"):
        raise SystemExit(
            f"repro: error: cannot write cbr to {path!r}: give a file path such "
            "as OUT.cbr, then 'repro convert OUT.cbr OUT.jsonl' for the JSONL export"
        )


def _cmd_scan(args: argparse.Namespace) -> int:
    """``repro scan``: one consumer of :meth:`Scanner.scan_stream`.

    Records flow straight into the artifact writer, sampled qlogs into
    ``--qlog-out`` line by line and outcomes into the failure fold, so
    no step holds the dataset, and the population draws the targets
    shard by shard, so none holds the domain list either.
    """
    import json

    from repro.artifacts.cbr import write_records_cbr
    from repro.faults.taxonomy import FailureFold

    _refuse_non_cbr_out(args.out)
    faults = _plan(parse_fault_plan, ",".join(args.fault or ()))
    scan_config = _config(ScanConfig, args, faults=faults, resilience=_resilience(args))
    population_config = _config(PopulationConfig, args)
    parallel = _parallel(args)
    population = build_population(population_config)
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
        with open(args.out, "wb") as stream:
            count = write_records_cbr(connection_stream(), stream)
    except OSError as error:
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

    traffic = _config(TrafficConfig, args, migration=_plan(parse_migration_plan, args.migrate))
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
    """``repro convert IN OUT``: ``IN`` is a cbr artifact or one scan's
    checkpoint directory of cbr shards.  An ``OUT`` ending in ``.jsonl``
    gets the Appendix B export; any other ``OUT`` is cbr — the shards'
    frames copied (no decode, no re-encode), or the artifact re-encoded.
    A failed convert leaves no ``OUT`` behind."""
    import os

    from repro.analysis.artifacts import export_records
    from repro.artifacts import open_record_batches
    from repro.artifacts.cbr import CbrFormatError, concat_frames, write_records_cbr

    export = args.output.endswith(".jsonl")
    if not export:
        _refuse_non_cbr_out(args.output)
    merge = os.path.isdir(args.input)
    sources = [args.input]
    if merge:
        sources = sorted(
            os.path.join(args.input, name)
            for name in os.listdir(args.input)
            if name.startswith("shard-") and name.endswith(".cbr")
        )
        if not sources:
            raise SystemExit(
                f"repro: error: no cbr shards (shard-*.cbr) in {args.input} "
                "(a scan's own directory is the one repro scan names)"
            )

    def records():
        for path in sources:
            with open_record_batches(path) as source:
                yield from source.records()

    try:
        if export:
            with open(args.output, "w", encoding="utf-8") as out:
                count = export_records(records(), out)
        else:
            with open(args.output, "wb") as out:
                if merge:
                    _, count = concat_frames(sources, out)
                else:
                    count = write_records_cbr(records(), out)
    except (OSError, CbrFormatError) as error:
        if os.path.isfile(args.output):
            os.remove(args.output)  # ours, and torn
        raise SystemExit(f"repro: error: {error}")
    shards = f"{len(sources)} shards, " if merge else ""
    print(f"converted {shards}{count} connection records", file=sys.stderr)
    return 0


def _cmd_compliance(args: argparse.Namespace) -> int:
    from repro.analysis.compliance import ComplianceFold, scan_flags
    from repro.analysis.report import render_compliance_histogram
    from repro.campaign.schedule import DEFAULT_CAMPAIGN

    weeks = _checked(DEFAULT_CAMPAIGN.select_spread_weeks, args.weeks)
    population_config = _config(PopulationConfig, args, toplist_domains=0)
    parallel = _parallel(args)
    population = build_population(population_config)
    quic_domains = [d for d in population.iter_targets() if d.quic_enabled]
    print(
        f"scanning {len(quic_domains)} QUIC domains in {args.weeks} spread weeks ...",
        file=sys.stderr,
    )
    fold = ComplianceFold(len(weeks))
    with Scanner(population, parallel=parallel) as scanner:
        fold.update_many(
            scan_flags(scanner, quic_domains, [(week.label, 0) for week in weeks])
        )
    print(render_compliance_histogram(fold.finish()))
    return 0


def _cmd_monitor(args: argparse.Namespace) -> int:
    traffic = _config(TrafficConfig, args, migration=_plan(parse_migration_plan, args.migrate))
    monitor = _config(
        MonitorConfig,
        args,
        window=_config(WindowConfig, args),
        track_migration=traffic.migration_active or args.tcp_flows > 0,
        cid_linkage=not args.no_cid_linkage,
    )
    faults = _plan(parse_fault_plan, ",".join(args.fault or ()))
    print(
        f"monitoring {traffic.flows} flows "
        f"(seed {traffic.seed}, {monitor.window.window_ms:.0f} ms windows, "
        f"table capacity {monitor.max_flows}) ...",
        file=sys.stderr,
    )
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

    population = build_population(_config(PopulationConfig, args))
    print(
        f"running the full study over {population.domain_count} domains ...",
        file=sys.stderr,
    )
    report = generate_paper_report(
        population, include_longitudinal=not args.skip_longitudinal
    )
    print(report.text)
    return 0


def _cmd_status(args: argparse.Namespace) -> int:
    import json

    from repro.obs import HealthEngine, default_service_slos, parse_slo_specs
    from repro.obs.snapshot import load_snapshot
    from repro.telemetry import render_summary

    specs = default_service_slos()
    if args.slo:
        try:
            with open(args.slo, encoding="utf-8") as stream:
                text = stream.read()
        except OSError as error:
            raise SystemExit(f"repro: error: cannot read {args.slo}: {error}")
        specs = _checked(parse_slo_specs, text)
    try:
        snapshot, rows, skipped = _checked(load_snapshot, args.url, args.dir)
    except ConnectionError as error:
        raise SystemExit(f"repro: error: {error}")
    if skipped:
        print(
            f"repro status: skipped {skipped} unreadable line(s) of the trace "
            f"at {args.url or args.dir}",
            file=sys.stderr,
        )
    report = HealthEngine(specs).evaluate(snapshot)
    if args.json:
        print(json.dumps(report.to_dict(), sort_keys=True))
    else:
        print(report.render())
        print(render_summary(snapshot, rows))
    return report.exit_code if args.exit_code else 0


def _cmd_profile(args: argparse.Namespace) -> int:
    import time

    from repro.obs import PhaseProfiler
    from repro.telemetry import Telemetry

    # Diagnostics-only wall clock, injected so the profiler package
    # itself never reads one (the determinism lint covers it).
    profiler = _checked(
        PhaseProfiler,
        clock=time.perf_counter,  # wallclock-ok: profiling diagnostics
        sample_interval_ms=args.sample_interval_ms,
    )
    telemetry = Telemetry()
    telemetry.profiler = profiler
    population = build_population(_config(PopulationConfig, args))
    print(
        f"profiling a scan of {population.domain_count} domains "
        f"(week {args.week}, IPv{args.ip_version},"
        " wall clock) ...",
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


def _service_stores(args: argparse.Namespace):
    try:
        spool = SpoolStore(f"{args.dir}/spool")
        indexer = WeekIndexer(f"{args.dir}/index")
    except OSError as error:
        raise SystemExit(
            f"repro: error: cannot open service directory {args.dir}: {error}"
        )
    return spool, indexer


def _daemon(args: argparse.Namespace, config: ServiceConfig, telemetry):
    try:
        return CampaignDaemon(args.dir, config, telemetry=telemetry)
    except OSError as error:
        raise SystemExit(
            f"repro: error: cannot open service directory {args.dir}: {error}"
        )


def _cmd_run_once(args: argparse.Namespace) -> int:
    import json

    config = _config(ServiceConfig, args)
    telemetry = _make_telemetry(args.telemetry_out)
    status = _daemon(args, config, telemetry).run_once(
        max_weeks=args.max_weeks, verbose=True
    )
    _save_telemetry(telemetry, args.telemetry_out)
    print(json.dumps(status, sort_keys=True))
    return 0


def _check_listener(port: int, interval_s: float | None) -> None:
    """The values ``serve_forever`` refuses, checked before the service
    directory is opened."""
    if not 0 <= port <= 65535:
        raise ValueError(f"invalid port {port}")
    if interval_s is not None and interval_s <= 0:
        raise ValueError("tick interval must be positive")


def _cmd_serve(args: argparse.Namespace) -> int:
    config = _config(ServiceConfig, args)
    interval_s = None if args.no_scan else args.interval_s
    _checked(_check_listener, args.port, interval_s)
    # A server's telemetry is what /v1/metrics, /v1/status and
    # /v1/spans answer with (and is never saved), so it is always on.
    daemon = _daemon(args, config, _make_telemetry(True))
    try:
        serve_forever(daemon, host=args.host, port=args.port, interval_s=interval_s)
    except OSError as error:
        raise SystemExit(
            f"repro: error: cannot bind {args.host}:{args.port}: {error}"
        )
    return 0


def _cmd_fold(args: argparse.Namespace) -> int:
    """``service index`` / ``service submit``: spool the given artifacts,
    then fold every one the ledger does not list yet."""
    import json

    from repro.artifacts.cbr import CbrFormatError

    spool, indexer = _service_stores(args)
    telemetry = _make_telemetry(args.telemetry_out)
    for path in getattr(args, "artifacts", ()):
        try:
            entry = spool.submit_file(path)
        except OSError as error:
            raise SystemExit(f"repro: error: cannot read {path}: {error}")
        except CbrFormatError as error:
            raise SystemExit(f"repro: error: cannot spool {path}: {error}")
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


_TARGET_FLAGS = ("--czds", "--toplist", "--seed", "--week", "--ip-version")
_CAMPAIGN_FLAGS = (
    "--dir", "--telemetry-out", "--seed", "--czds", "--toplist",
    "--first-week", "--last-week", "--ip-version", "--workers",
)

_ROWS = (
    _Row(
        "scan",
        "run a weekly measurement into a cbr artifact",
        _cmd_scan,
        (
            PopulationConfig, ScanConfig, ParallelScanConfig, ResilienceConfig,
            RetryPolicy, BreakerPolicy,
        ),
        (
            *_TARGET_FLAGS, "--workers", "--chunk-size", "--force-pool", "--out",
            "--telemetry-out", "--fault", "--connect-timeout-ms", "--domain-budget-ms",
            "--retries", "--breaker-threshold", "--breaker-cooldown", "--checkpoint-dir",
            "--qlog-sample-rate", "--qlog-out",
        ),
        dict(czds=8_000, toplist=1_000, breaker_threshold=None),
    ),
    _Row(
        "analyze",
        "analyze a cbr artifact",
        _cmd_analyze,
        (TrafficConfig,),
        (
            "dataset", "--section", "--flows", "--tcp-flows", "--seed", "--migrate",
            "--json", "--where", "--telemetry-out", "--verbose",
        ),
        dict(
            dataset=None,
            flows=120,
            tcp_flows=10,
            migrate="nat-rebind:0.3,cid-rotation:0.3,path-migration:0.1",
        ),
    ),
    _Row(
        "query",
        "index-backed point lookups over an artifact (cbr footer "
        "domain index + zone maps)",
    ),
    _Row(
        "query domain",
        "print every connection record of one domain as JSONL",
        _cmd_query,
        flags=("name", "dataset", "--telemetry-out", "--verbose"),
    ),
    _Row(
        "convert",
        "export a cbr artifact as Appendix B JSONL, re-encode it, or "
        "merge a checkpoint directory of cbr shards",
        _cmd_convert,
        flags=("input", "output"),
    ),
    _Row(
        "compliance",
        "12-week longitudinal RFC-compliance study (Figure 2)",
        _cmd_compliance,
        (PopulationConfig, ParallelScanConfig),
        ("--czds", "--seed", "--weeks", "--workers"),
        dict(czds=5_000),
    ),
    _Row(
        "report",
        "regenerate every table and figure of the paper",
        _cmd_report,
        (PopulationConfig,),
        ("--czds", "--toplist", "--seed", "--skip-longitudinal"),
        dict(czds=8_000, toplist=1_000),
    ),
    _Row(
        "monitor",
        "streaming on-path spin monitoring of interleaved many-flow traffic",
        _cmd_monitor,
        (TrafficConfig, MonitorConfig, WindowConfig),
        (
            "--flows", "--seed", "--arrival-window-ms", "--window-ms", "--slide",
            "--max-flows", "--idle-timeout-ms", "--overflow-policy", "--out",
            "--telemetry-out", "--fault", "--migrate", "--tcp-flows", "--no-cid-linkage",
        ),
        dict(flows=200),
    ),
    _Row("demo", "one simulated connection, spin vs stack RTT", _cmd_demo),
    _Row(
        "service",
        "measurement-as-a-service plane: campaign daemon, incremental "
        "week index, HTTP/JSON query API",
    ),
    _Row(
        "service run-once",
        "one daemon tick: scan pending campaign weeks into the spool "
        "and fold every new artifact into the week index",
        _cmd_run_once,
        (ServiceConfig,),
        (*_CAMPAIGN_FLAGS, "--max-weeks"),
    ),
    _Row(
        "service serve",
        "run the HTTP/JSON query API (plus the scan scheduler)",
        _cmd_serve,
        (ServiceConfig,),
        (*_CAMPAIGN_FLAGS, "--host", "--port", "--interval-s", "--no-scan"),
    ),
    _Row(
        "service index",
        "fold every spooled artifact the ledger does not list yet",
        _cmd_fold,
        flags=("--dir", "--telemetry-out"),
    ),
    _Row(
        "service submit",
        "spool existing artifact files (content-addressed, dedup on "
        "identical bytes) and fold them into the week index",
        _cmd_fold,
        flags=("--dir", "--telemetry-out", "artifacts"),
    ),
    _Row(
        "status",
        "evaluate SLOs into a health verdict and digest the telemetry, "
        "from a live server or a service or telemetry directory",
        _cmd_status,
        flags=(("--dir", "--url"), "--slo", "--json", "--exit-code"),
        defaults=dict(dir=None),
    ),
    _Row(
        "profile",
        "run the sampling profiler over a seeded scan and report "
        "per-phase self time",
        _cmd_profile,
        (PopulationConfig,),
        (*_TARGET_FLAGS, "--sample-interval-ms", "--analyze", "--out"),
        dict(czds=400, toplist=100, out=None),
    ),
)


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = _build_parser().parse_args(argv)
    sub = getattr(args, f"{args.command}_command", None)
    name = f"{args.command} {sub}" if sub else args.command
    try:
        code = next(row for row in _ROWS if row.name == name).handler(args)
        sys.stdout.flush()  # a closed pipe shows here, not at exit
    except BrokenPipeError:
        # The reader went away (``repro status | head -1``): the rest of
        # the output goes to devnull, so the flush at exit raises nothing.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 1
    return code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
