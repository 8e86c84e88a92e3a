#!/usr/bin/env python3
"""Streaming scan demo: millions of domains, bounded RSS.

Validates the scan engine's bounded-memory claim end to end: a
:class:`~repro.internet.population.Population` draws the targets block
by block (never as a Python list), ``Scanner.scan_stream``
keeps only a bounded window of shards in flight, and results flow
straight into the artifact writer.  The parent process's resident set
must therefore stay flat no matter how many domains the scan covers.

The script samples ``VmRSS`` from ``/proc/self/status`` as the scan
progresses and reports the kernel's high-water mark (``VmHWM``) at the
end, alongside throughput.  ``--max-rss-mb`` turns the report into a
gate: exit nonzero when the parent's peak RSS exceeds the bound.

Examples::

    # the acceptance run: 1M domains, bounded RSS, records discarded
    python scripts/stream_scan.py --toplist 30000 --czds 970000

    # export an artifact while streaming, pool forced on a small host
    python scripts/stream_scan.py --czds 200000 --workers 4 \
        --force-pool --out /tmp/stream.cbr
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.artifacts import write_records  # noqa: E402
from repro.internet.population import Population, PopulationConfig  # noqa: E402
from repro.web.parallel import ParallelScanConfig  # noqa: E402
from repro.web.scanner import ScanConfig, Scanner  # noqa: E402


def _status_kb(field: str) -> int:
    """Read one kB-valued field (VmRSS, VmHWM) from /proc/self/status."""
    try:
        with open("/proc/self/status", encoding="ascii") as stream:
            for line in stream:
                if line.startswith(field + ":"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--toplist", type=int, default=30_000)
    parser.add_argument("--czds", type=int, default=970_000)
    parser.add_argument("--seed", type=int, default=20230520)
    parser.add_argument("--week", default="cw20-2023")
    parser.add_argument("--ip-version", type=int, default=4, choices=(4, 6))
    parser.add_argument("--workers", type=int, default=1)
    parser.add_argument("--chunk-size", type=int, default=None)
    parser.add_argument("--force-pool", action="store_true")
    parser.add_argument(
        "--out", default=None, help="artifact path (default: discard, count only)"
    )
    parser.add_argument(
        "--progress-every",
        type=int,
        default=50_000,
        help="print a progress + RSS line every N domains",
    )
    parser.add_argument(
        "--max-rss-mb",
        type=float,
        default=None,
        help="fail when the parent's peak RSS exceeds this bound",
    )
    args = parser.parse_args(argv)

    population = Population(
        PopulationConfig(
            toplist_domains=args.toplist, czds_domains=args.czds, seed=args.seed
        )
    )
    parallel = ParallelScanConfig(
        workers=args.workers,
        chunk_size=args.chunk_size,
        force_pool=args.force_pool,
    )
    total = population.domain_count
    baseline_kb = _status_kb("VmRSS")
    print(
        f"streaming scan: {total} domains, {args.workers} worker(s), "
        f"baseline RSS {baseline_kb / 1024:.1f} MB",
        flush=True,
    )

    scanner = Scanner(population, ScanConfig(), parallel=parallel)
    state = {"domains": 0, "connections": 0, "quic": 0, "next_mark": 0}
    started = time.perf_counter()

    def results():
        for result in scanner.scan_stream(
            week_label=args.week, ip_version=args.ip_version
        ):
            state["domains"] += 1
            state["connections"] += len(result.connections)
            if result.quic_support:
                state["quic"] += 1
            if state["domains"] >= state["next_mark"]:
                state["next_mark"] += args.progress_every
                rss_kb = _status_kb("VmRSS")
                elapsed = time.perf_counter() - started
                rate = state["domains"] / elapsed if elapsed else 0.0
                print(
                    f"  {state['domains']:>9}/{total} domains  "
                    f"{rate:8.0f}/s  RSS {rss_kb / 1024:7.1f} MB",
                    flush=True,
                )
            yield result

    try:
        if args.out:
            written = write_records(
                (
                    record
                    for result in results()
                    for record in result.connections
                ),
                args.out,
            )
        else:
            for result in results():
                pass
            written = 0
    finally:
        scanner.close()

    elapsed = time.perf_counter() - started
    peak_kb = _status_kb("VmHWM")
    print(
        f"done: {state['domains']} domains ({state['quic']} QUIC-capable), "
        f"{state['connections']} connections in {elapsed:.1f} s "
        f"({state['domains'] / elapsed:.0f} domains/s)"
    )
    if args.out:
        print(f"wrote {written} connection records to {args.out}")
    stats = scanner.last_scan_stats
    print(
        f"executor: pool={stats['pool']} workers={stats['workers']} "
        f"shards scanned={stats['units']} "
        f"max_outstanding={stats['max_outstanding']}"
    )
    print(
        f"parent peak RSS {peak_kb / 1024:.1f} MB "
        f"(baseline {baseline_kb / 1024:.1f} MB)"
    )
    if args.max_rss_mb is not None and peak_kb / 1024 > args.max_rss_mb:
        print(
            f"RSS gate FAILED: peak {peak_kb / 1024:.1f} MB > "
            f"bound {args.max_rss_mb:.1f} MB",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
