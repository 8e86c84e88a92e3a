"""``python3 -m bench run|compare`` — see bench/README.md."""

from __future__ import annotations

import argparse
import sys


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python3 -m bench")
    commands = parser.add_subparsers(dest="command", required=True)

    run = commands.add_parser("run", help="measure one workload, or all of them")
    run.add_argument("--workload", help="one workload in this process (default: all)")
    run.add_argument("--seed", type=int, default=None)
    run.add_argument("--seconds", type=float, default=None,
                     help="measured time per run (default: run_seconds of BENCHMARK.json)")
    run.add_argument("--trace", type=int, choices=(0, 1), default=0,
                     help="1: the traced pass that reports the per-layer metrics")
    run.add_argument("--traced", action="store_true",
                     help="all workloads: add one traced pass of each")
    run.add_argument("--scale", choices=("full", "smoke"), default="full")
    run.add_argument("--runs", type=int, default=1,
                     help="all workloads: untraced runs of each")
    run.add_argument("--out", help="all workloads: write the set of runs to this file")

    compare = commands.add_parser("compare", help="compare sets of runs (run --out)")
    compare.add_argument("files", nargs="+")

    args = parser.parse_args(argv)
    if args.command == "compare":
        from bench.compare import compare_files

        return compare_files(args.files)

    from bench import run as runner

    seed = runner.DEFAULT_SEED if args.seed is None else args.seed
    seconds = args.seconds
    if seconds is None:
        seconds = float(runner.load_spec()["run_seconds"])
    if args.workload is None:
        return runner.run_all(seed, seconds, args.traced, args.scale, args.runs, args.out)
    document = runner.run_workload(
        args.workload, seed, seconds, bool(args.trace), args.scale
    )
    runner.print_result(document)
    return 0


if __name__ == "__main__":
    sys.exit(main())
