#!/usr/bin/env python3
"""Reachability census: the ``src/repro`` functions no entry point enters.

Runs the production entry points under one ``sys.setprofile`` /
``threading.setprofile`` hook that records every function entered:

- the CLI runs of the verify recipe (scan inline and on the pool,
  analyze, query, convert, compliance, report, monitor, demo,
  status over a telemetry directory, a service directory and a live
  server, profile, service run-once / submit / index / serve), with the
  documented refusals;
- ``scripts/chaos_smoke.sh``'s faulted scan;
- every ``/v1/*`` route of a live ``repro service serve``, plus malformed
  requests;
- one smoke-scale round of each ``bench`` workload;
- every script under ``examples/``;
- the Section 6 studies of ``benchmarks/studies.py`` over a
  tier-1-scale report.

The groups of :data:`ENTRY_POINTS` run in parallel forked processes.
Pool workers are forked too, so they inherit the hook; each one writes
what it entered at exit through a ``multiprocessing.util.Finalize``
registered after the fork.

Every function defined under ``src/repro`` that nothing entered is a
row of ``reach.txt``: ``path::qualname<TAB>reason``, sorted, without
line numbers.  A reason is one of

- ``bench``: entered by the benchmark's own pass (:func:`bench_layers`)
  or named under ``bench/``;
- ``library``: public surface on purpose (:func:`library_rows`);
- ``oracle <test file>``: that test checks other production code
  against the function;
- ``guard <test file>``: error or malformed-input handling the entry
  points do not trigger, reached by that test.

``bench`` and ``library`` are recomputed on every run; ``oracle`` and
``guard`` are carried over from the committed file.  A row with no
reason is written with an empty reason column, and the script exits 1;
the tier-1 test ``tests/test_reach.py`` fails on it too.  Resolve such a
row by deleting the function (and the tests that only exercised it), or
by writing one of the four reasons into ``reach.txt``.

Run:  python scripts/reach.py          (about 90 s on a 2-core host)
"""

from __future__ import annotations

import ast
import contextlib
import io
import json
import multiprocessing
import multiprocessing.util
import os
import re
import runpy
import socket
import sys
import tempfile
import threading
import time
import urllib.request
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "repro"
REACH = ROOT / "reach.txt"
REASONS = ("bench", "library", "oracle", "guard")
#: ``[n_czds_domains]`` of the population studies under ``examples/``:
#: small, but large enough that every branch of their output prints.
EXAMPLE_ARGS = {
    "accuracy_study": ["4000"],
    "adoption_scan": ["2000"],
    "rfc_compliance": ["1500"],
}

# ----------------------------------------------------------------------
# The hook.
# ----------------------------------------------------------------------

_entered: set = set()
_package_prefix = str(PACKAGE) + os.sep


def _hook(frame, event, arg, _add=_entered.add):
    if event == "call":
        _add(frame.f_code)


def _package_functions(codes) -> set[tuple[str, str]]:
    """``(path relative to the repo, qualname)`` of the package's code."""
    return {
        (os.path.relpath(code.co_filename, ROOT), code.co_qualname)
        for code in codes
        if code.co_filename.startswith(_package_prefix)
    }


class _Workers:
    """Where a forked pool worker leaves what it entered: the directory
    of the census group that forked it."""

    def __init__(self) -> None:
        self.directory: Path | None = None

    def after_fork(self) -> None:
        if self.directory is not None:
            multiprocessing.util.Finalize(
                None, self.dump, args=(self.directory,), exitpriority=10
            )

    @staticmethod
    def dump(directory: Path) -> None:
        sys.setprofile(None)
        rows = sorted(_package_functions(list(_entered)))
        (directory / f"entered-{os.getpid()}.json").write_text(json.dumps(rows))


_workers = _Workers()


def _run_group(steps, work: Path, dumps: Path) -> None:
    """Run ``steps`` under the hook; leave what they entered in ``dumps``."""
    _workers.directory = dumps
    threading.setprofile(_hook)
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        for step in steps:
            # An exception raised inside the hook (the interrupt that
            # stops ``repro service serve``) unsets it: set it again.
            sys.setprofile(_hook)
            began = time.perf_counter()
            step(work)
            sys.setprofile(None)
            print(
                f"reach: {step.__name__} {time.perf_counter() - began:.0f} s",
                file=sys.__stderr__,
            )
    threading.setprofile(None)
    for child in multiprocessing.active_children():
        child.join()
    _Workers.dump(dumps)


def census(groups) -> list[set[tuple[str, str]]]:
    """For each group of steps, every ``(path, qualname)`` of the package
    it entered, pool workers included.  Each group runs in a forked
    process of its own, in parallel, with its own scratch directory."""
    sys.path[:0] = [str(SRC), str(ROOT)]
    multiprocessing.util.register_after_fork(_workers, _Workers.after_fork)
    fork = multiprocessing.get_context("fork")
    with tempfile.TemporaryDirectory(prefix="reach-") as scratch:
        running = []
        for index, steps in enumerate(groups):
            work, dumps = Path(scratch, f"work-{index}"), Path(scratch, f"entered-{index}")
            work.mkdir()
            dumps.mkdir()
            process = fork.Process(target=_run_group, args=(steps, work, dumps))
            process.start()
            running.append((process, dumps))
        for process, _ in running:
            process.join()
            if process.exitcode:
                raise SystemExit(f"reach: a census group exited with {process.exitcode}")
        return [
            {
                tuple(row)
                for dump in sorted(dumps.iterdir())
                for row in json.loads(dump.read_text())
            }
            for _, dumps in running
        ]


# ----------------------------------------------------------------------
# The entry points.
# ----------------------------------------------------------------------


def _cli(*argv: str) -> None:
    from repro.cli import main

    with contextlib.suppress(SystemExit):
        main(list(map(str, argv)))


def cli_runs(work: Path) -> None:
    """The verify recipe's CLI runs, refusals included."""
    ds, ckpt = work / "ds.cbr", work / "ckpt"
    _cli("demo")
    _cli("scan", "--czds", 200, "--toplist", 50, "--out", ds,
         "--telemetry-out", work / "t1", "--qlog-sample-rate", 0.1,
         "--qlog-out", work / "q.jsonl")
    _cli("scan", "--czds", 200, "--toplist", 50, "--workers", 2, "--force-pool",
         "--out", work / "ds2.cbr", "--telemetry-out", work / "t2")
    _cli("scan", "--czds", 200, "--toplist", 50, "--out", work / "ds.jsonl")
    _cli("scan", "--czds", 60, "--toplist", 10, "--workers", 0, "--out", work / "ds0.cbr")
    _cli("scan", "--czds", 300, "--toplist", 50, "--chunk-size", 64,
         "--checkpoint-dir", ckpt, "--out", work / "ck.cbr")
    (ckpt,) = ckpt.iterdir()  # the scan's own directory under --checkpoint-dir
    _cli("analyze", ds)
    _cli("analyze", ds, "--section", "failures")
    _cli("analyze", ds, "--json")
    _cli("analyze", "--section", "migration", "--json")
    _cli("analyze", "--section", "migration", "--flows", 30, "--tcp-flows", 4,
         "--migrate", "nat-rebind:0.35,cid-rotation:0.35,path-migration:0.1")
    _cli("query", "domain", "google.com", ds)
    _cli("convert", ds, work / "ds-export.jsonl")
    _cli("convert", ds, work / "rt.cbr")
    _cli("convert", ckpt, work / "merged.cbr")
    _cli("analyze", work / "ds-export.jsonl")
    bad = bytearray(ds.read_bytes())
    bad[-20] ^= 0xFF
    (work / "bad.cbr").write_bytes(bad)
    _cli("analyze", work / "bad.cbr", "--where", "provider == cloudflare", "--verbose")
    for where in (
        "week between cw20-2023 and cw25-2023 and failure present",
        "domain in google.com,facebook.com and edges between 1 4",
        "t between 0 900 and behaviour in spin",
    ):
        _cli("analyze", ds, "--where", where, "--verbose")
    torn = work / "ckpt-torn"
    torn.mkdir()
    for shard in ckpt.iterdir():
        (torn / shard.name).write_bytes(shard.read_bytes())
    with open(torn / "shard-00001.cbr", "r+b") as stream:
        stream.truncate(30)
    _cli("convert", torn, work / "torn.cbr")
    _cli("compliance", "--czds", 400, "--weeks", 4, "--seed", 9)
    _cli("compliance", "--weeks", 1)
    _cli("report", "--czds", 700, "--toplist", 150, "--seed", 12, "--skip-longitudinal")
    _cli("monitor", "--flows", 50, "--seed", 9, "--out", work / "mon.jsonl",
         "--telemetry-out", work / "tm", "--slide", 3)
    _cli("monitor", "--flows", 80, "--seed", 11,
         "--migrate", "nat-rebind:0.35,cid-rotation:0.35", "--tcp-flows", 8,
         "--max-flows", 32, "--fault", "corrupt-datagram:0.08",
         "--out", work / "mc.jsonl")
    _cli("status", "--dir", work / "t1")
    _cli("profile", "--czds", 100, "--toplist", 20, "--analyze",
         "--out", work / "stacks.txt")
    svc = work / "svc"
    _cli("service", "run-once", "--dir", svc, "--seed", 77, "--czds", 140,
         "--toplist", 40, "--first-week", "cw19-2023", "--last-week", "cw20-2023",
         "--telemetry-out", svc / "telemetry")
    _cli("status", "--dir", svc, "--exit-code")
    slo = work / "slo.json"
    slo.write_text('[{"name": "rtt", "kind": "max_value", "metric": "m", "objective": 2}]')
    _cli("status", "--dir", svc, "--slo", slo, "--json")
    _cli("scan", "--czds", 100, "--toplist", 20, "--week", "cw21-2023",
         "--out", work / "w21.cbr")
    _cli("service", "submit", "--dir", svc, work / "w21.cbr")
    _cli("service", "submit", "--dir", work / "svc-j", work / "ds-export.jsonl")
    _cli("service", "index", "--dir", svc)


def chaos_scan(work: Path) -> None:
    """``scripts/chaos_smoke.sh``'s faulted scan: retries, timeouts, qlog
    truncation.  At this size no provider fails four domains in a row,
    so the breaker trips after one failure here: its open path runs too."""
    _cli("scan", "--czds", 600, "--toplist", 100, "--seed", 417,
         "--fault", "blackhole:0.03,handshake-stall:0.05,vn-failure:0.03,"
         "reset:0.05,slow-server:0.05,loss-burst:0.05,qlog-truncate:0.3,"
         "corrupt-datagram:0.05",
         "--connect-timeout-ms", 20000, "--retries", 1,
         "--breaker-threshold", 1, "--breaker-cooldown", 2,
         "--qlog-sample-rate", 0.05, "--workers", 1,
         "--out", work / "chaos.cbr", "--qlog-out", work / "chaos-qlog.jsonl")
    _cli("analyze", work / "chaos.cbr", "--section", "failures")
    _cli("analyze", work / "chaos.cbr",
         "--where", "failure present and provider in cloudflare,google")


def _free_port() -> int:
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


def api_routes(work: Path) -> None:
    """``repro service serve`` on the main thread; every route from another."""
    import _thread

    port = _free_port()
    base = f"http://127.0.0.1:{port}"
    svc = work / "svc"

    def client() -> None:
        try:
            for _ in range(200):
                with contextlib.suppress(OSError):
                    socket.create_connection(("127.0.0.1", port), timeout=1).close()
                    break
                time.sleep(0.05)
            for path in (
                "/v1/healthz", "/v1/weeks", "/v1/adoption",
                "/v1/adoption?week=cw20-2023", "/v1/compliance?week=cw20-2023",
                "/v1/analyze?week=cw20-2023&section=accuracy",
                "/v1/analyze?section=bogus", "/v1/domain/google.com",
                "/v1/metrics", "/v1/status", "/v1/spans", "/v1/nowhere",
                "/v1/adoption?week=cw01-1999",
            ):
                with contextlib.suppress(OSError):
                    urllib.request.urlopen(base + path, timeout=30).read()
            with socket.create_connection(("127.0.0.1", port), timeout=5) as raw:
                raw.sendall(b"NOT-HTTP \x00\r\n\r\n")
                raw.recv(4096)
            _cli("status", "--url", base)
        finally:
            _thread.interrupt_main()

    thread = threading.Thread(target=client)
    thread.start()
    # The scheduler's first tick finds both weeks scanned: nothing to do.
    _cli("service", "serve", "--dir", svc, "--seed", 77, "--czds", 140, "--toplist", 40,
         "--first-week", "cw19-2023", "--last-week", "cw20-2023", "--port", port)
    thread.join()


def _bench_smoke(work: Path, traced: bool) -> None:
    """One smoke-scale round of each benchmark workload; traced, also its
    per-layer measurements."""
    from bench import run, workloads
    from bench.harness import Meter, Tracer

    for name, workload_type in workloads.WORKLOADS.items():
        workdir = work / f"bench-{name}-{int(traced)}"
        workdir.mkdir()
        workload = workload_type(
            run.DEFAULT_SEED, workloads.SCALES["smoke"][name], Meter(),
            Tracer(name), workloads.Checks(), workdir, traced,
        )
        try:
            workload.setup()
            workload.setup_speed = 1.0
            workload.tracer.enabled = traced
            workload.round()
            workload.finish()
            if traced:
                workload.layer_metrics(0.2)
        finally:
            workload.teardown()


def bench_rounds(work: Path) -> None:
    """One smoke round of each benchmark workload, as the benchmark runs it."""
    _bench_smoke(work, traced=False)


def bench_layers(work: Path) -> None:
    """What only the benchmark reaches: a traced smoke round of each
    workload and its per-layer measurements."""
    _bench_smoke(work, traced=True)


def examples(work: Path) -> None:
    """Every script under ``examples/``; the population studies take
    their documented ``[n_czds_domains]`` argument at a small size."""
    argv = sys.argv
    try:
        for script in sorted((ROOT / "examples").glob("*.py")):
            sys.argv = [str(script), *EXAMPLE_ARGS.get(script.stem, ())]
            runpy.run_path(str(script), run_name="__main__")
    finally:
        sys.argv = argv


def section6_studies(work: Path) -> None:
    """``benchmarks/studies.py`` over a tier-1-scale report."""
    from benchmarks import studies
    from repro.analysis.paper_report import generate_paper_report
    from repro.internet.population import PopulationConfig, build_population

    population = build_population(
        PopulationConfig(toplist_domains=1_000, czds_domains=8_000, seed=20230520)
    )
    report = generate_paper_report(population, include_longitudinal=False)
    report.metrics()
    studies.grease_variants(report.records)
    studies.rtt_filters(report.records)
    studies.followup(population, report.spin_domains)


def section6_experiments(work: Path) -> None:
    """The studies of ``benchmarks/studies.py`` that build their own input."""
    from benchmarks import studies

    studies.detection_probe()
    studies.induced_reordering()
    studies.long_connections()
    studies.tomography()


#: The entry points, in three groups of about equal length.
ENTRY_POINTS = (
    (cli_runs, chaos_scan, api_routes, bench_rounds, examples),
    (section6_studies,),
    (section6_experiments,),
)


# ----------------------------------------------------------------------
# The rows.
# ----------------------------------------------------------------------


def _is_declaration(function: ast.FunctionDef) -> bool:
    """A body of only a docstring, ``...``, ``pass`` or ``raise
    NotImplementedError`` declares an interface: nothing to enter."""
    body = function.body
    if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
        body = body[1:]
    return all(
        isinstance(statement, ast.Pass)
        or (isinstance(statement, ast.Expr) and isinstance(statement.value, ast.Constant))
        or (
            isinstance(statement, ast.Raise)
            and "NotImplementedError" in ast.unparse(statement)
        )
        for statement in body
    )


def defined_functions() -> dict[tuple[str, str], set[str]]:
    """``{(path, qualname): names its body uses}`` of every function
    defined under ``src/repro``."""
    found = {}

    def walk(node, path, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if not _is_declaration(child):
                    found[path, ".".join(scope + [child.name])] = {
                        getattr(inner, "id", None) or getattr(inner, "attr", None)
                        for inner in ast.walk(child)
                        if isinstance(inner, (ast.Name, ast.Attribute))
                    }
                walk(child, path, scope + [child.name, "<locals>"])
            elif isinstance(child, ast.ClassDef):
                walk(child, path, scope + [child.name])
            else:
                walk(child, path, scope)

    for source in sorted(PACKAGE.rglob("*.py")):
        path = source.relative_to(ROOT).as_posix()
        walk(ast.parse(source.read_text()), path, [])
    return found


def never_entered(entered, functions) -> list[tuple[str, str]]:
    """Defined but never entered, minus closures of rows already listed."""
    missing = set(functions) - entered
    return [
        (path, qualname)
        for path, qualname in sorted(missing)
        if (path, qualname.rpartition(".<locals>.")[0]) not in missing
    ]


def _words(text: str) -> set[str]:
    return set(re.findall(r"[A-Za-z_][A-Za-z0-9_]*", text))


def bench_words() -> set[str]:
    """Every identifier-shaped word in a file under ``bench/``."""
    sources = sorted((ROOT / "bench").rglob("*"))
    return set().union(
        *(_words(source.read_text()) for source in sources if source.suffix in (".py", ".md"))
    )


def called_as(qualname: str) -> str:
    """The name a caller writes: a dunder runs when its class is named."""
    parts = qualname.split(".")
    return parts[-2] if parts[-1].startswith("__") and len(parts) > 1 else parts[-1]


def named(qualname: str, words: set[str]) -> bool:
    """A function's name is among ``words``; a method's name and its
    class's name both are."""
    parts = qualname.split(".")
    return called_as(qualname) in words and (len(parts) == 1 or parts[-2] in words)


def bench_explained(rows, functions) -> set[tuple[str, str]]:
    """Those of ``rows`` named under ``bench/``, and those the body of
    such a row calls by name (the static check of a ``bench`` reason)."""
    words = bench_words()
    found = {row for row in rows if named(row[1], words)}
    while True:
        called = set().union(*(functions[row] for row in found))
        more = {row for row in rows if row not in found and called_as(row[1]) in called}
        if not more:
            return found
        found |= more


def library_rows(rows, functions) -> set[tuple[str, str]]:
    """Rows that are public surface on purpose: the function is in
    ``repro.__all__`` or named in README.md (a method as
    ``Class.method``), or it is a public module-level function of a
    module README.md names; and the private helpers of such rows, in
    their module, that they call."""
    import repro

    readme = (ROOT / "README.md").read_text()
    exported = set(repro.__all__)
    found = set()
    for path, qualname in rows:
        module = ".".join(Path(path).with_suffix("").parts[1:])
        if (
            qualname in exported
            or re.search(rf"\b{re.escape(qualname)}\b", readme)
            or (
                "." not in qualname
                and not qualname.startswith("_")
                and f"`{module}`" in readme
            )
        ):
            found.add((path, qualname))
    called = {(path, name) for path, qualname in found for name in functions[path, qualname]}
    return found | {
        (path, qualname)
        for path, qualname in rows
        if qualname.startswith("_") and (path, qualname) in called
    }


def read_reach(path: Path = REACH) -> dict[str, str]:
    """``{"path::qualname": reason}`` of a reach file (empty if absent)."""
    if not path.exists():
        return {}
    return dict(line.split("\t", 1) for line in path.read_text().splitlines())


def render(rows, functions, bench_entered: set, previous: dict[str, str]) -> str:
    """``reach.txt``: ``bench`` (entered by the benchmark's own pass, or
    named under ``bench/``) and ``library`` recomputed, ``oracle`` and
    ``guard`` carried over from ``previous``, anything else blank."""
    words = bench_words()
    bench = {row for row in rows if row in bench_entered or named(row[1], words)}
    library = library_rows(rows, functions)
    lines = []
    for row in rows:
        key = "::".join(row)
        kept = previous.get(key, "")
        if row in bench:
            reason = "bench"
        elif row in library:
            reason = "library"
        elif kept.split(" ")[0] in ("oracle", "guard"):
            reason = kept
        else:
            reason = ""
        lines.append(f"{key}\t{reason}\n")
    return "".join(lines)


def main() -> int:
    started = time.perf_counter()
    *reached, bench = census([*ENTRY_POINTS, (bench_layers,)])
    entered = set().union(*reached)
    functions = defined_functions()
    text = render(never_entered(entered, functions), functions, bench, read_reach())
    REACH.write_text(text)
    rows = text.splitlines()
    blank = [row.partition("\t")[0] for row in rows if not row.partition("\t")[2]]
    print(
        f"reach: {len(rows)} functions never entered, {len(blank)} without a "
        f"reason ({time.perf_counter() - started:.0f} s)",
        file=sys.stderr,
    )
    for key in blank:
        print(f"  no reason: {key}", file=sys.stderr)
    return 1 if blank else 0


if __name__ == "__main__":
    sys.exit(main())
