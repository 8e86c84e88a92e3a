"""``python3 -m bench compare A.json B.json [more...]``.

Each file is a set of runs written by ``python3 -m bench run --out``.  The
first file is the base; every other file is compared against it, one row
per (workload, end-to-end metric), under the bound ``BENCHMARK.json``
fixes for that metric.
"""

from __future__ import annotations

import json

from bench.harness import quartiles
from bench.run import load_spec

#: Two sets are comparable only when these agree.
SAME = ("seed", "scale", "seconds", "nproc")


def load_set(path: str) -> dict:
    with open(path, encoding="utf-8") as stream:
        document = json.load(stream)
    if "runs" not in document:
        raise SystemExit(f"{path}: not a set of runs (write one with run --out)")
    return document


def values_of(runs_set: dict, workload: str, metric: str) -> list[float]:
    return [
        run["metrics"][metric]["value"]
        for run in runs_set["runs"]
        if run["workload"] == workload and not run["traced"] and metric in run["metrics"]
    ]


def spread(values: list[float]) -> float:
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else 0.0


def verdict(base: list[float], other: list[float], better: str, bound: float) -> str:
    """``unchanged``, ``improved``, ``regressed`` or ``unresolved``."""
    sign = 1.0 if better == "lower" else -1.0
    base_median, other_median = quartiles(base)[1], quartiles(other)[1]
    worse_by = sign * (other_median - base_median) / base_median if base_median else 0.0
    if max(spread(base), spread(other)) > bound:
        # Too noisy to resolve the bound — unless the two sides do not
        # overlap at all, in which case the direction is not in doubt.
        other_wins = all(sign * o < sign * b for o in other for b in base)
        base_wins = all(sign * o > sign * b for o in other for b in base)
        if not (other_wins or base_wins):
            return "unresolved"
    if worse_by > bound:
        return "regressed"
    if worse_by < -bound:
        return "improved"
    return "unchanged"


def compare_files(paths: list[str]) -> int:
    if len(paths) < 2:
        raise SystemExit("compare needs a base file and at least one other")
    spec = load_spec()
    sets = [load_set(path) for path in paths]
    base = sets[0]
    for path, other in zip(paths[1:], sets[1:]):
        for key in SAME:
            if base.get(key) != other.get(key):
                raise SystemExit(
                    f"refusing to compare {paths[0]} with {path}: "
                    f"{key} differs ({base.get(key)!r} vs {other.get(key)!r})"
                )
    failed = sum(
        not run["correct"] for runs_set in sets for run in runs_set["runs"]
    )
    print(f"base {paths[0]} @ {base['commit'][:12]}, {len(base['runs'])} runs")
    header = (
        f"{'workload':18s} {'metric':16s} {'base median [q1, q3]':>36s} "
        f"{'other median [q1, q3]':>36s} {'other/base':>10s} {'bound':>6s}  verdict"
    )
    bad = 0
    for path, other in zip(paths[1:], sets[1:]):
        print(f"other {path} @ {other['commit'][:12]}, {len(other['runs'])} runs")
        print(header)
        for workload in (entry["name"] for entry in spec["workloads"]):
            for metric in spec["end_to_end"]:
                ours = values_of(base, workload, metric["name"])
                theirs = values_of(other, workload, metric["name"])
                if not ours or not theirs:
                    continue
                b1, b2, b3 = quartiles(ours)
                o1, o2, o3 = quartiles(theirs)
                outcome = verdict(ours, theirs, metric["better"], metric["bound"])
                bad += outcome in ("regressed", "unresolved")
                print(
                    f"{workload:18s} {metric['name']:16s} "
                    f"{b2:14.4f} [{b1:9.4f},{b3:9.4f}] "
                    f"{o2:14.4f} [{o1:9.4f},{o3:9.4f}] "
                    f"{(o2 / b2 if b2 else 0.0):10.4f} {metric['bound']:6.2f}  {outcome}"
                )
    print(f"{bad} rows regressed or unresolved; {failed} runs failed a correctness check")
    return 1 if bad or failed else 0
