"""Run one workload in this interpreter, or every workload in children."""

from __future__ import annotations

import gc
import json
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from bench.harness import (
    REFERENCE_KERNEL_S,
    REPO_ROOT,
    RESULTS_DIR,
    Meter,
    Tracer,
    host_stamp,
    load_average,
    median,
    nproc,
    p95,
    peak_rss_mb,
    rate,
)

DEFAULT_SEED = 20230520
SETUP_REPETITIONS = 3
LAYERS = (
    "internet", "web", "netsim", "quic", "qlog", "faults",
    "artifacts", "analysis", "service", "core", "monitor",
)


def load_spec() -> dict:
    with open(REPO_ROOT / "BENCHMARK.json", encoding="utf-8") as stream:
        return json.load(stream)


def _import_workloads():
    """``repro`` lives in ``src/`` of the checkout the benchmark sits in."""
    source = str(REPO_ROOT / "src")
    if source not in sys.path:
        sys.path.insert(0, source)
    from bench import workloads

    return workloads


def end_to_end(workload, setup_samples: list[float]) -> dict[str, float]:
    per_round = [rate(units, seconds) for units, seconds, _ in workload.work]
    cpu = [rate(cpu_s * 1e3, units) for units, _, cpu_s in workload.work]
    return {
        "setup_s": median(setup_samples),
        "work_per_s": median(per_round),
        "cpu_s_per_kwork": median(cpu),
        "peak_rss_mb": peak_rss_mb(),
        "op_p50_ms": median(workload.ops) * 1e3,
        "op_p95_ms": p95(workload.ops) * 1e3,
    }


def trace_metrics(workload, tracer: Tracer) -> dict[str, float]:
    walls = workload.round_walls
    ratios = []
    for (first_on, first), (second_on, second) in zip(walls[0::2], walls[1::2]):
        if first_on != second_on:
            ratios.append(rate(first, second) if first_on else rate(second, first))
    roots = tracer.root_seconds()
    by_layer = tracer.layer_self_seconds()
    metrics = {
        "trace.overhead_ratio": median(ratios),
        "trace.coverage": rate(roots, workload.traced_raw_s),
    }
    for layer in LAYERS:
        metrics[f"share.{layer}"] = rate(by_layer.get(layer, 0.0), roots)
    return metrics


def run_workload(name: str, seed: int, seconds: float, traced: bool,
                 scale: str) -> dict:
    """Set up, measure for ``seconds``, check; the result document."""
    spec = load_spec()
    workloads = _import_workloads()
    if name not in workloads.WORKLOADS:
        raise SystemExit(f"unknown workload {name!r}; one of {sorted(workloads.WORKLOADS)}")
    RESULTS_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=RESULTS_DIR))
    load_before = load_average()
    meter, tracer, checks = Meter(), Tracer(name), workloads.Checks()
    workload = workloads.WORKLOADS[name](
        seed, workloads.SCALES[scale][name], meter, tracer, checks, workdir, traced
    )
    started = time.perf_counter()
    try:
        setup_samples = []
        for repetition in range(1 if traced else SETUP_REPETITIONS):
            if repetition:
                workload.teardown()
            with meter.round() as timing:
                workload.setup()
            setup_samples.append(timing.ref_s)
            workload.setup_speed = timing.speed
        # What set-up keeps alive (inputs, expected answers) is the
        # harness's, not the program's: keep it out of every later
        # collection, where it would tax the measured code.
        gc.collect()
        gc.freeze()
        # Traced runs spend half the time on paired traced/untraced rounds
        # and the other half timing the layers underneath them.
        measure_s = seconds * 0.5 if traced else seconds
        deadline = time.perf_counter() + measure_s
        # Traced and untraced rounds come in pairs over the same input, in
        # alternating order (UT TU UT ...), so warm-up drift cancels.
        least = 4 if traced else 2
        while workload.rounds_done < least or time.perf_counter() < deadline:
            tracer.enabled = traced and workload.rounds_done % 4 in (1, 2)
            workload.round()
        tracer.enabled = False
        workload.finish()
        if traced:
            metrics = {entry["name"]: 0.0 for entry in spec["per_layer"]}
            metrics.update(workload.layer_metrics(seconds - measure_s))
            metrics.update(workload.counts)
            metrics.update(trace_metrics(workload, tracer))
        else:
            metrics = end_to_end(workload, setup_samples)
    finally:
        gc.unfreeze()
        workload.teardown()
        shutil.rmtree(workdir, ignore_errors=True)
    load_after = load_average()
    section = "per_layer" if traced else "end_to_end"
    units = {entry["name"]: entry["unit"] for entry in spec[section]}
    unknown = sorted(set(metrics) - set(units))
    checks.expect(not unknown, f"metrics missing from BENCHMARK.json: {unknown}")
    document = {
        **host_stamp(),
        "workload": name,
        "seed": seed,
        "scale": scale,
        "traced": traced,
        "seconds": seconds,
        "wall_s": time.perf_counter() - started,
        "load_1min": [load_before, load_after],
        "noisy_host": load_before > nproc(),
        "reference_kernel_s": REFERENCE_KERNEL_S,
        "repetitions": {
            "setup": len(setup_samples),
            "rounds": workload.rounds_done,
            "work": len(workload.work),
            "ops": len(workload.ops),
        },
        "correct": checks.failed == 0,
        "attempted": max(1, checks.attempted),
        "failed": checks.failed,
        "failures": checks.notes,
        "metrics": {
            key: {"value": float(value), "unit": units[key]}
            for key, value in metrics.items()
            if key in units
        },
        "samples": {
            "setup_s": setup_samples,
            "work": workload.work,
            "ops_s": workload.ops,
            "rounds": meter.rounds,
            "kernel_s": meter.kernel_samples,
        },
    }
    stem = f"{document['utc'].replace(':', '')}-{name}-seed{seed}-" + (
        "traced" if traced else "plain"
    )
    document["file"] = f"bench/results/{stem}.json"
    (RESULTS_DIR / f"{stem}.json").write_text(json.dumps(document) + "\n", encoding="utf-8")
    if traced:
        (RESULTS_DIR / f"{stem}.trace.json").write_text(
            json.dumps({"workload": name, "seed": seed, "spans": tracer.as_rows()}) + "\n",
            encoding="utf-8",
        )
    return document


def print_result(document: dict) -> None:
    """Every metric by name with its unit, then the one-line JSON result."""
    print(
        f"# {document['workload']} seed={document['seed']} scale={document['scale']} "
        f"traced={int(document['traced'])} rounds={document['repetitions']['rounds']} "
        f"ops={document['repetitions']['ops']} wall={document['wall_s']:.1f}s"
    )
    print(f"# result {document['file']}")
    for key, metric in document["metrics"].items():
        print(f"{key:46s} {metric['value']:16.6f} {metric['unit']}")
    for note in document["failures"]:
        print(f"FAILED: {note}")
    print(
        json.dumps(
            {
                "correct": document["correct"],
                "attempted": document["attempted"],
                "failed": document["failed"],
                "metrics": document["metrics"],
            }
        )
    )


def run_all(seed: int, seconds: float, traced: bool, scale: str, runs: int,
            out: str | None) -> int:
    """Every workload ``runs`` times, each in a fresh child interpreter.

    Workloads take turns (all once, then all again) so that a slow phase
    of the host touches every workload's runs, not all runs of one.
    """
    names = [entry["name"] for entry in load_spec()["workloads"]]
    passes = [(name, 0) for _ in range(runs) for name in names]
    if traced:
        passes += [(name, 1) for name in names]
    documents = []
    for workload, mode in passes:
        child = subprocess.run(
            [
                sys.executable, "-m", "bench", "run",
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(seconds), "--trace", str(mode), "--scale", scale,
            ],
            cwd=REPO_ROOT,
            stdout=subprocess.PIPE,
            text=True,
        )
        sys.stdout.write(child.stdout)
        if child.returncode != 0:
            print(f"{workload}: child exited with {child.returncode}")
            return child.returncode
        for line in child.stdout.splitlines():
            if line.startswith("# result "):
                path = REPO_ROOT / line.split(" ", 2)[2]
                document = json.loads(path.read_text(encoding="utf-8"))
                document.pop("samples", None)
                documents.append(document)
    if out:
        stamp = host_stamp()
        Path(out).write_text(
            json.dumps(
                {**stamp, "seed": seed, "scale": scale, "seconds": seconds, "runs": documents},
                indent=1,
            )
            + "\n",
            encoding="utf-8",
        )
        print(f"wrote {out}: {len(documents)} runs")
    return 0 if all(doc["correct"] for doc in documents) else 1
