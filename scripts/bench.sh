#!/usr/bin/env bash
# Per-PR perf gate: run the tier-1 tests, then the perf benchmarks
# (telemetry, fault, profiler, and migration-resolver overhead; scan,
# monitor, analyze/query throughput and API latency are
# `python3 -m bench run --workload
# campaign_week|monitor_steady|monitor_churn|archive_query|service_readwrite`,
# the benchmark of record),
# and append each benchmark's result (stamped with commit and timestamp)
# to BENCH_history.jsonl so every PR records its perf delta.  The cbr
# round-trip identity gate runs first: no perf run is recorded from a
# codec that does not reproduce its records bit-identically.
set -euo pipefail

cd "$(dirname "$0")/.."
export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

echo "== determinism lint =="
python scripts/check_determinism_lint.py

echo "== tier-1 tests =="
python -m pytest -x -q tests

echo "== cbr round-trip identity gate =="
# A perf number from a codec that does not round trip is meaningless;
# refuse to record anything unless encode -> decode is bit-identical.
python - <<'PY'
import io
import sys

from repro.artifacts.cbr import CbrReader, write_records_cbr
from repro.internet.population import PopulationConfig, build_population
from repro.web.scanner import ScanConfig, Scanner

population = build_population(
    PopulationConfig(toplist_domains=400, czds_domains=3_000, seed=20230520)
)
dataset = Scanner(population, ScanConfig()).scan(
    week_label="cw20-2023", ip_version=4
)
records = list(dataset.connection_records())
first = io.BytesIO()
write_records_cbr(records, first)
first.seek(0)
decoded = list(CbrReader(first).iter_records())
if decoded != records:
    sys.exit("cbr round-trip identity FAILED: decoded records differ")
second = io.BytesIO()
write_records_cbr(decoded, second)
if second.getvalue() != first.getvalue():
    sys.exit("cbr round-trip identity FAILED: re-encoded bytes differ")
print(f"cbr round-trip identity OK ({len(records)} records)")
PY

echo "== telemetry-overhead benchmark =="
python -m pytest -q -s benchmarks/test_perf_telemetry_overhead.py

echo "== fault-overhead benchmark =="
python -m pytest -q -s benchmarks/test_perf_fault_overhead.py

echo "== profile-overhead benchmark =="
python -m pytest -q -s benchmarks/test_perf_profile_overhead.py

echo "== migration-overhead benchmark =="
python -m pytest -q -s benchmarks/test_perf_migration_overhead.py

echo "== chaos smoke =="
bash scripts/chaos_smoke.sh

python - <<'PY'
import datetime
import json
import pathlib
import subprocess

commit = subprocess.run(
    ["git", "rev-parse", "--short", "HEAD"], capture_output=True, text=True
).stdout.strip() or None
timestamp = datetime.datetime.now(datetime.timezone.utc).isoformat(
    timespec="seconds"
)
for result_file in (
    "BENCH_telemetry_overhead.json",
    "BENCH_fault_overhead.json",
    "BENCH_profile_overhead.json",
    "BENCH_migration_overhead.json",
):
    result = json.loads(pathlib.Path(result_file).read_text())
    result["commit"] = commit
    result["timestamp"] = timestamp
    with open("BENCH_history.jsonl", "a", encoding="utf-8") as history:
        history.write(json.dumps(result) + "\n")
    print(f"appended {result['benchmark']} @ {commit} to BENCH_history.jsonl")
PY
