#!/usr/bin/env bash
# Per-PR gate: the determinism lint, the reachability census (fails when
# reach.txt differs from the committed file), the tier-1 tests — which
# hold the cbr round trip and the call budgets of the scan, the monitor,
# the endpoints and analysis — and the chaos smoke.  Throughput and
# latency are measured only by the benchmark of record,
# `python3 -m bench run` (see bench/README.md).
set -euo pipefail

cd "$(dirname "$0")/.."
export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

echo "== determinism lint =="
python scripts/check_determinism_lint.py

echo "== reachability census =="
# reach.txt is committed: a function the entry points stop reaching, or
# a row whose reason no longer holds, shows here as a diff to commit.
python scripts/reach.py
git diff --exit-code -- reach.txt

echo "== tier-1 tests =="
python -m pytest -x -q tests

echo "== chaos smoke =="
bash scripts/chaos_smoke.sh
