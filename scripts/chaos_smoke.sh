#!/usr/bin/env bash
# Chaos smoke test: run a small scan under every fault kind at once and
# assert the robustness guarantees hold end to end:
#
#   1. the scan completes (exit 0) with a nonzero fault plan,
#   2. datasets, qlogs and telemetry are byte-identical at --workers 1
#      vs the 4-worker pool (--force-pool), breaker, checkpoint and
#      resume included,
#   3. the failure-taxonomy summary is byte-identical across workers,
#   4. a checkpointed campaign with a deleted shard resumes to the same
#      merged dataset as an uninterrupted run,
#   5. the monitor survives corrupt datagrams deterministically,
#   6. injected connection migrations (NAT rebinds, CID rotations,
#      path migrations) plus multiplexed TCP flows stay deterministic,
#      keep linkable flows un-split under CID linkage, split without it,
#      and classify non-QUIC traffic instead of erroring,
#   7. a service campaign tick leaves the directory healthy: the
#      'repro status --exit-code' SLO gate passes and the span log
#      covers the whole pipeline.
#
# Everything runs in a throwaway temp directory; the repo tree is not
# touched.
set -euo pipefail

cd "$(dirname "$0")/.."
export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT

FAULTS="blackhole:0.03,handshake-stall:0.05,vn-failure:0.03,reset:0.05,slow-server:0.05,loss-burst:0.05,qlog-truncate:0.3,corrupt-datagram:0.05"
COMMON=(--czds 600 --toplist 100 --seed 417 --fault "$FAULTS"
        --connect-timeout-ms 20000 --retries 1
        --breaker-threshold 4 --breaker-cooldown 6
        --qlog-sample-rate 0.05)

echo "== chaos smoke: faulted scan, workers 1 vs 4 (process pool) =="
# --force-pool makes the 4-worker arm run the real process pool (range
# tasks, cbr IPC, reorder window) even on hosts with too few cores for
# the engine to pick it on its own — the identity guarantee must hold
# through the pool, not just the inline executor.
python -m repro.cli scan "${COMMON[@]}" --workers 1 \
    --out "$WORK/w1.cbr" --qlog-out "$WORK/w1-qlog.jsonl" 2>"$WORK/w1.err"
python -m repro.cli scan "${COMMON[@]}" --workers 4 --force-pool \
    --out "$WORK/w4.cbr" --qlog-out "$WORK/w4-qlog.jsonl" 2>"$WORK/w4.err"
cmp "$WORK/w1.cbr" "$WORK/w4.cbr"
cmp "$WORK/w1-qlog.jsonl" "$WORK/w4-qlog.jsonl"
grep '^failures:' "$WORK/w1.err"
cmp <(grep '^failures:' "$WORK/w1.err") <(grep '^failures:' "$WORK/w4.err")

echo "== chaos smoke: failure taxonomy is worker-independent =="
python -m repro.cli analyze "$WORK/w1.cbr" --section failures \
    2>/dev/null >"$WORK/tax1.txt"
python -m repro.cli analyze "$WORK/w4.cbr" --section failures \
    2>/dev/null >"$WORK/tax4.txt"
cmp "$WORK/tax1.txt" "$WORK/tax4.txt"
cat "$WORK/tax1.txt"

echo "== chaos smoke: checkpoint / crash / resume =="
python -m repro.cli scan "${COMMON[@]}" --chunk-size 128 \
    --checkpoint-dir "$WORK/ckpt" --out "$WORK/ckpt-full.cbr" 2>/dev/null
rm "$WORK/ckpt/shard-00002.cbr"   # simulate a crash losing one shard
python -m repro.cli scan "${COMMON[@]}" --chunk-size 128 --workers 4 --force-pool \
    --checkpoint-dir "$WORK/ckpt" --out "$WORK/ckpt-resumed.cbr" 2>/dev/null
cmp "$WORK/ckpt-full.cbr" "$WORK/ckpt-resumed.cbr"
cmp "$WORK/ckpt-full.cbr" "$WORK/w1.cbr"

echo "== chaos smoke: every scan flag, worker and resume identity =="
# The bounded-window scan must emit identical records, qlogs and
# telemetry at any worker count — faults, breaker and checkpoint
# included — and resume a lost shard to the same artifact.
for arm in 1 4; do
    [ "$arm" = 4 ] && POOL=(--force-pool) || POOL=()
    python -m repro.cli scan "${COMMON[@]}" --workers "$arm" "${POOL[@]}" \
        --chunk-size 128 --checkpoint-dir "$WORK/stream$arm-ckpt" \
        --out "$WORK/stream$arm.cbr" --qlog-out "$WORK/stream$arm-qlog.jsonl" \
        --telemetry-out "$WORK/stream$arm-telemetry" 2>/dev/null
done
cmp "$WORK/stream1.cbr" "$WORK/stream4.cbr"
cmp "$WORK/stream1-qlog.jsonl" "$WORK/stream4-qlog.jsonl"
cmp "$WORK/stream1-telemetry/trace.jsonl" "$WORK/stream4-telemetry/trace.jsonl"
cmp "$WORK/stream1-telemetry/metrics.json" "$WORK/stream4-telemetry/metrics.json"
rm "$WORK/stream1-ckpt/shard-00003.cbr"   # a crash loses one shard
python -m repro.cli scan "${COMMON[@]}" --workers 4 --force-pool \
    --chunk-size 128 --checkpoint-dir "$WORK/stream1-ckpt" \
    --out "$WORK/stream-resumed.cbr" --qlog-out "$WORK/stream-resumed-qlog.jsonl" \
    2>/dev/null
cmp "$WORK/stream1.cbr" "$WORK/stream-resumed.cbr"
cmp "$WORK/stream1-qlog.jsonl" "$WORK/stream-resumed-qlog.jsonl"
cmp "$WORK/stream4-ckpt/shard-00003.cbr" "$WORK/stream1-ckpt/shard-00003.cbr"

echo "== chaos smoke: checkpoint merge via frame copy =="
python -m repro.cli convert "$WORK/ckpt" "$WORK/merged.cbr" 2>/dev/null
python -m repro.cli analyze "$WORK/merged.cbr" --section failures \
    2>/dev/null >"$WORK/tax-merged.txt"
cmp "$WORK/tax-merged.txt" "$WORK/tax1.txt"

echo "== chaos smoke: monitor under corrupt datagrams =="
python -m repro.cli monitor --flows 60 --seed 7 \
    --fault "corrupt-datagram:0.05" --out "$WORK/m1.jsonl" 2>/dev/null
python -m repro.cli monitor --flows 60 --seed 7 \
    --fault "corrupt-datagram:0.05" --out "$WORK/m2.jsonl" 2>/dev/null
cmp "$WORK/m1.jsonl" "$WORK/m2.jsonl"
python - "$WORK/m1.jsonl" <<'PY'
import json
import sys

with open(sys.argv[1], encoding="utf-8") as stream:
    summary = [json.loads(line) for line in stream][-1]
assert summary["type"] == "summary", summary
assert summary["parse_errors"] > 0, "corrupt datagrams were not counted"
print(f"monitor counted {summary['parse_errors']} parse errors, no crash")
PY

echo "== chaos smoke: connection migration + mixed transports =="
MIGRATE="nat-rebind:0.35,cid-rotation:0.35,path-migration:0.1"
python -m repro.cli monitor --flows 60 --seed 7 \
    --migrate "$MIGRATE" --tcp-flows 8 --out "$WORK/mig1.jsonl" 2>/dev/null
python -m repro.cli monitor --flows 60 --seed 7 \
    --migrate "$MIGRATE" --tcp-flows 8 --out "$WORK/mig2.jsonl" 2>/dev/null
cmp "$WORK/mig1.jsonl" "$WORK/mig2.jsonl"
python -m repro.cli monitor --flows 60 --seed 7 --no-cid-linkage \
    --migrate "$MIGRATE" --tcp-flows 8 --out "$WORK/mig-nolink.jsonl" 2>/dev/null
python - "$WORK/mig1.jsonl" "$WORK/mig-nolink.jsonl" <<'PY'
import json
import sys

def summary(path):
    with open(path, encoding="utf-8") as stream:
        return [json.loads(line) for line in stream][-1]

linked = summary(sys.argv[1])["migration"]
unlinked = summary(sys.argv[2])["migration"]
assert linked["flows_split"] == 0, f"linkable migrations split: {linked}"
assert linked["flows_migrated"] > 0, f"no migrations tracked: {linked}"
assert linked["rebinds_seen"] > 0, f"no rebinds observed: {linked}"
assert linked["transport_mix"]["tcp"] > 0, f"no TCP classified: {linked}"
assert linked["transport_mix"]["unparseable"] == 0, linked
assert unlinked["flows_split"] > 0, f"control arm did not split: {unlinked}"
print(
    f"migration OK: {linked['flows_migrated']} migrated / "
    f"{linked['rebinds_seen']} rebinds / 0 split with linkage; "
    f"{unlinked['flows_split']} split without"
)
PY
python -m repro.cli analyze --section migration --flows 30 --tcp-flows 4 \
    --seed 7 --migrate "$MIGRATE" 2>/dev/null >"$WORK/mig-study.txt"
grep -q "CID linkage" "$WORK/mig-study.txt"

echo "== chaos smoke: service tick + SLO health gate =="
python -m repro.cli service run-once --dir "$WORK/svc" \
    --telemetry-out "$WORK/svc/telemetry" \
    --seed 417 --czds 200 --toplist 50 \
    --first-week cw20-2023 --last-week cw20-2023 >/dev/null 2>&1
python -m repro.cli status --dir "$WORK/svc" --exit-code
python - "$WORK/svc/telemetry/trace.jsonl" <<'PY'
import json
import sys

with open(sys.argv[1], encoding="utf-8") as stream:
    rows = [json.loads(line) for line in stream]
stages = {row["name"].partition(":")[0] for row in rows}
missing = {"campaign", "scan", "domain", "spool", "index", "status"} - stages
assert not missing, f"trace misses pipeline stages: {sorted(missing)}"
roots = [row["name"] for row in rows if row["parent"] is None]
assert roots == ["campaign"], f"expected one campaign root, got {roots}"
print(f"trace OK: {len(rows)} rows, stages {sorted(stages)}")
PY

echo "chaos smoke: OK"
