"""Golden byte pins for ``repro scan``: artifact, qlogs and telemetry.

The QUIC endpoint may change how it gets there; nothing it produces may
move.  Each scenario runs the CLI once and compares sha256 digests of
the cbr artifact, the sampled qlog JSONL, and the deterministic
telemetry files (``trace.jsonl``, ``metrics.json``) — together they see
every wire byte's consequence: packet numbers, spin bits and sizes in
qlogs, RTT samples in records, per-role packet and spin-edge counters in
metrics, per-domain outcomes and every connection attempt in the trace.

The trace is additionally reconciled, row by row, with the counters and
the dataset of the same run — so a change of the trace *format* can
re-record the ``trace`` digest against the three digests that did not
move instead of trusting its own output.
"""

import hashlib
import json

import pytest

from repro.cli import main
from repro.faults.taxonomy import FailureKind
from repro.web.scanner import Scanner

#: The ``scripts/chaos_smoke.sh`` fault plan.
FAULTS = (
    "blackhole:0.03,handshake-stall:0.05,vn-failure:0.03,reset:0.05,"
    "slow-server:0.05,loss-burst:0.05,qlog-truncate:0.3,corrupt-datagram:0.05"
)
POPULATION = ["--czds", "700", "--toplist", "100", "--week", "cw20-2023"]
FAULT_FREE = {
    "artifact": "eed02802f3fc628107b4fadafdbe5e7a0ec2bed8a6dc9caa5c2050c2d0dadfe6",
    "qlog": "ae547d31213be352e982fe7b69b4de5d3e6e47adfb313c17872e75e7889e9b3b",
    "trace": "6bd7be03d0a10b9f37e658f057cf2ff3cd5ff753bbd8927f3861f35ff3596578",
    "metrics": "7f303f72bd6be0cd11f95566c47a451f8c514d4464613ea36f9e6817f41c8ed3",
}

#: Digests recorded at 42b6150 — the commit before the endpoint's 1-RTT
#: datapath was rebuilt — by running exactly these command lines.
#: Regenerate only from a commit whose output is known good, never from
#: the change under test.
#:
#: The two exceptions so far.  The two ``trace`` values were re-recorded
#: by PR 17 (the change on top of 5d061c1 that merged the span log into
#: the trace and so changed the row format).  What licensed it is
#: ``test_trace_reconciles_with_counters_and_dataset`` below, which ties
#: every row of the new file to the ``artifact`` and ``metrics`` digests
#: — those, and ``qlog``, were not edited.
#:
#: The two ``metrics`` values were re-recorded by PR 19's first commit,
#: which is 26d1ca3 plus one line each in ``_send_version_negotiation``
#: and ``_send_retry`` (``counts.sent += 1``: the server did not count
#: the Version Negotiation and Retry packets it sent, while the client
#: counted receiving them) — recorded from that two-line fix, before the
#: datapath change that follows it.  The whole JSON diff of
#: ``metrics.json``, 26d1ca3 -> fix, is one series per scenario, higher by
#: the Retry + Version Negotiation packets the scenario's servers send:
#:
#:   fault-free  quic.packets_sent{role=server}  5638 -> 5645  (7 Retry)
#:   chaos       quic.packets_sent{role=server}  5347 -> 5360  (8 Retry + 5 VN)
#:
#: ``artifact``, ``qlog`` and ``trace`` did not move, and
#: ``tests/test_endpoint_internals.py::TestPacketCounts`` (sent equals
#: the other role's received; fails at 26d1ca3) is what licenses it.
#:
#: Every value was re-recorded once, on top of 57a25ca, when the
#: population stopped drawing from one sequential RNG stream and drew
#: each aligned block of ``BLOCK_SIZE`` indexes from its own: every
#: domain's attributes moved, so every byte downstream did, and nothing
#: else changed in that commit.  The pool arm still shares the inline
#: arm's digests, and the paper's bands (``benchmarks/``) hold on both
#: sides.
GOLDEN_SCANS = {
    "fault-free": ([], FAULT_FREE),
    "chaos": (
        [
            "--seed", "417", "--fault", FAULTS, "--connect-timeout-ms", "20000",
            "--retries", "1", "--breaker-threshold", "4", "--breaker-cooldown", "6",
        ],
        {
            "artifact": "00ccb2f5e46e1b6879baa854f3f650ec1a3fbc1bb7b24cea94671c015ec315aa",
            "qlog": "e8891105d2a11aba7da46babc3428d9317760f67c4dd69983ee8d357384d1e01",
            "trace": "b300ff09cf4fad8e4f9049c98d9c48227d3e227b6b3a83f8289132539a1da015",
            "metrics": "2c12a7ae7efb42b38bfdb30f211db5a81443d7c1917094ff0596d748f5390fcc",
        },
    ),
    # Telemetry and artifacts are worker-count independent, so the pool
    # arm shares the sequential arm's digests.
    "fault-free-pool": (["--workers", "2", "--force-pool"], FAULT_FREE),
}


def _sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.fixture(scope="module")
def golden_run(tmp_path_factory):
    """``run(scenario) -> (directory, results)``, each command line run once.

    ``results`` are the ``DomainScanResult``\\ s the CLI's own scan
    stream yielded — the dataset whose connection records are the
    pinned artifact.
    """
    runs = {}

    def run(scenario):
        if scenario not in runs:
            out = tmp_path_factory.mktemp(scenario)
            results = []
            real = Scanner.scan_stream

            def tee(self, *args, **kwargs):
                for result in real(self, *args, **kwargs):
                    results.append(result)
                    yield result

            command = [
                "scan", *POPULATION, *GOLDEN_SCANS[scenario][0],
                "--qlog-sample-rate", "0.05",
                "--out", str(out / "scan.cbr"),
                "--qlog-out", str(out / "qlog.jsonl"),
                "--telemetry-out", str(out / "telemetry"),
            ]
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(Scanner, "scan_stream", tee)
                assert main(command) == 0
            runs[scenario] = (out, results)
        return runs[scenario]

    return run


@pytest.mark.parametrize("scenario", GOLDEN_SCANS)
def test_golden_scan_bytes(scenario, golden_run):
    out, _ = golden_run(scenario)
    assert {
        "artifact": _sha256(out / "scan.cbr"),
        "qlog": _sha256(out / "qlog.jsonl"),
        "trace": _sha256(out / "telemetry" / "trace.jsonl"),
        "metrics": _sha256(out / "telemetry" / "metrics.json"),
    } == GOLDEN_SCANS[scenario][1]


@pytest.mark.parametrize("scenario", ["fault-free", "chaos"])
def test_trace_reconciles_with_counters_and_dataset(scenario, golden_run):
    out, results = golden_run(scenario)
    telemetry = out / "telemetry"
    rows = [
        json.loads(line)
        for line in (telemetry / "trace.jsonl").read_text().splitlines()
    ]
    counters = json.loads((telemetry / "metrics.json").read_text())["counters"]
    by_stage: dict[str, list[dict]] = {}
    for row in rows:
        by_stage.setdefault(row["name"].partition(":")[0], []).append(row)

    # One row per fact: the scan, its merge, every domain and every
    # connection attempt (both counters are bumped beside the emission,
    # retries included).
    assert set(by_stage) == {"scan", "merge", "domain", "connection"}
    assert len(by_stage["scan"]) == len(by_stage["merge"]) == 1
    assert len(by_stage["domain"]) == counters["scan.domains"] == len(results)
    assert len(by_stage["connection"]) == counters["scan.connections"]
    if scenario == "fault-free":
        assert "scan.retries" not in counters
        assert len(by_stage["connection"]) == sum(
            len(result.connections) for result in results
        )

    # Ids are unique, every row reaches the one scan root, a connection
    # hangs off its domain.
    by_id = {row["span"]: row for row in rows}
    assert len(by_id) == len(rows)
    (root,) = by_stage["scan"]
    assert root["parent"] is None
    attempts: dict[str, list[dict]] = {}
    for row in by_stage["connection"]:
        domain_row = by_id[row["parent"]]
        assert domain_row["name"].startswith("domain:")
        attempts.setdefault(domain_row["name"], []).append(row)
    for row in by_stage["domain"] + by_stage["merge"]:
        assert row["parent"] == root["span"]
    assert root["attrs"] == {
        "ip_version": 4,
        "domains": len(results),
        "quic": sum(result.quic_support for result in results),
    }

    # Domain rows come in population order and say what the dataset
    # says.  The trace describes the scan; the breaker rewrites results
    # afterwards, so a short-circuited result has no counterpart.
    assert [row["name"] for row in by_stage["domain"]] == [
        f"domain:{result.domain.name}" for result in results
    ]
    compared = 0
    for row, result in zip(by_stage["domain"], results):
        tried = attempts.get(row["name"], [])
        assert [r["name"] for r in tried] == [
            f"connection:{n}" for n in range(len(tried))
        ]
        if result.failure is FailureKind.CIRCUIT_OPEN:
            continue
        compared += 1
        assert row["attrs"] == {
            "resolved": result.resolved,
            "quic": result.quic_support,
            "spins": result.shows_spin_activity,
            "connections": len(result.connections),
        }
        if scenario == "fault-free":
            assert [r["attrs"] for r in tried] == [
                {"host": c.host, "status": c.status, "success": c.success}
                for c in result.connections
            ]
            assert not tried or tried[-1]["end_ms"] == row["end_ms"]
    assert compared == len(results) - sum(
        value
        for name, value in counters.items()
        if name.startswith("scan.breaker_skipped")
    )
