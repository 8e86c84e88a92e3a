"""Golden byte pins for ``repro scan``: artifact, qlogs and telemetry.

The QUIC endpoint may change how it gets there; nothing it produces may
move.  Each scenario runs the CLI once and compares sha256 digests of
the cbr artifact, the sampled qlog JSONL, and the deterministic
telemetry files (``trace.jsonl``, ``metrics.json``) — together they see
every wire byte's consequence: packet numbers, spin bits and sizes in
qlogs, RTT samples in records, per-role packet and spin-edge counters in
metrics, retry/breaker decisions in the trace.
"""

import hashlib

import pytest

from repro.cli import main

#: The ``scripts/chaos_smoke.sh`` fault plan.
FAULTS = (
    "blackhole:0.03,handshake-stall:0.05,vn-failure:0.03,reset:0.05,"
    "slow-server:0.05,loss-burst:0.05,qlog-truncate:0.3,corrupt-datagram:0.05"
)
POPULATION = ["--czds", "700", "--toplist", "100", "--week", "cw20-2023"]
FAULT_FREE = {
    "artifact": "f9ece2d1f1af9afb7945439dd999be575da49b5d5105aca9bade92f235ae269c",
    "qlog": "3ea30f7b420eb674c6d8094568573ef2a33c00568230472939fda54ce59a18c2",
    "trace": "6d741debdefe6d43726130e06bb03db3864f95a00e9b5b09b5e69af4e2047bd0",
    "metrics": "f841ca10073e60a7a6e4976e841235ba6066f41da75031571c109e115008bed7",
}

#: Digests recorded at 42b6150 — the commit before the endpoint's 1-RTT
#: datapath was rebuilt — by running exactly these command lines.
#: Regenerate only from a commit whose output is known good, never from
#: the change under test.
GOLDEN_SCANS = {
    "fault-free": ([], FAULT_FREE),
    "chaos": (
        [
            "--seed", "417", "--fault", FAULTS, "--connect-timeout-ms", "20000",
            "--retries", "1", "--breaker-threshold", "4", "--breaker-cooldown", "6",
        ],
        {
            "artifact": "8135a24d928f1fabb767f9b6256444b890184724276f726750601de30b0096fb",
            "qlog": "120cda1bef3c9c8fe4b5fa97f4c750247c4318d067ac94095066adcfb41f7475",
            "trace": "6f91c927604a24a07ecec8ce18f04da66df42dcb2b037a5e76b0ed844d8cc7a3",
            "metrics": "f475f5b59380cec1a3d518e666a3ca717726345051c1f023256dacd3ecdcfb04",
        },
    ),
    # Telemetry and artifacts are worker-count independent, so the pool
    # arm shares the sequential arm's digests.
    "fault-free-pool": (["--workers", "2", "--force-pool"], FAULT_FREE),
}


def _sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("scenario", GOLDEN_SCANS)
def test_golden_scan_bytes(scenario, tmp_path, capsys):
    args, expected = GOLDEN_SCANS[scenario]
    artifact = tmp_path / "scan.cbr"
    qlog = tmp_path / "qlog.jsonl"
    telemetry = tmp_path / "telemetry"
    command = [
        "scan", *POPULATION, *args, "--qlog-sample-rate", "0.05",
        "--out", str(artifact), "--qlog-out", str(qlog),
        "--telemetry-out", str(telemetry),
    ]
    assert main(command) == 0
    capsys.readouterr()
    assert {
        "artifact": _sha256(artifact),
        "qlog": _sha256(qlog),
        "trace": _sha256(telemetry / "trace.jsonl"),
        "metrics": _sha256(telemetry / "metrics.json"),
    } == expected
