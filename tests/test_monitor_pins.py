"""Digests of what ``MonitorPipeline`` publishes, recorded before the slot.

Recorded at 3ce8016, the parent of the change that moved the
received-order spin state into ``FlowRecord`` and the window's flow set
into ``SpinFlowTable.on_server_datagram`` — so that change is judged
against bytes it did not produce.  Each digest covers the summary *and*
every window snapshot of one tap; regenerate only from a commit whose
output is known good, never from the change under test.

The four taps reach the four shapes the packet path has: *steady* (no
resolver, nothing evicted), *churn* (rebinds, rotations, unlinkable
migrations, TCP flows, a 64-flow table), *corrupt* (a tenth of the
datagrams truncated below a header) and *sliding* (three-pane windows,
so ``flow_keys`` sets outlive their window).
"""

import hashlib
import json
import random

import pytest

from repro.cli import main
from repro.faults.spec import corrupt_datagram_stream
from repro.monitor import (
    MonitorConfig,
    MonitorPipeline,
    TrafficConfig,
    TrafficMux,
    WindowConfig,
)
from repro.netsim.migration import parse_migration_plan

CHURN_PLAN = "nat-rebind:0.2,cid-rotation:0.2,path-migration:0.05"

#: name -> (traffic, corrupt probability, monitor config, sha256)
TAPS = {
    "steady": (
        TrafficConfig(flows=60, seed=7, arrival_window_ms=2_000.0),
        0.0,
        MonitorConfig(),
        "cd1294762ab2640f487cf78d0f4f7425c58d8b715e37b95eefbb83cda4ad897a",
    ),
    "churn": (
        TrafficConfig(
            flows=150, seed=7, arrival_window_ms=2_000.0, tcp_flows=15,
            migration=parse_migration_plan(CHURN_PLAN),
        ),
        0.0,
        MonitorConfig(max_flows=64, track_migration=True),
        "eebb43c7566f951de0873b1fc8d82f5dd8a5fcc6bab40332729aeb995b7521e7",
    ),
    "corrupt": (
        TrafficConfig(flows=60, seed=7, arrival_window_ms=2_000.0),
        0.1,
        MonitorConfig(),
        "565717b39adcfd818c3d5568c577b6d2372b3c93fdd7c06869b87df9f52dd3c3",
    ),
    "sliding": (
        TrafficConfig(flows=60, seed=7, arrival_window_ms=2_000.0),
        0.0,
        MonitorConfig(window=WindowConfig(window_ms=500.0, slide_windows=3)),
        "b3b3fb409409b3dc9b6b365290c3f6ce43e46c6e9f895aa61f6b201a5e11a586",
    ),
}

#: sha256 of ``repro monitor --flows 50 --seed 9`` JSONL at the same commit.
CLI_JSONL = "90037a831aef4d13b53538a431b95f26a1633341091856a152b07d1f53623c94"


def published_digest(traffic, corrupt, config) -> tuple[str, int]:
    """sha256 over the summary and every snapshot of one pass."""
    stream = TrafficMux(traffic).stream()
    if corrupt:
        stream = corrupt_datagram_stream(stream, corrupt, random.Random(traffic.seed))
    snapshots = []
    pipeline = MonitorPipeline(config, on_snapshot=snapshots.append)
    summary = pipeline.process_stream(stream)
    published = [summary.as_dict(), [snapshot.as_dict() for snapshot in snapshots]]
    text = json.dumps(published, sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest(), len(snapshots)


@pytest.mark.parametrize("name", TAPS)
def test_published_bytes_match_the_parent(name):
    traffic, corrupt, config, expected = TAPS[name]
    digest, windows = published_digest(traffic, corrupt, config)
    assert windows > 1
    assert digest == expected


def test_cli_jsonl_matches_the_parent(tmp_path, capsys):
    out = tmp_path / "monitor.jsonl"
    assert main(["monitor", "--flows", "50", "--seed", "9", "--out", str(out)]) == 0
    capsys.readouterr()
    assert hashlib.sha256(out.read_bytes()).hexdigest() == CLI_JSONL
