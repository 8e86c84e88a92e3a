"""Smoke pass of the benchmark: ``python3 -m pytest bench -q``.

Outside the tier-1 ``testpaths``.  Runs every workload once untraced and
once traced at ``--scale smoke`` and checks the contract between
``BENCHMARK.json`` and what the runner emits.
"""

from __future__ import annotations

import json
import re

import pytest

from bench import compare, run

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
SPEC = run.load_spec()
WORKLOADS = [entry["name"] for entry in SPEC["workloads"]]

#: Per-layer metrics that are counts of the inputs, not timings: the same
#: seed must give the same value on every run.
EXACT = (
    "netsim.events_per_domain",
    "quic.packets_per_domain",
    "web.connections_per_kdomain",
    "faults.failed_connections",
    "artifacts.bytes_per_record",
    "artifacts.chunks_total",
    "analysis.chunks_selected_share",
    "analysis.records_scanned_per_match",
    "core.evictions",
    "core.rebinds_seen",
    "monitor.windows",
    "monitor.rtt_samples",
)


def test_spec_is_within_the_contract_limits():
    assert set(SPEC) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    assert 1 <= len(SPEC["per_layer"]) <= 128
    names = [
        entry["name"]
        for section in ("workloads", "end_to_end", "per_layer")
        for entry in SPEC[section]
    ]
    assert len(names) == len(set(names)), "a name is used twice"
    assert all(NAME.match(name) for name in names)
    for entry in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.match(entry["unit"]) and entry["better"] in ("higher", "lower")
    for entry in SPEC["end_to_end"]:
        assert 0 < entry["bound"] <= 0.25
    for entry in SPEC["workloads"]:
        assert len(entry["why"]) <= 200 and "\n" not in entry["why"]
    setup = [e for e in SPEC["end_to_end"] if e["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(e["bound"] for e in SPEC["end_to_end"])


@pytest.fixture(scope="module")
def smoke_runs():
    """{(workload, traced): result document}, smoke scale, default seed."""
    return {
        (workload, traced): run.run_workload(
            workload, run.DEFAULT_SEED, 0.4 if not traced else 1.0, traced, "smoke"
        )
        for workload in WORKLOADS
        for traced in (False, True)
    }


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_emitted_and_correct(smoke_runs, workload):
    for traced, section in ((False, "end_to_end"), (True, "per_layer")):
        document = smoke_runs[workload, traced]
        assert document["failures"] == []
        assert document["correct"] and document["failed"] == 0
        assert document["attempted"] >= 1
        assert document["scale"] == "smoke"
        assert set(document["metrics"]) == {entry["name"] for entry in SPEC[section]}
        json.dumps(document)  # the whole document is plain data
    for name, metric in smoke_runs[workload, False]["metrics"].items():
        assert metric["value"] > 0, f"{name} must never be 0"


def test_layers_split_the_way_the_workloads_were_designed(smoke_runs):
    def value(workload, name):
        return smoke_runs[workload, True]["metrics"][name]["value"]

    assert value("campaign_week", "share.web") > 0.5
    for workload in WORKLOADS:
        if not workload.startswith("campaign"):
            assert value(workload, "share.web") == 0
    assert value("archive_query", "share.artifacts") + value(
        "archive_query", "share.analysis"
    ) > 0.8
    assert value("service_readwrite", "share.service") > 0.6
    assert value("service_readwrite", "service.chunks_decoded_summary_routes") == 0
    assert value("monitor_steady", "core.resolver_resolves_per_s") == 0
    assert value("monitor_steady", "core.evictions") == 0
    assert value("monitor_churn", "core.resolver_resolves_per_s") > 0
    assert value("monitor_churn", "core.evictions") > 0


@pytest.mark.parametrize("workload", ["campaign_chaos", "archive_query", "monitor_churn"])
def test_counts_repeat_exactly(smoke_runs, workload):
    again = run.run_workload(workload, run.DEFAULT_SEED, 1.0, True, "smoke")
    first = smoke_runs[workload, True]["metrics"]
    for name in EXACT:
        assert again["metrics"][name]["value"] == first[name]["value"], name


def test_compare_refuses_another_scale(tmp_path):
    base = {"seed": 1, "scale": "full", "seconds": 10.0, "nproc": 2, "commit": "a", "runs": []}
    (tmp_path / "full.json").write_text(json.dumps(base))
    (tmp_path / "smoke.json").write_text(json.dumps({**base, "scale": "smoke"}))
    with pytest.raises(SystemExit, match="scale differs"):
        compare.compare_files([str(tmp_path / "full.json"), str(tmp_path / "smoke.json")])


def test_compare_says_unresolved_when_spread_exceeds_the_bound():
    steady = [100.0, 101.0, 99.0, 100.5, 100.2]
    noisy = [70.0, 130.0, 100.0, 85.0, 120.0]
    assert compare.verdict(steady, steady, "higher", 0.1) == "unchanged"
    assert compare.verdict(steady, noisy, "higher", 0.1) == "unresolved"
    assert compare.verdict(steady, [x * 0.8 for x in steady], "higher", 0.1) == "regressed"
    assert compare.verdict(steady, [x * 1.3 for x in steady], "higher", 0.1) == "improved"
    # Noisy, but every run of one side beats every run of the other.
    assert compare.verdict(noisy, [x * 3 for x in noisy], "higher", 0.1) == "improved"
    assert compare.verdict(noisy, [x * 3 for x in noisy], "lower", 0.1) == "regressed"
