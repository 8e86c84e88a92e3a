"""The streaming monitoring service: mux, windows, pipeline, snapshots."""

import hashlib
import io
import json

import pytest

from repro.cli import main
from repro.core.flow_table import SpinFlowTable
from repro.monitor import (
    LogHistogram,
    MonitorConfig,
    MonitorPipeline,
    TrafficConfig,
    TrafficMux,
    WindowAggregator,
    WindowConfig,
    run_monitor,
)

SMALL = TrafficConfig(flows=25, seed=7, arrival_window_ms=1_500.0)


@pytest.fixture(scope="module")
def small_stream():
    return list(TrafficMux(SMALL).stream())


class TestTrafficMux:
    def test_stream_is_time_ordered(self, small_stream):
        times = [tap.time_ms for tap in small_stream]
        assert times == sorted(times)

    def test_stream_interleaves_flows(self, small_stream):
        """The tap sees many flows, and they genuinely interleave."""
        indices = {tap.flow_index for tap in small_stream}
        assert len(indices) == SMALL.flows
        switches = sum(
            1
            for a, b in zip(small_stream, small_stream[1:])
            if a.flow_index != b.flow_index
        )
        assert switches > len(indices)  # not one-flow-at-a-time blocks

    def test_stream_deterministic(self, small_stream):
        again = list(TrafficMux(SMALL).stream())
        assert again == small_stream

    def test_specs_cover_configured_mixes(self):
        specs = TrafficMux(TrafficConfig(flows=200, seed=1)).specs
        assert len({spec.stack_name for spec in specs}) >= 5
        assert len({spec.path_class for spec in specs}) >= 3
        starts = [spec.start_ms for spec in specs]
        assert max(starts) - min(starts) > 1_000.0

    def test_replay_single_matches_interleaved_slice(self, small_stream):
        """Isolated re-simulation reproduces a flow's slice of the
        merged stream exactly — same payloads at the same tap times."""
        for index in (0, 7, 24):
            slice_ = [tap for tap in small_stream if tap.flow_index == index]
            assert TrafficMux(SMALL).replay_single(index) == slice_

    def test_flow_observations_match_isolated_replay(self, small_stream):
        """The ISSUE's equivalence property: feeding the interleaved
        stream through a flow table yields the same per-flow spin
        observation as replaying each flow separately."""
        merged = SpinFlowTable(short_dcid_length=8, max_flows=SMALL.flows)
        for tap in small_stream:
            merged.on_server_datagram(tap.time_ms, tap.data)
        merged_obs = merged.observations()

        mux = TrafficMux(SMALL)
        isolated_obs = {}
        for index in range(SMALL.flows):
            table = SpinFlowTable(short_dcid_length=8)
            for tap in mux.replay_single(index):
                table.on_server_datagram(tap.time_ms, tap.data)
            isolated_obs.update(table.observations())

        assert set(merged_obs) == set(isolated_obs)
        for key, observation in isolated_obs.items():
            other = merged_obs[key]
            assert other.rtts_received_ms == observation.rtts_received_ms
            assert other.values_seen == observation.values_seen
            assert other.packets_seen == observation.packets_seen

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TrafficConfig(flows=0)
        with pytest.raises(ValueError):
            TrafficConfig(drain_window_ms=0.0)


class TestLogHistogram:
    def test_exact_stats_and_percentile_accuracy(self):
        hist = LogHistogram(0.1, 60_000.0, bins_per_decade=32)
        values = [float(v) for v in range(1, 1001)]  # 1..1000 ms
        for value in values:
            hist.add(value)
        assert hist.count == 1000
        assert hist.summary()["mean_ms"] == pytest.approx(500.5)
        assert hist.min_seen == 1.0
        assert hist.max_seen == 1000.0
        # Percentiles within the bin-ratio relative error (~±3.7 %).
        for q, expected in ((50.0, 500.0), (90.0, 900.0), (99.0, 990.0)):
            assert hist.percentile(q) == pytest.approx(expected, rel=0.05)

    def test_out_of_range_values_kept(self):
        hist = LogHistogram(1.0, 100.0)
        hist.add(0.01)
        hist.add(5_000.0)
        assert hist.count == 2
        assert hist.underflow == 1 and hist.overflow == 1
        assert hist.percentile(0.0) == 0.01
        assert hist.percentile(100.0) == 5_000.0

    def test_merge_equals_combined(self):
        a, b, combined = (LogHistogram() for _ in range(3))
        for value in (1.0, 10.0, 25.0):
            a.add(value)
            combined.add(value)
        for value in (3.0, 300.0):
            b.add(value)
            combined.add(value)
        a.merge(b)
        assert a.counts == combined.counts
        assert a.summary() == combined.summary()

    def test_merge_rejects_different_binning(self):
        with pytest.raises(ValueError):
            LogHistogram(0.1, 100.0).merge(LogHistogram(0.1, 200.0))

    def test_empty_summary(self):
        assert LogHistogram().summary() == {"count": 0}


class TestWindowAggregator:
    def test_tumbling_windows_aligned_and_complete(self):
        agg = WindowAggregator(WindowConfig(window_ms=100.0))
        snapshots = []
        for time_ms in (10.0, 50.0, 120.0, 130.0, 450.0):
            snapshots.extend(agg.roll(time_ms, {"active_flows": 0}))
            agg.window_for(time_ms).datagrams += 1
            agg.record_sample(time_ms, 42.0)
        snapshots.extend(agg.flush({"active_flows": 0}))
        assert [s.index for s in snapshots] == [0, 1, 4]  # empty skipped
        assert [(s.start_ms, s.end_ms) for s in snapshots] == [
            (0.0, 100.0),
            (100.0, 200.0),
            (400.0, 500.0),
        ]
        assert sum(s.datagrams for s in snapshots) == 5
        assert sum(s.samples["count"] for s in snapshots) == 5
        assert agg.lifetime.count == 5

    def test_sliding_view_merges_recent_windows(self):
        agg = WindowAggregator(WindowConfig(window_ms=100.0, slide_windows=3))
        snapshots = []
        for time_ms in (10.0, 110.0, 210.0, 310.0):
            snapshots.extend(agg.roll(time_ms, {}))
            agg.window_for(time_ms).datagrams += 1
            agg.record_sample(time_ms, 10.0)
        snapshots.extend(agg.flush({}))
        last = snapshots[-1]
        assert last.sliding is not None
        assert last.sliding["windows"] == 3
        assert last.sliding["datagrams"] == 3
        assert last.sliding["span_ms"] == 300.0
        assert last.sliding["samples"]["count"] == 3


class TestMonitorPipeline:
    def test_bounded_memory_under_load(self, small_stream):
        """Table bounded at max_flows, no retired-flow accumulation,
        no observer object and no sample series behind a flow's slot."""
        config = MonitorConfig(max_flows=8)
        pipeline = MonitorPipeline(config)
        for tap in small_stream:
            pipeline.process(tap.time_ms, tap.data)
            assert len(pipeline.table.flows) <= 8
        summary = pipeline.finish()
        assert pipeline.table.evicted == []  # retain_retired=False
        assert summary.peak_flows <= 8
        assert summary.flows_evicted > 0
        for flow in pipeline.table.flows.values():
            assert flow._observer is None
            assert flow.observation().rtts_received_ms == []

    def test_summary_consistent_with_windows(self, small_stream):
        snapshots = []
        pipeline = MonitorPipeline(on_snapshot=snapshots.append)
        summary = pipeline.process_stream(iter(small_stream))
        assert summary.windows == len(snapshots)
        assert sum(s.datagrams for s in snapshots) == summary.datagrams
        assert sum(s.packets for s in snapshots) == summary.packets
        assert (
            sum(s.samples["count"] for s in snapshots)
            == summary.samples["count"]
        )
        assert summary.datagrams == len(small_stream)
        assert summary.flows_created == SMALL.flows
        assert summary.spin_flows > 0
        assert summary.duration_ms == small_stream[-1].time_ms

    def test_snapshots_emitted_during_stream(self, small_stream):
        """Streaming, not batch: snapshots arrive before the end."""
        seen_at = []
        pipeline = MonitorPipeline(
            MonitorConfig(window=WindowConfig(window_ms=200.0)),
            on_snapshot=lambda s: seen_at.append(s.end_ms),
        )
        emitted_early = False
        for position, tap in enumerate(small_stream):
            pipeline.process(tap.time_ms, tap.data)
            if seen_at and position < len(small_stream) - 1:
                emitted_early = True
        assert emitted_early


class TestSnapshots:
    def test_run_monitor_jsonl_deterministic(self):
        first, second = io.StringIO(), io.StringIO()
        for out in (first, second):
            run_monitor(SMALL, MonitorConfig(), out=out)
        assert first.getvalue() == second.getvalue()
        lines = [json.loads(line) for line in first.getvalue().splitlines()]
        assert all(line["schema"] == 1 for line in lines)
        assert [line["type"] for line in lines].count("summary") == 1
        windows = [line for line in lines if line["type"] == "window"]
        assert windows
        assert {"datagrams", "flows", "samples", "table"} <= set(windows[0])

    def test_cli_monitor_roundtrip(self, tmp_path, capsys):
        out = tmp_path / "snapshots.jsonl"
        args = [
            "monitor",
            "--flows", "15",
            "--seed", "5",
            "--arrival-window-ms", "800",
            "--out", str(out),
        ]
        assert main(args) == 0
        capsys.readouterr()
        lines = out.read_text().strip().splitlines()
        summary = json.loads(lines[-1])
        assert summary["type"] == "summary"
        assert summary["flows"]["created"] == 15
        # Second run is byte-identical.
        out2 = tmp_path / "snapshots2.jsonl"
        assert main(args[:-1] + [str(out2)]) == 0
        assert out2.read_text() == out.read_text()

    def test_cli_monitor_rejects_bad_config(self, capsys):
        with pytest.raises(SystemExit):
            main(["monitor", "--flows", "0", "--out", "-"])


#: sha256 of ``repro monitor`` JSONL output (windows + summary), recorded
#: at e57b132 — the commit before the observer went header-only.  They
#: pin every snapshot byte: counters, flow sets, RTT histograms, table
#: health, migration block.  Regenerate only from a commit whose output
#: is known good, never from the change under test.
MIGRATE = "nat-rebind:0.35,cid-rotation:0.35,path-migration:0.1"
GOLDEN_SNAPSHOTS = {
    "plain": (
        [],
        "aa9f031764af838e0518175962a2e4a4d0e493a440caff03b760b7882b66f944",
    ),
    "corrupt": (
        ["--flows", "80", "--seed", "5", "--fault", "corrupt-datagram:0.1"],
        "8eaf30628237ee3ea43f44aa64bff569075c87035bea3f717250b3fafd6aed50",
    ),
    "corrupt+migration+tcp+churn": (
        [
            "--flows", "80", "--seed", "11", "--fault", "corrupt-datagram:0.08",
            "--migrate", MIGRATE, "--tcp-flows", "8", "--max-flows", "32",
        ],
        "3a776b224e3ab97f14a2fd553169dac8cabd834d24c6087666bd602b7b8e1845",
    ),
}


@pytest.mark.parametrize("scenario", GOLDEN_SNAPSHOTS)
def test_golden_snapshot_bytes(scenario, tmp_path, capsys):
    args, expected = GOLDEN_SNAPSHOTS[scenario]
    out = tmp_path / "snapshots.jsonl"
    assert main(["monitor", *args, "--out", str(out)]) == 0
    capsys.readouterr()
    assert hashlib.sha256(out.read_bytes()).hexdigest() == expected
