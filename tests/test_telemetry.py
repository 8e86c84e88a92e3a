"""The deterministic telemetry plane (``repro.telemetry``)."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.monitor.pipeline import MonitorConfig, MonitorPipeline
from repro.monitor.traffic import TrafficConfig, TrafficMux
from repro.telemetry import (
    MetricsRegistry,
    Telemetry,
    registry_to_prometheus,
    render_summary,
    trace_rows,
)
from repro.web.parallel import ParallelScanConfig
from repro.web.scanner import ScanConfig, Scanner

REPO_ROOT = Path(__file__).resolve().parent.parent


class TestRegistry:
    def test_counter_gauge_histogram(self):
        registry = MetricsRegistry()
        registry.counter("a.events").inc()
        registry.counter("a.events").inc(4)
        registry.gauge("a.level").set(3.5)
        registry.gauge("a.peak", agg="max").set_max(7.0)
        registry.gauge("a.peak", agg="max").set_max(2.0)
        registry.histogram("a.rtt_ms").observe(25.0)
        snapshot = registry.snapshot()
        assert snapshot["counters"]["a.events"] == 5
        assert snapshot["gauges"]["a.level"] == 3.5
        assert snapshot["gauges"]["a.peak"] == 7.0
        assert snapshot["histograms"]["a.rtt_ms"]["count"] == 1

    def test_labels_split_series(self):
        registry = MetricsRegistry()
        registry.counter("pkts", role="client").inc(2)
        registry.counter("pkts", role="server").inc(5)
        snapshot = registry.snapshot()
        assert snapshot["counters"]["pkts{role=client}"] == 2
        assert snapshot["counters"]["pkts{role=server}"] == 5

    def test_kind_conflict_rejected(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(ValueError, match="already registered"):
            registry.gauge("x")

    def test_gauge_agg_conflict_rejected(self):
        registry = MetricsRegistry()
        registry.gauge("hw", agg="max")
        with pytest.raises(ValueError, match="agg"):
            registry.gauge("hw", agg="sum")

    def test_merge_equals_sequential(self):
        sequential = MetricsRegistry()
        shard_a, shard_b = MetricsRegistry(), MetricsRegistry()
        for index in range(40):
            target = shard_a if index % 2 == 0 else shard_b
            for registry in (sequential, target):
                registry.counter("n").inc()
                registry.gauge("hw", agg="max").set_max(float(index))
                registry.histogram("h").observe(0.3 + index * 7.7)
        merged = MetricsRegistry()
        merged.merge(shard_a)
        merged.merge(shard_b)
        assert merged.snapshot() == sequential.snapshot()
        assert registry_to_prometheus(merged) == registry_to_prometheus(sequential)


class TestExport:
    def test_prometheus_format(self):
        registry = MetricsRegistry()
        registry.counter("scan.domains").inc(3)
        registry.gauge("netsim.queue_high_water", agg="max").set_max(9.0)
        registry.histogram("rtt-ms").observe(10.0)
        text = registry_to_prometheus(registry)
        assert "# TYPE repro_scan_domains_total counter" in text
        assert "repro_scan_domains_total 3" in text
        assert "repro_netsim_queue_high_water 9.0" in text
        assert '# TYPE repro_rtt_ms summary' in text
        assert 'repro_rtt_ms{quantile="0.5"}' in text
        assert "repro_rtt_ms_count 1" in text
        assert text.endswith("\n")

    def test_render_summary_mentions_everything(self):
        registry = MetricsRegistry()
        registry.counter("c").inc(2)
        registry.histogram("h").observe(5.0)
        telemetry = Telemetry()
        for unit in ("a", "b"):
            telemetry.tracer.event(f"e:{unit}", time_ms=1.0)
        text = render_summary(
            registry.snapshot(), trace_rows(telemetry.tracer.records, "feed")
        )
        assert "trace: 2 rows (trace feed)" in text
        assert "e x2" in text
        assert "c" in text and "2" in text
        assert "count=1" in text
        assert render_summary({}) == "(no telemetry recorded)"

    def test_save_writes_the_directory(self, tmp_path):
        telemetry = Telemetry()
        telemetry.registry.counter("n").inc()
        telemetry.tracer.event("e", time_ms=1.0)
        telemetry.tracer.event("d", diag=True)
        paths = telemetry.save(tmp_path / "tele")
        assert set(paths) == {"trace", "diag", "snapshot", "prom"}
        assert sorted(path.name for path in (tmp_path / "tele").iterdir()) == [
            "diag.jsonl", "metrics.json", "metrics.prom", "trace.jsonl",
        ]
        snapshot = json.loads(paths["snapshot"].read_text())
        assert snapshot["counters"]["n"] == 1


class TestScanTelemetry:
    @pytest.fixture(scope="class")
    def targets(self, tiny_population):
        return tiny_population.domains[:60]

    def _scan(self, population, targets, workers, out_dir):
        telemetry = Telemetry()
        scanner = Scanner(
            population,
            ScanConfig(),
            parallel=ParallelScanConfig(workers=workers),
            telemetry=telemetry,
        )
        scanner.scan(week_label="cw20-2023", ip_version=4, domains=targets)
        return telemetry.save(out_dir)

    def test_trace_and_metrics_identical_across_worker_counts(
        self, tiny_population, targets, tmp_path
    ):
        """The issue's acceptance criterion: equal seeds, any sharding,
        byte-identical deterministic artifacts."""
        seq = self._scan(tiny_population, targets, 1, tmp_path / "w1")
        par = self._scan(tiny_population, targets, 4, tmp_path / "w4")
        assert seq["trace"].read_bytes() == par["trace"].read_bytes()
        assert seq["prom"].read_bytes() == par["prom"].read_bytes()
        assert seq["snapshot"].read_bytes() == par["snapshot"].read_bytes()

    def test_counters_match_dataset(self, tiny_population, targets):
        telemetry = Telemetry()
        scanner = Scanner(tiny_population, ScanConfig(), telemetry=telemetry)
        dataset = scanner.scan(
            week_label="cw20-2023", ip_version=4, domains=targets
        )
        counters = telemetry.registry.snapshot()["counters"]
        assert counters["scan.domains"] == len(targets)
        assert counters["scan.connections"] == len(dataset.connection_records())
        assert counters["scan.domains_resolved"] == sum(
            1 for result in dataset.results if result.resolved
        )
        assert counters["scan.domains_quic"] == sum(
            1 for result in dataset.results if result.quic_support
        )
        successes = sum(
            1 for record in dataset.connection_records() if record.success
        )
        assert counters.get("scan.handshakes{outcome=success}", 0) == successes
        # One deterministic trace row per domain and per connection,
        # under the scan's row.
        records = telemetry.tracer.records
        stages = [record.path[-1].partition(":")[0] for record in records]
        assert stages.count("domain") == len(targets)
        assert stages.count("connection") == counters["scan.connections"]
        assert records[-1].path[-1] == "scan:cw20-2023"
        assert "workers" not in records[-1].attrs

    def test_telemetry_off_costs_nothing_semantically(
        self, tiny_population, targets
    ):
        bare = Scanner(tiny_population, ScanConfig()).scan(
            week_label="cw20-2023", ip_version=4, domains=targets
        )
        instrumented = Scanner(
            tiny_population, ScanConfig(), telemetry=Telemetry()
        ).scan(week_label="cw20-2023", ip_version=4, domains=targets)
        assert bare == instrumented


class TestMonitorTelemetry:
    def test_pipeline_reports_into_registry(self):
        telemetry = Telemetry()
        traffic = TrafficConfig(flows=25, seed=5)
        pipeline = MonitorPipeline(MonitorConfig(), telemetry=telemetry)
        mux = TrafficMux(traffic, metrics=telemetry.registry)
        summary = pipeline.process_stream(mux.stream())

        snapshot = telemetry.registry.snapshot()
        counters = snapshot["counters"]
        assert counters["flow_table.datagrams"] == summary.datagrams
        assert counters["flow_table.flows_created"] == summary.flows_created
        assert counters["monitor.windows_closed"] == summary.windows
        assert counters["monitor.spin_flows"] == summary.spin_flows
        assert counters["netsim.events_dispatched"] > 0
        assert snapshot["gauges"]["flow_table.peak_flows"] == summary.peak_flows
        assert (
            snapshot["histograms"]["monitor.rtt_ms"]["count"]
            == summary.samples.get("count", 0)
        )

        *windows, monitor = telemetry.tracer.records
        assert len(windows) == summary.windows
        assert all(
            len(row.path) == 2 and row.path[0] == "monitor" for row in windows
        )
        indices = [int(row.path[-1].removeprefix("window:")) for row in windows]
        assert indices == sorted(set(indices))
        assert sum(row.attrs["datagrams"] for row in windows) == summary.datagrams
        assert monitor.path == ("monitor",)
        assert monitor.end_ms == summary.duration_ms
        assert monitor.attrs["flows_created"] == summary.flows_created
        assert monitor.attrs["samples"] == summary.samples.get("count", 0)
        assert telemetry.tracer._stack == []

    def test_window_histogram_folds_in(self):
        """The pipeline's lifetime RTT histogram is the registry's
        binning, so it folds in whole."""
        telemetry = Telemetry()
        pipeline = MonitorPipeline(telemetry=telemetry)
        mux = TrafficMux(TrafficConfig(flows=10, seed=5), metrics=telemetry.registry)
        summary = pipeline.process_stream(mux.stream())
        hist = telemetry.registry.snapshot()["histograms"]["monitor.rtt_ms"]
        assert hist["count"] == summary.samples.get("count", 0) > 0
        assert hist == pipeline.aggregator.lifetime.summary()


class TestDeterminismLint:
    LINT = REPO_ROOT / "scripts" / "check_determinism_lint.py"

    def test_src_tree_is_clean(self):
        result = subprocess.run(
            [sys.executable, str(self.LINT), str(REPO_ROOT / "src")],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0, result.stderr

    def test_wall_clock_reads_are_caught(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text(
            "import time\nstart = time.time()\n", encoding="utf-8"
        )
        result = subprocess.run(
            [sys.executable, str(self.LINT), str(tmp_path)],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 1
        assert "bad.py:2" in result.stderr

    def test_pragma_escapes_the_lint(self, tmp_path):
        ok = tmp_path / "ok.py"
        ok.write_text(
            "import time\n"
            "start = time.perf_counter()  # wallclock-ok: diagnostics\n",
            encoding="utf-8",
        )
        result = subprocess.run(
            [sys.executable, str(self.LINT), str(tmp_path)],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0

    def test_json_in_record_loop_is_caught(self, tmp_path):
        analysis = tmp_path / "repro" / "analysis"
        analysis.mkdir(parents=True)
        bad = analysis / "hot.py"
        bad.write_text(
            "import json\n"
            "def f(lines):\n"
            "    out = json.dumps({})\n"  # outside a loop: fine
            "    for line in lines:\n"
            "        data = json.loads(line)\n"
            "    return out\n",
            encoding="utf-8",
        )
        result = subprocess.run(
            [sys.executable, str(self.LINT), str(tmp_path)],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 1
        assert "hot.py:5" in result.stderr
        assert "hot.py:3" not in result.stderr

    def test_jsonl_pragma_escapes_the_loop_rule(self, tmp_path):
        analysis = tmp_path / "repro" / "analysis"
        analysis.mkdir(parents=True)
        ok = analysis / "codec.py"
        ok.write_text(
            "import json\n"
            "def read(lines):\n"
            "    for line in lines:\n"
            "        yield json.loads(line)  # jsonl-ok: the JSONL codec\n",
            encoding="utf-8",
        )
        result = subprocess.run(
            [sys.executable, str(self.LINT), str(tmp_path)],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0

    def test_endpoint_decoder_in_on_path_code_is_caught(self, tmp_path):
        """The reference codec may be named in its own modules only —
        not under the observer, not in the endpoint, not in analysis."""
        source = (
            '"""decode_datagram may be named in a docstring."""\n'
            "from repro.quic.datagram import (\n"
            "    decode_datagram,\n"
            ")\n"
            "import repro.quic.frames as frames\n"
            "def f(data):\n"
            "    return frames.decode_frames(data)\n"
        )
        more = (
            "from repro.quic.packet import parse_header\n"
            "from repro.quic import datagram\n"
            "def g(packets):\n"
            "    return datagram.encode_datagram(packets)\n"
            "def h(header):\n"
            "    return QuicPacket(header)\n"
        )
        for layer, name, text in (
            ("core", "observer.py", source),
            ("analysis", "oracle.py", source),
            ("quic", "connection.py", more),
            ("quic", "onpath.py", more),
            ("", "cli.py", more),
            # The codec's own modules, and the package re-exporting them.
            ("quic", "datagram.py", source + more),
            ("quic", "packet.py", source + more),
            ("quic", "frames.py", source + more),
            ("quic", "__init__.py", source + more),
        ):
            directory = tmp_path / "repro" / layer
            directory.mkdir(parents=True, exist_ok=True)
            (directory / name).write_text(text, encoding="utf-8")
        result = subprocess.run(
            [sys.executable, str(self.LINT), str(tmp_path)],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 1
        for name in ("observer.py", "oracle.py"):
            assert f"{name}:2" in result.stderr
            assert f"{name}:7" in result.stderr
            assert f"{name}:1:" not in result.stderr
        for name in ("connection.py", "onpath.py", "cli.py"):
            for line in (1, 4, 6):
                assert f"{name}:{line}:" in result.stderr
            assert f"{name}:2:" not in result.stderr
        for name in ("datagram.py", "packet.py", "frames.py", "__init__.py"):
            assert name not in result.stderr

    def test_a_second_endpoint_datapath_is_caught(self, tmp_path):
        """One fabricated offender per pattern: dispatch on codec
        objects, a second exit, a second count — in the endpoint — and a
        field decoder that builds a frame."""
        quic = tmp_path / "repro" / "quic"
        quic.mkdir(parents=True)
        endpoint = (
            "def _send(self, data):",
            "    self.counts.sent += 1",
            "    self.transport(data)",
            "def _receive(self, frame):",
            "    self.counts.received += 1",
            "    if isinstance(frame, dict): pass",
            "    if isinstance(frame, CryptoFrame): pass",  # 7
            "    if isinstance(frame, (bytes, frames.AckFrame)): pass",  # 8
            "    if isinstance(frame.header, packet.LongishHeader): pass",  # 9
            "def _send_retry(self, data):",
            "    self.counts.sent += 1",  # 11
            "    self.transport(data)",  # 12
            "def _receive_long(self):",
            "    self.counts.received += 1",  # 14
            "    self.spaces.sent += 1",
        )
        (quic / "connection.py").write_text("\n".join(endpoint) + "\n", encoding="utf-8")
        # Anywhere else the same lines are nobody's business.
        (quic / "rtt.py").write_text("\n".join(endpoint) + "\n", encoding="utf-8")
        decoder = (
            "def decode_frame_fields(data, at):",
            "    if at > len(data): raise FrameParseError('truncated')",
            "    frame, at = _decode_crypto(data, at)",  # 3
            "    return [(0x1E, HandshakeDoneFrame())], at",  # 4
            "def decode_frames(data):",
            "    return [HandshakeDoneFrame()]",
        )
        (quic / "frames.py").write_text("\n".join(decoder) + "\n", encoding="utf-8")
        result = subprocess.run(
            [sys.executable, str(self.LINT), str(tmp_path)],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 1
        flagged = sorted(
            line.strip().split(": ")[0].rsplit("/", 1)[1]
            for line in result.stderr.splitlines()
            if line.startswith("  /")
        )
        assert flagged == sorted(
            [f"connection.py:{n}" for n in (7, 8, 9, 11, 12, 14)] + ["frames.py:3", "frames.py:4"]
        )

    def test_pipeline_code_on_the_packet_path_is_caught(self, tmp_path):
        """One fabricated offender per pattern, in ``monitor/pipeline.py``
        only: the hooks the table calls per packet, and a ``process``
        wrapper around the table's entry."""
        monitor = tmp_path / "repro" / "monitor"
        monitor.mkdir(parents=True)
        pipeline = (
            "class MonitorPipeline:",
            "    def __init__(self):",
            "        self.table = SpinFlowTable(",
            "            on_retire=self._on_retire,",
            "            on_window=self._open_window,",
            "            on_sample=self.aggregator.record_sample,",
            "        )",
            "        self.other = SpinFlowTable(",
            "            observer_factory=make,",  # 9
            "            on_packet=self.aggregator.touch,",  # 10
            "            on_sample=self._on_sample,",  # 11
            "        )",
            "        self.third = SpinFlowTable(on_sample=lambda t, rtt: None)",  # 13
            "    def process(self, time_ms, data):",  # 14
            "        self.table.on_server_datagram(time_ms, data)",
            "    def _on_sample(self, time_ms, rtt_ms): pass",
            "    def _on_retire(self, flow, reason): pass",
            "    def _open_window(self, time_ms): pass",
        )
        (monitor / "pipeline.py").write_text("\n".join(pipeline) + "\n", encoding="utf-8")
        # A bench or an example may attach observers and hooks.
        (monitor / "snapshots.py").write_text("\n".join(pipeline) + "\n", encoding="utf-8")
        result = subprocess.run(
            [sys.executable, str(self.LINT), str(tmp_path)],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 1
        flagged = sorted(
            line.strip().split(": ")[0].rsplit("/", 1)[1]
            for line in result.stderr.splitlines()
            if line.startswith("  /")
        )
        assert flagged == sorted(f"pipeline.py:{n}" for n in (9, 10, 11, 13, 14))

    def test_a_second_flow_structure_is_caught(self, tmp_path):
        """One fabricated offender per pattern, in the flow table and the
        resolver only: a retire hook on the resolver, hex keys on the
        packet path, and a resolver call beside classification there."""
        core = tmp_path / "repro" / "core"
        core.mkdir(parents=True)
        table = (
            "class SpinFlowTable:",
            "    def on_server_datagram(self, time_ms, data, tuple4=None):",
            "        resolver = self.resolver",
            "        if resolver.classify_non_quic(data, tuple4) == 'tcp': return",
            "        flow = resolver.by_cid.get(data[1:9])",
            "        key = resolver.resolve(data[1:9].hex(), tuple4)",  # 6
            "        self.resolver.on_flow_retired(key)",  # 7
            "    def _admit(self, cid):",
            "        return cid.hex() or self.resolver.find(cid) or self.resolver.admit(cid)",
            "    def on_flow_retired(self, key): pass",  # 10
        )
        for name in ("flow_table.py", "flow_resolver.py", "observer.py"):
            (core / name).write_text("\n".join(table) + "\n", encoding="utf-8")
        result = subprocess.run(
            [sys.executable, str(self.LINT), str(tmp_path)],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 1
        flagged = sorted(
            line.strip().split(": ")[0].rsplit("/", 1)[1]
            for line in result.stderr.splitlines()
            if line.startswith("  /")
        )
        assert flagged == sorted(
            f"{name}:{n}" for name in ("flow_table.py", "flow_resolver.py") for n in (6, 7, 10)
        )

    def test_the_tcp_decoder_in_the_flow_table_is_caught(self, tmp_path):
        """The table and the resolver classify TCP by header alone; the
        segment codec stays with the generator, the tests and anyone else."""
        source = (
            '"""decode_tcp_segment may be named in a docstring."""\n'
            "from repro.netsim.tcp import TcpSegment, is_tcp_shaped\n"
            "import repro.netsim.tcp as tcp\n"
            "def classify(data):\n"
            "    return is_tcp_shaped(data) and tcp.decode_tcp_segment(data)\n"
        )
        for layer, name in (
            ("core", "flow_table.py"),
            ("core", "flow_resolver.py"),
            ("core", "observer.py"),
            ("monitor", "traffic.py"),
        ):
            directory = tmp_path / "repro" / layer
            directory.mkdir(parents=True, exist_ok=True)
            (directory / name).write_text(source, encoding="utf-8")
        result = subprocess.run(
            [sys.executable, str(self.LINT), str(tmp_path)],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 1
        flagged = sorted(
            line.strip().split(": ")[0].rsplit("/", 1)[1]
            for line in result.stderr.splitlines()
            if line.startswith("  /")
        )
        assert flagged == sorted(
            f"{name}:{n}" for name in ("flow_table.py", "flow_resolver.py") for n in (2, 5)
        )

    def test_asking_whether_anyone_listens_is_caught(self, tmp_path):
        """One fabricated offender per pattern; a pragma does not help,
        and only ``repro.telemetry`` may hold the off state's tests."""
        offenders = (
            "from contextlib import nullcontext",
            "import contextlib",
            "def f(self, telemetry, registry, metrics, span, x=None):",
            "    if telemetry is None: return",
            "    if self.telemetry is not None: pass",
            "    registry = registry if registry is not None else x",
            "    if telemetry.tracer is None: pass",
            "    profiler = telemetry.profiler",
            "    if profiler is not None: pass  # wallclock-ok robustness-ok jsonl-ok",
            "    if None is metrics: pass",
            "    metered = self._m_packets is not None",
            "    if metered is not None: pass",
            "    if span is not None: span.annotate()",
            "    if self.scan_span is None: pass",
            "    with contextlib.nullcontext(): pass",
            "    with (telemetry.tracer.span('s') if x else nullcontext()): pass",
        )
        innocent = (
            "    if x is None or telemetry: pass",
            "    if telemetry.tracer.trace_id is None: pass",
            "    if self.recorder is not None and registry == x: pass",
            "    with telemetry.tracer.span('s') as span: span.end()",
        )
        source = "\n".join(offenders + innocent) + "\n"
        for layer in ("web", "telemetry", ""):
            directory = tmp_path / "repro" / layer
            directory.mkdir(parents=True, exist_ok=True)
            (directory / "sites.py").write_text(source, encoding="utf-8")
        result = subprocess.run(
            [sys.executable, str(self.LINT), str(tmp_path)],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 1
        flagged = {1, 4, 5, 6, 7, 9, 10, 11, 12, 13, 14, 15, 16}
        for path in ("web/sites.py", "repro/sites.py"):
            for line in range(1, len(offenders + innocent) + 1):
                assert (f"{path}:{line}:" in result.stderr) == (line in flagged), (
                    path, line, result.stderr
                )
        assert "telemetry/sites.py" not in result.stderr

    #: The API's server as it read while it started a thread per connection.
    PARENT_SERVER = (
        "from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer\n"
        "def build_server(state, host, port) -> ThreadingHTTPServer:\n"
        "    server = ThreadingHTTPServer((host, port), handler)\n"
        "    server.daemon_threads = True\n"
        "    return server\n"
    )
    #: Other spellings of a thread per connection, and innocent neighbours.
    OTHER_SERVERS = (
        "import socketserver, http.server\n"
        "from socketserver import ThreadingMixIn as Mixin, TCPServer\n"
        "class Server(socketserver.ThreadingMixIn, http.server.HTTPServer): pass\n"
        "server = socketserver.ThreadingTCPServer(address, handler)\n"
        "class Pooled(http.server.HTTPServer):  # not a ThreadingHTTPServer\n"
        "    '''Unlike ThreadingMixIn, queues connections.'''\n"
        "    daemon_threads = True\n"
    )

    def test_a_thread_per_connection_server_is_caught(self, tmp_path):
        files = {
            "service/api.py": self.PARENT_SERVER,
            "service/other.py": self.OTHER_SERVERS,
            "obs/server.py": self.PARENT_SERVER + self.OTHER_SERVERS,
        }
        for name, source in files.items():
            path = tmp_path / "repro" / name
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(source, encoding="utf-8")
        result = subprocess.run(
            [sys.executable, str(self.LINT), str(tmp_path)],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 1
        flagged = {
            line.split(": ", 1)[0].split("repro/", 1)[1]
            for line in result.stderr.splitlines()
            if "repro/" in line
        }
        # Comments, docstrings and a server of its own are not a use;
        # the rule holds under service/ only.
        assert flagged == {
            "service/api.py:1", "service/api.py:2", "service/api.py:3",
            "service/other.py:2", "service/other.py:3", "service/other.py:4",
        }, result.stderr

    #: The API's routing as it read while ``http.server`` parsed each
    #: head into an ``email`` message and ``urlparse`` split the target.
    PARENT_ROUTING = (
        "from urllib.parse import parse_qs, unquote, urlparse\n"
        "def _route_get(self):\n"
        "    url = urlparse(self.path)\n"
        "    return url.path, parse_qs(url.query)\n"
    )
    #: Other ways back to a generic head or target parse, and innocent
    #: neighbours.
    OTHER_PARSES = (
        "import email.utils\n"
        "from email import message_from_string\n"
        "headers = http.client.parse_headers(self.rfile)\n"
        "from http.client import parse_headers as read_head\n"
        "target = urllib.parse.urlsplit(path)\n"
        "date = email.utils.formatdate(usegmt=True)\n"
        "def parse_request(self):  # not email.parser, not urlparse\n"
        "    '''Unlike parse_headers, reads two fields.'''\n"
        "    target, _, query = self.path.partition('?')\n"
        "    return parse_qs(query), unquote(target), user.email\n"
    )

    def test_a_second_request_parse_is_caught(self, tmp_path):
        files = {
            "service/api.py": self.PARENT_ROUTING,
            "service/other.py": self.OTHER_PARSES,
            "obs/client.py": self.PARENT_ROUTING + self.OTHER_PARSES,
        }
        for name, source in files.items():
            path = tmp_path / "repro" / name
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(source, encoding="utf-8")
        result = subprocess.run(
            [sys.executable, str(self.LINT), str(tmp_path)],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 1
        flagged = {
            line.split(": ", 1)[0].split("repro/", 1)[1]
            for line in result.stderr.splitlines()
            if "repro/" in line
        }
        # Comments, docstrings, parse_qs / unquote and an attribute called
        # email are not a use; the rule holds under service/ only.
        assert flagged == {
            "service/api.py:1", "service/api.py:3",
            *(f"service/other.py:{line}" for line in range(1, 7)),
        }, result.stderr


    #: The read-outs as they read while ``repro status --url`` and
    #: ``repro top`` fetched through the console and ``--dir`` found its
    #: own ``metrics.json``.
    PARENT_READOUTS = {
        "obs/console.py": (
            "import urllib.request\n"
            "def fetch_json(url, timeout=5.0):\n"
            "    with urllib.request.urlopen(url, timeout=timeout) as response:\n"
            "        return response.read()\n"
        ),
        "cli.py": (
            "import os\n"
            "def _cmd_status(args):\n"
            '    candidate = os.path.join(args.dir, "telemetry", "metrics.json")\n'
            "    return os.path.isfile(candidate)\n"
        ),
    }
    #: Other spellings of a second snapshot source, and innocent neighbours.
    OTHER_READOUTS = (
        "from urllib.request import urlopen as get\n"
        "from repro.telemetry import SNAPSHOT_FILENAME\n"
        "snapshot = (directory / SNAPSHOT_FILENAME).read_text()\n"
        'legacy = open(f"{directory}/metrics.json").read()\n'
        "body = urllib.request.urlopen(base + '/v1/metrics').read()\n"
        '"""Reads what ``metrics.json`` holds."""  # not metrics.json\n'
        'PROM = "metrics.prom"\n'
        'SNAPSHOT_FILENAME = "metrics.json"\n'
    )

    def test_a_second_snapshot_source_is_caught(self, tmp_path):
        files = {
            **self.PARENT_READOUTS,
            "service/reader.py": self.OTHER_READOUTS,
            "telemetry/reader.py": self.OTHER_READOUTS,
            "obs/snapshot.py": self.OTHER_READOUTS,
            "telemetry/runtime.py": self.OTHER_READOUTS,
        }
        for name, source in files.items():
            path = tmp_path / "repro" / name
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(source, encoding="utf-8")
        result = subprocess.run(
            [sys.executable, str(self.LINT), str(tmp_path)],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 1
        flagged = {
            line.split(": ", 1)[0].split("repro/", 1)[1]
            for line in result.stderr.splitlines()
            if "repro/" in line
        }
        # Docstrings, comments, other files and the definition are not a
        # read; the loader and the bundle's writer are the rule's homes.
        assert flagged == {
            "obs/console.py:3",
            "cli.py:3",
            *(
                f"{name}:{line}"
                for name in ("service/reader.py", "telemetry/reader.py")
                for line in (1, 3, 4, 5)
            ),
        }, result.stderr


class TestOneSectionDeclaration:
    """AST gate (same lint): under ``service/`` no analysis section's
    state key is spelled — the week summary passes ``fold.state()``
    through whole, so a section is declared by its fold alone."""

    def test_section_state_keys_named_under_service_are_caught(self, tmp_path):
        source = (
            "def to_json(summary, data):\n"
            "    data['org_totals'] = summary.org_totals\n"
            "    for fold in summary.folds:\n"
            "        data.update(fold.state())\n"
            "    return data.get('failure_kinds'), summary.accuracy\n"
            "def adoption(summary):\n"
            "    return {'connections_total': summary.connections_total}\n"
        )
        for layer in ("service", "analysis"):
            directory = tmp_path / "repro" / layer
            directory.mkdir(parents=True)
            (directory / "summary.py").write_text(source, encoding="utf-8")
        result = subprocess.run(
            [sys.executable, str(TestDeterminismLint.LINT), str(tmp_path)],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 1
        for line in range(1, 8):
            assert (f"service/summary.py:{line}:" in result.stderr) == (
                line in (2, 5)
            ), (line, result.stderr)
        # The folds' own layer is where the keys live.
        assert "analysis/summary.py" not in result.stderr


class TestOneDerivationOfTheMeans:
    """AST gate (same lint): a fold body under ``analysis/`` or in
    ``service/summary.py`` reads each connection's means off
    ``batch.comparable`` — it neither sums a float series nor builds a
    per-connection result object."""

    def test_means_derived_again_in_a_fold_body_are_caught(self, tmp_path):
        source = (
            "from repro.core.metrics import compare_means\n"
            "def update_many(self, batch):\n"
            "    self.successes += sum(batch.successes)\n"
            "    for mask, stack, base in zip(batch.masks, batch.stacks, batch.rtts_received):\n"
            "        total = sum(base) / len(base) + sum(mask)\n"
            "        result = compare_means(base, stack)  # wallclock-ok jsonl-ok\n"
            "    for absolute, ratio, quic_mean, base, *_ in batch.comparable:\n"
            "        mean = sum(base)\n"
            "    means = [sum(times) for times in batch.times_received]\n"
            "    first = sum(batch.rtts_sorted[0])\n"
            "    return metrics.AccuracyResult(1.0, 1.0, 0.0, 1.0)\n"
            "def update(self, batch):\n"
            "    return accuracy_from_means(1.0, 1.0)\n"
            "def helper(series, stack):\n"
            "    return sum(series), compare_means(series, stack)\n"
        )
        for layer, name in (
            ("analysis", "hot.py"), ("service", "summary.py"), ("service", "api.py"),
            ("web", "hot.py"),
        ):
            directory = tmp_path / "repro" / layer
            directory.mkdir(parents=True, exist_ok=True)
            (directory / name).write_text(source, encoding="utf-8")
        result = subprocess.run(
            [sys.executable, str(TestDeterminismLint.LINT), str(tmp_path)],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 1
        for path in ("analysis/hot.py", "service/summary.py"):
            for line in range(1, 16):
                assert (f"{path}:{line}:" in result.stderr) == (
                    line in (5, 6, 8, 9, 10, 11, 13)
                ), (path, line, result.stderr)
        # Only the fold bodies' own layer is held to it.
        assert "service/api.py" not in result.stderr
        assert "web/hot.py" not in result.stderr


class TestCountsOncePerBatch:
    """AST gate (same lint): a fold body under ``analysis/`` or in
    ``service/summary.py`` counts a series from columns — no
    ``SeriesSummary`` / ``FilterOutcome`` / ``Histogram`` ``.add(`` in a
    loop."""

    def test_a_counter_added_to_per_row_is_caught(self, tmp_path):
        source = (
            "class Study:\n"
            "    raw: FilterOutcome\n"
            "    spin_received: SeriesSummary = field(default_factory=SeriesSummary)\n"
            "def update_many(self, batch):\n"
            "    hist = Histogram(edges=EDGES)\n"
            "    seen = set()\n"
            "    for absolute, ratio, *_ in batch.comparable:\n"
            "        self._study.spin_received.add(absolute, ratio)\n"
            "        seen.add(absolute)\n"
            "        raw.add(absolute, ratio)  # wallclock-ok jsonl-ok\n"
            "    kept = [hist.add(value) for value in batch.successes]\n"
            "    while kept:\n"
            "        self.hist.add(kept.pop())\n"
            "    raw.add_many([1.0], [1.0])\n"
            "    hist.add(0.0)\n"
            "def update(self, batch):\n"
            "    for ratio in batch.successes:\n"
            "        self._study.raw.add(ratio, ratio)\n"
            "def helper(batch):\n"
            "    for ratio in batch.successes:\n"
            "        raw.add(ratio, ratio)\n"
        )
        for layer, name in (
            ("analysis", "hot.py"), ("service", "summary.py"), ("service", "api.py"),
            ("web", "hot.py"),
        ):
            directory = tmp_path / "repro" / layer
            directory.mkdir(parents=True, exist_ok=True)
            (directory / name).write_text(source, encoding="utf-8")
        result = subprocess.run(
            [sys.executable, str(TestDeterminismLint.LINT), str(tmp_path)],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 1
        for path in ("analysis/hot.py", "service/summary.py"):
            for line in range(1, 22):
                assert (f"{path}:{line}:" in result.stderr) == (
                    line in (8, 10, 11, 13, 18)
                ), (path, line, result.stderr)
        # Only the fold bodies' own layer is held to it.
        assert "service/api.py" not in result.stderr
        assert "web/hot.py" not in result.stderr


class TestOnePopulationUniverse:
    """AST gate (same lint): outside ``internet/population.py`` a
    population is read by range and drawn by no second rule."""

    #: ``CampaignDaemon._scan_fingerprint`` as it read before the daemon
    #: went through ``iter_targets``; line 11 holds the whole list.
    PARENT_DAEMON = (
        "class CampaignDaemon:\n"
        "    def _scan_fingerprint(self, week: CalendarWeek) -> dict:\n"
        '        """The scan identity, as the checkpoint layer derives it."""\n'
        "        from repro.faults.checkpoint import scan_fingerprint\n"
        "\n"
        "        return scan_fingerprint(\n"
        "            self.config.seed,\n"
        "            week.label,\n"
        "            self.config.ip_version,\n"
        "            0,\n"
        "            self.population.domains,\n"
        "            repr(self.scanner.config),\n"
        "        )\n"
    )
    OTHER = (
        "def draw(population, scanner, batch, summary, seed, index):\n"
        "    rng = derive_rng(seed, 'stream-domain', index)\n"
        "    rng = derive_rng(seed, 'population-block', index)\n"
        "    rng = derive_rng(seed, 'stack-draw', index)\n"
        "    total = population.domain_count + len(scanner.population.domains)\n"
        "    names = batch.domains + list(summary.domains)\n"
        "    return list(population.iter_targets()), population.domains\n"
    )

    def test_the_parents_daemon_and_a_second_draw_are_caught(self, tmp_path):
        files = {
            "service/daemon.py": self.PARENT_DAEMON,
            "web/hot.py": self.OTHER,
            "internet/population.py": self.OTHER,
        }
        for name, source in files.items():
            path = tmp_path / "repro" / name
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(source, encoding="utf-8")
        result = subprocess.run(
            [sys.executable, str(TestDeterminismLint.LINT), str(tmp_path)],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 1
        flagged = {
            line.split(": ", 1)[0].split("repro/", 1)[1]
            for line in result.stderr.splitlines()
            if "repro/" in line
        }
        # Line 6 is the daemon's own scan identity (``one_scan_identity``).
        assert flagged == {
            "service/daemon.py:6", "service/daemon.py:11", "web/hot.py:2",
            "web/hot.py:3", "web/hot.py:5", "web/hot.py:7",
        }, result.stderr


class TestOneFlagDefinition:
    """AST gate (same lint): the per-scan domain flag bits are assigned
    in ``analysis/compliance.py`` alone."""

    #: The week summary as it read when it defined the bits itself.
    PARENT_SUMMARY = (
        "from repro._util.stats import add_counts\n"
        "\n"
        "#: Domain flag bits.\n"
        "FLAG_SUCCESS = 1\n"
        "FLAG_SPIN = 2\n"
    )
    OTHER = (
        "from repro.analysis.compliance import FLAG_SPIN, FLAG_SUCCESS\n"
        "FLAG_SPIN: int = 4\n"
        "SPUN = FLAG_SUCCESS | FLAG_SPIN\n"
        "FLAG_SUCCESS, OTHER = 1, 2\n"
        "FLAG_SPIN |= 8\n"
        "flags = {FLAG_SUCCESS: 'success'}\n"
    )

    def test_the_parents_summary_and_other_assignments_are_caught(self, tmp_path):
        files = {
            "service/summary.py": self.PARENT_SUMMARY,
            "web/hot.py": self.OTHER,
            "telemetry/hot.py": self.OTHER,
            "analysis/compliance.py": self.OTHER,
        }
        for name, source in files.items():
            path = tmp_path / "repro" / name
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(source, encoding="utf-8")
        result = subprocess.run(
            [sys.executable, str(TestDeterminismLint.LINT), str(tmp_path)],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 1
        flagged = {
            line.split(": ", 1)[0].split("repro/", 1)[1]
            for line in result.stderr.splitlines()
            if "repro/" in line
        }
        assert flagged == {
            "service/summary.py:4", "service/summary.py:5",
            "web/hot.py:2", "web/hot.py:4", "web/hot.py:5",
            "telemetry/hot.py:2", "telemetry/hot.py:4", "telemetry/hot.py:5",
        }, result.stderr

    def test_behaviour_bits_defined_beside_the_tables_are_caught(self, tmp_path):
        """The adoption tables spelling their own behaviour bits."""
        path = tmp_path / "repro" / "analysis" / "adoption.py"
        path.parent.mkdir(parents=True)
        path.write_text(
            "from repro.analysis.compliance import FLAG_SUCCESS\n"
            "FLAG_SEEN_SPIN = 16\n"
            "FLAG_SEEN_ALL_ZERO: int = 4\n"
            "FLAG_SEEN_ALL_ONE, FLAG_SEEN_GREASE = 8, 32\n"
            "QUIC_SPIN = FLAG_SUCCESS | FLAG_SEEN_SPIN\n",
            encoding="utf-8",
        )
        result = subprocess.run(
            [sys.executable, str(TestDeterminismLint.LINT), str(tmp_path)],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 1
        flagged = {
            line.split(": ", 1)[0].split("repro/", 1)[1]
            for line in result.stderr.splitlines()
            if "repro/" in line
        }
        assert flagged == {
            "analysis/adoption.py:2", "analysis/adoption.py:3", "analysis/adoption.py:4",
        }, result.stderr


class TestOneTapOneThread:
    """AST gate (same lint): only ``netsim/path.py`` sets a path's
    receiver, and the scan path (``web/``, ``faults/``) starts no thread."""

    #: The parent's on-path tap, which grafted itself onto the receivers.
    PARENT_TAP = (
        "def tap_paths(simulator, uplink, downlink, observer):\n"
        "    original_up = uplink._receiver\n"
        "    uplink._receiver = lambda data: original_up(data)\n"
        "    downlink._receiver: object = None\n"
        "    setattr(downlink, '_receiver', print)\n"
        "    uplink.receiver = print\n"
    )
    #: The parent's checkpoint writer's imports, and other spellings.
    PARENT_WRITER = (
        "import queue\n"
        "import threading\n"
        "from threading import Thread\n"
        "import queue as jobs, os\n"
        "from concurrent.futures import wait\n"
        "from .queue import Local\n"
    )

    def _flagged(self, tmp_path, files):
        for name, source in files.items():
            path = tmp_path / "repro" / name
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(source, encoding="utf-8")
        result = subprocess.run(
            [sys.executable, str(TestDeterminismLint.LINT), str(tmp_path)],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 1
        return {
            line.split(": ", 1)[0].split("repro/", 1)[1]
            for line in result.stderr.splitlines()
            if "repro/" in line
        }

    def test_a_receiver_graft_outside_the_path_is_caught(self, tmp_path):
        flagged = self._flagged(
            tmp_path,
            {
                "core/wire_observer.py": self.PARENT_TAP,
                "telemetry/hot.py": self.PARENT_TAP,
                "netsim/path.py": self.PARENT_TAP,
            },
        )
        assert flagged == {
            f"{name}:{line}"
            for name in ("core/wire_observer.py", "telemetry/hot.py")
            for line in (3, 4, 5)
        }

    def test_a_thread_on_the_scan_path_is_caught(self, tmp_path):
        flagged = self._flagged(
            tmp_path,
            {
                "faults/shardwriter.py": self.PARENT_WRITER,
                "web/hot.py": self.PARENT_WRITER,
                "service/api.py": self.PARENT_WRITER,
            },
        )
        assert flagged == {
            f"{name}:{line}"
            for name in ("faults/shardwriter.py", "web/hot.py")
            for line in (1, 2, 3, 4)
        }


class TestCompactJson:
    """AST gate (same lint): under ``service/`` and ``artifacts/`` no JSON
    is encoded with ``indent=`` — it takes the pure-Python encoder, and
    these layers encode on every fold."""

    #: ``WeekSummary.to_json`` as it read while week files were indented.
    PARENT_SUMMARY = (
        "import json\n"
        "def to_json(self):\n"
        "    data = {'schema': 1, 'week': self.week, **self.state()}\n"
        "    return json.dumps(data, sort_keys=True, indent=1) + '\\n'\n"
    )
    OTHER = (
        "import json\n"
        "def write(data, stream):\n"
        "    json.dump(data, stream, indent=None)\n"
        "    stream.write(json.dumps(data, sort_keys=True))\n"
        "    text = json.dumps(\n"
        "        data,\n"
        "        indent=2,  # wallclock-ok jsonl-ok robustness-ok\n"
        "    )\n"
        "    return dumps(data, indent=1), self.json.dumps(data, indent=1)\n"
    )

    def test_the_parents_week_encoder_and_other_indents_are_caught(self, tmp_path):
        files = {
            "service/summary.py": self.PARENT_SUMMARY,
            "service/other.py": self.OTHER,
            "artifacts/other.py": self.OTHER,
            "telemetry/runtime.py": self.OTHER,
            "analysis/other.py": self.OTHER,
        }
        for name, source in files.items():
            path = tmp_path / "repro" / name
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(source, encoding="utf-8")
        result = subprocess.run(
            [sys.executable, str(TestDeterminismLint.LINT), str(tmp_path)],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 1
        flagged = {
            line.split(": ", 1)[0].split("repro/", 1)[1]
            for line in result.stderr.splitlines()
            if "repro/" in line
        }
        # ``indent=None`` is an indent keyword too; a bare ``dumps`` and
        # an attribute that is not the module are not the json module.
        assert flagged == {
            "service/summary.py:4",
            "service/other.py:3", "service/other.py:5",
            "artifacts/other.py:3", "artifacts/other.py:5",
        }, result.stderr


class TestTwoWriteShapes:
    """AST gate (same lint): under ``faults/``, ``service/`` and
    ``artifacts/`` durable state is written by ``replace_file`` or
    ``append_line`` only, so each write has one crash rule."""

    #: The fold ledger rewritten whole by hand, through a scratch file.
    LEDGER_REWRITE = (
        "import json, os\n"
        "def _write_ledger(self, ledger):\n"
        "    tmp = self.directory / 'ledger.json.tmp'\n"
        "    tmp.write_text(json.dumps({'artifacts': sorted(ledger)}))\n"
        "    os.replace(tmp, self.directory / 'ledger.json')\n"
    )
    #: Other writes beside the two shapes, and innocent neighbours.
    OTHER = (
        "def write(self, path, mode, payload):\n"
        "    with open(path, 'a+b') as stream: stream.write(payload)\n"
        "    open(path, mode=\"w\", encoding='utf-8').close()\n"
        "    path.open('r+b').close(); path.write_bytes(payload)\n"
        "    open(path, 'xb').close(); open(path, mode).close()\n"
        "    os.rename(path, path.with_suffix('.old'))  # jsonl-ok robustness-ok\n"
        "    with open(path, 'rb') as stream, path.open() as again: pass\n"
        "    replace_file(path, payload); append_line(path, payload)\n"
        "    self._open(); open(path).close(); label.replace('a', 'b')\n"
        "    stream.write(payload)\n"
    )

    def test_a_scratch_ledger_rewrite_and_other_writes_are_caught(self, tmp_path):
        files = {
            "service/indexer.py": self.LEDGER_REWRITE,
            "faults/other.py": self.OTHER,
            "artifacts/other.py": self.OTHER,
            "web/other.py": self.LEDGER_REWRITE + self.OTHER,
            "_util/files.py": self.LEDGER_REWRITE + self.OTHER,
        }
        for name, source in files.items():
            path = tmp_path / "repro" / name
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(source, encoding="utf-8")
        result = subprocess.run(
            [sys.executable, str(TestDeterminismLint.LINT), str(tmp_path)],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 1
        flagged = {
            line.split(": ", 1)[0].split("repro/", 1)[1]
            for line in result.stderr.splitlines()
            if "repro/" in line
        }
        # Reads, the two shapes, a method called _open, str.replace and a
        # caller's stream are not a durable write; the rule holds under
        # faults/, service/ and artifacts/ only.
        assert flagged == {
            "service/indexer.py:4", "service/indexer.py:5",
            *(f"{layer}/other.py:{line}" for layer in ("faults", "artifacts")
              for line in range(2, 7)),
        }, result.stderr


class TestOneTimer:
    """AST gate (same lint): ``quic/connection.py`` schedules no event per
    probe or delayed-ACK deadline — the deadlines are fields behind the
    endpoint's one wake-up."""

    #: The endpoint's timers as they read while each deadline was an event.
    PARENT_TIMERS = (
        "from functools import partial\n"
        "def _arm_pto(self, space, pn, retries=0):\n"
        "    self.simulator.schedule(\n"
        "        interval * (2**retries), partial(self._pto_fired, space, pn, retries)\n"
        "    )\n"
        "def _receive(self, state, now):\n"
        "    self.simulator.schedule_at(\n"
        "        now + self.config.max_ack_delay_ms,\n"
        "        partial(self._delayed_ack_fired, state.ack_timer_generation),\n"
        "    )\n"
    )
    OTHER = (
        "def arm(self, key, pn):\n"
        "    self.simulator.schedule(1.0, lambda: self._pto_fired(0, pn, 0))\n"
        "    self.simulator.schedule_at(2.0, callback=self._delayed_ack_fired)\n"
        "    self.simulator.schedule_at(key[0], self._wake, key[1])\n"
        "    self.simulator.schedule(0.0, self._flush_stream_queue)\n"
        "    self._pto_fired(0, pn, 0)  # wallclock-ok jsonl-ok robustness-ok\n"
    )

    def test_per_packet_timer_events_are_caught(self, tmp_path):
        files = {
            "quic/connection.py": self.PARENT_TIMERS + self.OTHER,
            "quic/other.py": self.PARENT_TIMERS,
            "web/http3.py": self.OTHER,
        }
        for name, source in files.items():
            path = tmp_path / "repro" / name
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(source, encoding="utf-8")
        result = subprocess.run(
            [sys.executable, str(TestDeterminismLint.LINT), str(tmp_path)],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 1
        flagged = {
            line.split(": ", 1)[0].split("repro/", 1)[1]
            for line in result.stderr.splitlines()
            if "repro/" in line
        }
        # The wake-up, another callback and a direct call of the handler
        # are not timer events; the rule holds in the endpoint's file only.
        assert flagged == {
            "quic/connection.py:3", "quic/connection.py:7",
            "quic/connection.py:12", "quic/connection.py:13",
        }, result.stderr


class TestNoCollector:
    """AST gate (same lint): nothing under ``src/repro/`` imports ``gc`` —
    a finished connection is freed by reference count, not by a
    collection."""

    SOURCE = (
        "import gc\n"
        "from gc import collect\n"
        "import os, gc as collector\n"
        "import gcp\n"
        "from . import gc\n"
        "def free(self):\n"
        "    self.gc.collect()  # wallclock-ok jsonl-ok robustness-ok\n"
        "    return 'import gc'\n"
    )

    def test_an_import_of_the_collector_is_caught(self, tmp_path):
        files = ("monitor/traffic.py", "telemetry/runtime.py", "cli.py", "quic/rtt.py")
        for name in files:
            path = tmp_path / "repro" / name
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(self.SOURCE, encoding="utf-8")
        result = subprocess.run(
            [sys.executable, str(TestDeterminismLint.LINT), str(tmp_path)],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 1
        flagged = {
            line.split(": ", 1)[0].split("repro/", 1)[1]
            for line in result.stderr.splitlines()
            if "repro/" in line
        }
        # Another module, a relative import, an attribute and a string
        # are not the collector; the rule holds in every layer.
        assert flagged == {f"{name}:{line}" for name in files for line in (1, 2, 3)}, (
            result.stderr
        )


class TestOneScanIdentity:
    """AST gate (same lint): a scan's identity is derived in
    ``web/scanner.py`` alone (``Scanner.fingerprint``) — the checkpoint
    store and the daemon's manifest key read that one derivation."""

    #: ``CampaignDaemon._scan_fingerprint`` as it read beside the scanner's.
    PARENT_DAEMON = (
        "class CampaignDaemon:\n"
        "    def _scan_fingerprint(self, week):\n"
        "        from repro.faults.checkpoint import scan_fingerprint\n"
        "\n"
        "        return scan_fingerprint(\n"
        "            self.config.seed, week.label, self.config.ip_version, 0,\n"
        "            self.population, repr(self.scanner.config),\n"
        "        )\n"
    )
    OTHER = (
        "from repro import faults\n"
        "from repro.faults import scan_fingerprint\n"
        "identity = faults.scan_fingerprint(1, 'cw20-2023', 4, 0, [], 'cfg')\n"
        "derive = scan_fingerprint\n"
        "def scan_fingerprint(*args):  # wallclock-ok jsonl-ok robustness-ok\n"
        "    return scanner.fingerprint('cw20-2023', 4)\n"
    )

    def test_a_second_derivation_is_caught(self, tmp_path):
        files = {
            "service/daemon.py": self.PARENT_DAEMON,
            "telemetry/runtime.py": self.OTHER,
            "faults/checkpoint.py": self.OTHER,
            "web/scanner.py": self.PARENT_DAEMON + self.OTHER,
        }
        for name, source in files.items():
            path = tmp_path / "repro" / name
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(source, encoding="utf-8")
        result = subprocess.run(
            [sys.executable, str(TestDeterminismLint.LINT), str(tmp_path)],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 1
        flagged = {
            line.split(": ", 1)[0].split("repro/", 1)[1]
            for line in result.stderr.splitlines()
            if "repro/" in line
        }
        # An import, a reference, the definition and a call of the
        # scanner's method are not derivations; the scanner's file may
        # call it.
        assert flagged == {
            "service/daemon.py:5", "telemetry/runtime.py:3", "faults/checkpoint.py:3",
        }, result.stderr


class TestOneContainer:
    """AST gate (same lint): a cbr file's framing is read and written by
    the container's own functions, each construct in its one home."""

    def test_framing_outside_its_home_is_caught(self, tmp_path):
        homes = (
            "def _read_head(stream):",
            "    if stream.read(4) != CBR_MAGIC: raise CbrFormatError()",
            "def _read_frame(stream):",
            "    size, *rest = _FRAME_HEADERS[1].unpack(stream.read(13))",
            "    return zlib.crc32(stream.read(size)) == rest[0]",
            "def read_footer(stream):",
            "    offset, magic = _TRAILER.unpack(stream.read(_TRAILER.size))",
            "    return magic == _END_MAGIC",
            "def _write_footer(write, offset, footer):",
            "    write(_FOOTER_HEADER.pack(0) + _TRAILER.pack(offset, _END_MAGIC))",
            "class _FrameWriter:",
            "    def chunk(self, payload):",
            "        return _CHUNK_HEADER.pack(len(payload), zlib.crc32(payload), 0, 0)",
            "    def close(self):",
            "        footer = {'schema': 2, 'chunks': self.chunks}",
            "        return _INDEX_HEADER.pack(0, crc32(b'')), footer",
            "def _open_chunk(payload):",
            "    return _decode_columns(payload)",
            "class CbrReader:",
            "    def _damaged(self, error): raise error",
            "    def domain_batches(self):",
            "        return _decode_columns(b''), _CHUNK_HEADER.size, len(CBR_MAGIC)",
        )
        offenders = (
            "def sniff(head):",
            "    return head[:4] == cbr.CBR_MAGIC or head[-4:] != _END_MAGIC",  # 24
            "def copy_source(source):",
            "    n, crc = _INDEX_HEADER.unpack(source.read(8))",  # 26
            "    header = _FRAME_HEADERS.get(1)",  # 27
            "    return cbr._CHUNK_HEADER.unpack_from(source.read(14), 1)",  # 28
            "class CbrIndexedReader:",
            "    def _damaged(self, message): pass",  # 30: artifacts/
            "    def read_chunks(self, payload, crc):",
            "        if zlib.crc32(payload) != crc: return",  # 32: artifacts/
            "        return _decode_columns(payload)",  # 33: artifacts/
            "    def close(self):",
            "        _TRAILER.pack(0, b'CBRE')  # wallclock-ok robustness-ok jsonl-ok",  # 35
            "        return {'chunks': [], 'records': 0}",  # 36: artifacts/
        )
        source = "\n".join(homes + offenders) + "\n"
        for layer in ("artifacts", "web", "telemetry"):
            directory = tmp_path / "repro" / layer
            directory.mkdir(parents=True)
            (directory / "cbr.py").write_text(source, encoding="utf-8")
        result = subprocess.run(
            [sys.executable, str(TestDeterminismLint.LINT), str(tmp_path)],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 1
        everywhere = {24, 26, 27, 28, 35}
        for layer, flagged in (
            ("artifacts", everywhere | {30, 32, 33, 36}),
            ("web", everywhere),
            ("telemetry", everywhere),
        ):
            for line in range(1, len(homes + offenders) + 1):
                assert (f"{layer}/cbr.py:{line}:" in result.stderr) == (line in flagged), (
                    layer, line, result.stderr
                )


class TestOneArtifactFormat:
    """AST gate (same lint): cbr is the one artifact format read under
    ``src/repro/``; JSONL is written (``record_to_dict`` /
    ``export_records``) and read back only by the tests' oracle."""

    #: The front door as it read while it sniffed the magic and handed
    #: JSONL to a record reader (abridged; line numbers are this text's).
    PARENT_FRONT_DOOR = (
        "from repro.analysis.artifacts import (",
        "    ArtifactFormatError,",
        "    export_records,",
        "    read_records,",
        ")",
        "from repro.artifacts.cbr import CBR_MAGIC, CbrReader",
        "",
        "def detect_format(head: bytes) -> str:",  # 8
        '    """Classify a stream from its first bytes (cbr magic vs. text)."""',
        "    return FORMAT_CBR if head[: len(CBR_MAGIC)] == CBR_MAGIC else FORMAT_JSONL",  # 10
        "",
        "class _JsonlReader:",
        "    def record_batches(self):",
        "        try:",
        "            for record in read_records(map(bytes.decode, self._stream)):",  # 15
        "                yield record",
        "        except ValueError:  # ArtifactFormatError, UnicodeDecodeError",
        "            self.corrupt_chunks += 1",
        "",
        "def _open_sniffed(stream):",
        "    return stream, detect_format(stream.peek(len(CBR_MAGIC)))",  # 21
    )

    def test_the_parents_front_door_and_the_oracle_are_caught(self, tmp_path):
        oracle = (REPO_ROOT / "tests" / "jsonl_reader.py").read_text(encoding="utf-8")
        export = (REPO_ROOT / "src" / "repro" / "analysis" / "artifacts.py").read_text(
            encoding="utf-8"
        )
        files = {
            "artifacts/__init__.py": "\n".join(self.PARENT_FRONT_DOOR) + "\n",
            "telemetry/reader.py": oracle,
            "analysis/artifacts.py": export,
        }
        for name, source in files.items():
            path = tmp_path / "repro" / name
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(source, encoding="utf-8")
        result = subprocess.run(
            [sys.executable, str(TestDeterminismLint.LINT), str(tmp_path)],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 1
        flagged = [
            line.split(": ", 1)[0].split("repro/", 1)[1]
            for line in result.stderr.splitlines()
            if "repro/" in line
        ]
        door = [n for n in flagged if n.startswith("artifacts/")]
        assert door == [f"artifacts/__init__.py:{n}" for n in (1, 8, 10, 15, 21)], result.stderr
        # The oracle is caught wherever it lands under src/ (its class,
        # defs and every call), and the export alone is clean.
        oracle_lines = oracle.splitlines()
        defined = {
            number for number, text in enumerate(oracle_lines, start=1)
            if text.startswith(("class ArtifactFormatError", "def record_from_dict",
                                "def read_records", "def load_records"))
        }
        caught = {int(n.rsplit(":", 1)[1]) for n in flagged if n.startswith("telemetry/")}
        assert len(defined) == 4 and defined <= caught, result.stderr
        assert not any(n.startswith("analysis/") for n in flagged), result.stderr


class TestOneTraceModel:
    """AST gate (same lint): outside ``repro.telemetry`` rows enter the
    trace through ``span`` / ``event`` / ``count`` / ``absorb`` only."""

    def test_hand_built_rows_outside_telemetry_are_caught(self, tmp_path):
        source = (
            "from repro.telemetry import TraceRecord\n"
            "def f(telemetry, rows):\n"
            "    row = TraceRecord(('x',), 0.0, 0.0, {})\n"
            "    telemetry.tracer.records.append(row)\n"
            "    telemetry.tracer.diag_records += rows\n"
            "    telemetry.tracer.records[0] = row\n"
            "    telemetry.tracer.event('x')\n"
            "    return len(telemetry.tracer.records)\n"
        )
        for layer, name in (("service", "api.py"), ("telemetry", "trace.py")):
            directory = tmp_path / "repro" / layer
            directory.mkdir(parents=True)
            (directory / name).write_text(source, encoding="utf-8")
        result = subprocess.run(
            [sys.executable, str(TestDeterminismLint.LINT), str(tmp_path)],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 1
        for line in (3, 4, 5, 6):
            assert f"api.py:{line}:" in result.stderr
        for line in (1, 7, 8):
            assert f"api.py:{line}:" not in result.stderr
        # The model's own package is where rows are built.
        assert "trace.py" not in result.stderr

    def test_the_trace_writer_is_a_linted_jsonl_loop(self, tmp_path):
        """``telemetry`` is a JSON-in-loop layer; its one writer opts out."""
        export = REPO_ROOT / "src" / "repro" / "telemetry" / "export.py"
        text = export.read_text(encoding="utf-8")
        assert text.count("# jsonl-ok") == 1
        directory = tmp_path / "repro" / "telemetry"
        directory.mkdir(parents=True)
        (directory / "export.py").write_text(
            text.replace("# jsonl-ok", "#"), encoding="utf-8"
        )
        result = subprocess.run(
            [sys.executable, str(TestDeterminismLint.LINT), str(tmp_path)],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 1
        assert result.stderr.count("export.py:") == 1
