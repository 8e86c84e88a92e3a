"""The one operator read-out, ``repro status``, against pins of the three.

The pins under ``cli_pins/readout/`` were recorded at 7ef6c78, where
three commands read telemetry back: ``repro status`` (from ``--dir`` or
``--url``), ``repro telemetry summarize`` and ``repro top``.  Now
``repro status`` prints the health lines, then the digest that
``telemetry summarize`` printed, of one snapshot from a URL or a
directory; nothing the other two showed is lost.

The inputs are one service directory, built as
``tests/test_obs.py::TestObsCli.service_dir`` builds its own, and one
``repro scan --telemetry-out`` directory.  The service's one wall-clock
gauge (``service.scan_domains_per_s``) is set to a fixed value before the
directory is saved, so every pinned byte is a function of the seeds.
Against a live server, lines that carry an API request's wall-clock
latency are left out, and so is the overall verdict, which those
latencies can move.  Regenerate a pin only from a commit whose output is
known good, never from the change under test.
"""

from __future__ import annotations

import io
import json
import os
import threading
import urllib.request
from contextlib import redirect_stdout
from pathlib import Path

import pytest
from test_obs import CONFIG

from repro.cli import main
from repro.service import (
    CampaignDaemon,
    ServiceState,
    SpoolStore,
    WeekIndexer,
    build_server,
)
from repro.telemetry import Telemetry

PINS = Path(__file__).resolve().parent / "cli_pins" / "readout"

#: The fixed value of the one wall-clock gauge.
SCAN_RATE = 1000.0

#: An objective on a directory gauge, as in ``test_status_custom_slo_gate_fails``.
SLO = [
    {
        "name": "impossible",
        "kind": "max_value",
        "metric": "service.artifacts_spooled",
        "objective": 0,
    }
]

#: ``repro top``'s campaign line: label → the gauge that now carries it.
TOP_GAUGES = {
    "weeks indexed": "service.weeks_indexed",
    "artifacts": "service.artifacts_spooled",
    "pending weeks": "service.pending_weeks",
    "spool backlog": "service.spool_backlog",
}


def run(*argv) -> str:
    out = io.StringIO()
    with redirect_stdout(out):
        main([str(arg) for arg in argv])
    return out.getvalue()


def pin(name: str) -> str:
    return (PINS / name).read_text(encoding="utf-8")


def steady_lines(text: str) -> str:
    """``text`` without the lines an API request's wall clock moves."""
    return "".join(
        line
        for line in text.splitlines(keepends=True)
        if "api.request_ms" not in line
        and not line.startswith(("health:", "api latency:"))
    )


def split(text: str) -> tuple[str, str]:
    """``repro status`` text as ``(health lines, digest)``."""
    lines = text.splitlines(keepends=True)
    cut = next(
        number
        for number, line in enumerate(lines)
        if not line.startswith(("health:", "  ["))
    )
    return "".join(lines[:cut]), "".join(lines[cut:])


def with_directory_gauge(digest: str) -> str:
    """The digest of the service's saved telemetry plus the one directory
    gauge its registry lacks, in series-id order."""
    line = f"  {'service.artifacts_spooled':44s} 2\n"
    return digest.replace("  service.pending_weeks", line + "  service.pending_weeks", 1)


def tree(directory: Path) -> dict[str, bytes | None]:
    """Every path under ``directory``, with a file's bytes."""
    return {
        os.path.relpath(os.path.join(root, name), directory): (
            Path(root, name).read_bytes() if name in files else None
        )
        for root, dirs, files in os.walk(directory)
        for name in dirs + files
    }


@pytest.fixture(scope="module")
def service(tmp_path_factory):
    """A service directory with its telemetry saved, and a live server
    over the same directory and bundle."""
    directory = tmp_path_factory.mktemp("svc-pins")
    telemetry = Telemetry()
    CampaignDaemon(directory, CONFIG, telemetry=telemetry).run_once()
    telemetry.registry.gauge("service.scan_domains_per_s").set(SCAN_RATE)
    telemetry.save(directory / "telemetry")
    state = ServiceState(
        SpoolStore(directory / "spool"), WeekIndexer(directory / "index"), telemetry
    )
    server = build_server(state)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield directory, f"http://127.0.0.1:{server.server_address[1]}"
    server.shutdown()
    server.server_close()


@pytest.fixture(scope="module")
def scan_telemetry(tmp_path_factory):
    directory = tmp_path_factory.mktemp("scan-pins")
    run(
        "scan", "--czds", 60, "--toplist", 20, "--seed", 5,
        "--out", directory / "ds.cbr", "--telemetry-out", directory / "tele",
    )
    return directory / "tele"


@pytest.fixture(scope="module")
def slo_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("slo-pins") / "slo.json"
    path.write_text(json.dumps(SLO), encoding="utf-8")
    return path


class TestStatusDir:
    def test_text_is_the_pinned_health_then_the_digest(self, service):
        directory, _ = service
        assert run("status", "--dir", directory) == pin("status_dir.txt") + (
            with_directory_gauge(pin("summarize_service.txt"))
        )

    def test_json(self, service):
        directory, _ = service
        assert run("status", "--dir", directory, "--json") == pin("status_dir.json")

    def test_slo(self, service, slo_file):
        directory, _ = service
        assert run("status", "--dir", directory, "--slo", slo_file) == pin(
            "status_dir_slo.txt"
        ) + with_directory_gauge(pin("summarize_service.txt"))

    @pytest.mark.parametrize("layout", ["empty", "service", "telemetry", "spool only"])
    def test_a_read_writes_nothing(self, service, scan_telemetry, tmp_path, layout):
        """The spool's and the index's constructors create their
        directories; a read must not."""
        directory = {
            "empty": tmp_path,
            "service": service[0],
            "telemetry": scan_telemetry,
            "spool only": tmp_path,
        }[layout]
        if layout == "spool only":
            (tmp_path / "spool").mkdir()
        before = tree(directory)
        run("status", "--dir", directory)
        assert tree(directory) == before


class TestDigest:
    """The digest of a telemetry directory is what ``repro telemetry
    summarize`` printed for it."""

    def test_service_telemetry(self, service):
        directory, _ = service
        _, digest = split(run("status", "--dir", directory / "telemetry"))
        assert digest == pin("summarize_service.txt")

    def test_scan_telemetry(self, scan_telemetry):
        _, digest = split(run("status", "--dir", scan_telemetry))
        assert digest == pin("summarize_scan.txt")


class TestLiveServer:
    def test_status_url_health_lines(self, service):
        _, base = service
        health, _ = split(run("status", "--url", base))
        assert steady_lines(health) == pin("status_url.txt")

    def test_every_value_top_showed_is_in_status_url(self, service):
        _, base = service
        lines = run("status", "--url", base).splitlines()
        stages = lines[lines.index("stage latency (simulated ms):") + 1 :]
        top = pin("top.txt").splitlines()
        assert top[0] == "repro service console"
        for item in top[1].removeprefix("campaign: ").split(" | "):
            label, value = item.split(": ")
            assert f"  {TOP_GAUGES[label]:44s} {value}" in lines
        assert top[2] == "per-stage latency (simulated ms):"
        for line in top[3:]:
            if line.startswith("  ["):
                assert line in lines
                continue
            name, *values = line.split()
            (shown,) = [row for row in stages if row.split()[0] == name]
            assert shown.split()[1:5] == values


class TestOneVerdict:
    """``/v1/metrics`` serves the snapshot ``/v1/status`` judges, the
    directory's gauges included, so a URL and the directory give one
    verdict."""

    def status_json(self, *argv) -> dict:
        return {row["name"]: row for row in json.loads(run("status", *argv, "--json"))["slos"]}

    def test_url_and_dir_measure_a_directory_gauge_alike(self, service, slo_file):
        directory, base = service
        by_url = self.status_json("--url", base, "--slo", slo_file)
        by_dir = self.status_json("--dir", directory, "--slo", slo_file)
        assert by_url["impossible"]["actual"] == by_dir["impossible"]["actual"] == 2.0

    def test_url_verdicts_are_the_servers(self, service):
        _, base = service
        by_url = self.status_json("--url", base)
        with urllib.request.urlopen(base + "/v1/status") as response:
            served = {row["name"]: row for row in json.loads(response.read())["slos"]}
        assert {name: row["verdict"] for name, row in by_url.items()} == {
            name: row["verdict"] for name, row in served.items()
        }
