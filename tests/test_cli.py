"""The command-line interface."""

import json
import shutil

import pytest

from repro.cli import main


class TestDemo:
    def test_demo_runs(self, capsys):
        assert main(["demo"]) == 0
        out = capsys.readouterr().out
        assert "spin samples" in out
        assert "mapped ratio" in out


class TestScanAnalyze:
    @pytest.fixture(scope="class")
    def dataset_path(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("cli") / "dataset.cbr"
        code = main(
            [
                "scan",
                "--czds", "600",
                "--toplist", "100",
                "--seed", "33",
                "--out", str(path),
            ]
        )
        assert code == 0
        return path

    def test_scan_writes_jsonl(self, dataset_path, tmp_path):
        """``scan`` writes cbr; ``convert`` exports it as Appendix B JSONL."""
        assert dataset_path.read_bytes()[:4] == b"CBR1"
        exported = tmp_path / "dataset.jsonl"
        assert main(["convert", str(dataset_path), str(exported)]) == 0
        lines = exported.read_text().strip().splitlines()
        assert len(lines) > 30
        record = json.loads(lines[0])
        assert record["schema"] == 1
        assert "stack_rtts_ms" in record

    def test_analyze_of_a_jsonl_file_counts_one_corrupt_chunk(
        self, dataset_path, tmp_path, capsys
    ):
        """JSONL is not read: handed to ``analyze`` it is a bad cbr head,
        counted like any other damage, and nothing raises."""
        exported = tmp_path / "dataset.jsonl"
        assert main(["convert", str(dataset_path), str(exported)]) == 0
        capsys.readouterr()
        assert main(["analyze", str(exported)]) == 0
        captured = capsys.readouterr()
        assert "0 connection records loaded" in captured.err
        assert "1 corrupt chunks skipped" in captured.err

    def test_analyze_all_sections(self, dataset_path, capsys):
        assert main(["analyze", str(dataset_path)]) == 0
        out = capsys.readouterr().out
        assert "AS organizations" in out
        assert "webserver attribution" in out
        assert "RTT accuracy" in out
        assert "negotiated QUIC versions" in out
        assert "filter study" in out
        assert "Cloudflare" in out

    def test_analyze_diagnostics_go_to_stderr(self, dataset_path, capsys):
        """stdout carries only analysis output; progress lines go to
        stderr so ``repro analyze ... > report.txt`` stays clean."""
        assert main(["analyze", str(dataset_path)]) == 0
        captured = capsys.readouterr()
        assert "connection records loaded" in captured.err
        assert "connection records loaded" not in captured.out

    def test_analyze_single_section(self, dataset_path, capsys):
        assert main(["analyze", str(dataset_path), "--section", "versions"]) == 0
        out = capsys.readouterr().out
        assert "QUIC v1" in out
        assert "AS organizations" not in out

    def test_scan_deterministic(self, dataset_path, tmp_path):
        again = tmp_path / "again.cbr"
        main(
            [
                "scan",
                "--czds", "600",
                "--toplist", "100",
                "--seed", "33",
                "--out", str(again),
            ]
        )
        assert again.read_bytes() == dataset_path.read_bytes()


class TestTelemetryCommand:
    @pytest.fixture(scope="class")
    def telemetry_dir(self, tmp_path_factory):
        directory = tmp_path_factory.mktemp("cli-telemetry") / "tele"
        code = main(
            [
                "scan",
                "--czds", "400",
                "--toplist", "80",
                "--seed", "21",
                "--out", str(directory.parent / "dataset.cbr"),
                "--telemetry-out", str(directory),
            ]
        )
        assert code == 0
        return directory

    def test_scan_writes_telemetry_directory(self, telemetry_dir):
        for name in ("trace.jsonl", "diag.jsonl", "metrics.json", "metrics.prom"):
            assert (telemetry_dir / name).is_file(), name

    def test_trace_is_stepped_jsonl(self, telemetry_dir):
        lines = (telemetry_dir / "trace.jsonl").read_text().splitlines()
        events = [json.loads(line) for line in lines]
        assert events[-1]["name"] == "scan:cw20-2023"
        assert [event["step"] for event in events] == list(range(len(events)))

    def test_summarize_renders_counters(self, telemetry_dir, capsys):
        assert main(["status", "--dir", str(telemetry_dir)]) == 0
        out = capsys.readouterr().out
        assert "counters:" in out
        assert "scan.domains" in out
        assert "trace:" in out

    def test_summarize_missing_directory_fails(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["status", "--dir", str(tmp_path / "nope")])

    @pytest.mark.parametrize(
        "damage, skipped",
        [
            # A directory written before the trace merge: events, no path.
            (
                lambda lines: [
                    '{"attrs": {}, "name": "scan.begin", "step": 0, "ts_ms": 0.0}'
                ] * 3,
                3,
            ),
            # A crash cut the last line short.
            (lambda lines: lines[:-1] + [lines[-1][: len(lines[-1]) // 2]], 1),
            # Lines that are JSON but not rows, or not JSON at all.
            (lambda lines: lines + ["[1, 2]", "7", "not json", '{"path": 3}'], 4),
        ],
        ids=["pre-merge-directory", "truncated-last-line", "non-object-lines"],
    )
    def test_summarize_counts_and_skips_unreadable_trace_lines(
        self, telemetry_dir, tmp_path, capsys, damage, skipped
    ):
        """The directory is outside input: bad lines never raise."""
        damaged = tmp_path / "tele"
        shutil.copytree(telemetry_dir, damaged)
        trace = damaged / "trace.jsonl"
        written = damage(trace.read_text().splitlines())
        trace.write_text("\n".join(written))
        assert main(["status", "--dir", str(damaged)]) == 0
        captured = capsys.readouterr()
        assert f"skipped {skipped} unreadable line(s)" in captured.err
        rows = len(written) - skipped
        expected = f"trace: {rows} rows" if rows else "trace: (no rows)"
        assert expected in captured.out
        assert "counters:" in captured.out

    def test_monitor_telemetry_deterministic(self, tmp_path, capsys):
        for run in ("a", "b"):
            assert main(
                [
                    "monitor",
                    "--flows", "20",
                    "--seed", "13",
                    "--out", str(tmp_path / f"snapshots-{run}.jsonl"),
                    "--telemetry-out", str(tmp_path / run),
                ]
            ) == 0
        captured = capsys.readouterr()
        assert "telemetry written to" in captured.err
        assert "telemetry written to" not in captured.out
        for name in ("trace.jsonl", "metrics.prom", "metrics.json"):
            assert (tmp_path / "a" / name).read_bytes() == (
                tmp_path / "b" / name
            ).read_bytes(), name
        rows = [
            json.loads(line)
            for line in (tmp_path / "a" / "trace.jsonl").read_text().splitlines()
        ]
        assert len({row["span"] for row in rows}) == len(rows) > 1
        *windows, monitor = rows
        assert monitor["name"] == "monitor" and monitor["parent"] is None
        assert {row["parent"] for row in windows} == {monitor["span"]}


#: ``repro compliance --czds 400 --weeks 4 --seed 9`` stdout, recorded
#: before Fig. 2 became a fold over per-scan domain flags.
COMPLIANCE_GOLDEN = [
    "domains considered: 11 (spin-active, connected in all 4 weeks)",
    " weeks   observed   RFC9000   RFC9312",
    "     1       0.0 %     0.1 %     0.7 %  ",
    "     2      36.4 %     2.1 %     7.2 %  ################################",
    "     3      18.2 %    20.6 %    33.5 %  ################",
    "     4      45.5 %    77.2 %    58.6 %  ########################################",
]


class TestCompliance:
    def test_compliance_runs_small(self, capsys):
        """The stdout is pinned byte for byte."""
        assert main(["compliance", "--czds", "400", "--weeks", "4", "--seed", "9"]) == 0
        assert capsys.readouterr().out.splitlines() == COMPLIANCE_GOLDEN


class TestArgumentErrors:
    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    def test_missing_out_rejected(self):
        with pytest.raises(SystemExit):
            main(["scan"])

    @pytest.mark.parametrize("out", ["-", "dataset.jsonl"])
    def test_scan_out_that_is_not_cbr_is_refused(self, out, tmp_path, capsys):
        """cbr goes to a file; JSONL is the export ``repro convert`` writes.
        The refusal comes before any scanning, and writes nothing."""
        target = out if out == "-" else str(tmp_path / out)
        with pytest.raises(SystemExit) as excinfo:
            main(["scan", "--czds", "50", "--toplist", "10", "--out", target])
        message = str(excinfo.value)
        assert message.startswith("repro: error:")
        assert "repro convert" in message and "\n" not in message
        assert capsys.readouterr().err == ""
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "argv",
        [
            ["compliance", "--weeks", "1"],
            ["compliance", "--weeks", "59"],
            ["compliance", "--czds", "-5"],
            ["report", "--czds", "-5"],
            ["scan", "--czds", "-5", "--out", "OUT"],
            ["monitor", "--flows", "5", "--max-flows", "0", "--out", "-"],
            ["monitor", "--flows", "5", "--max-flows", "-1", "--out", "-"],
            ["monitor", "--flows", "5", "--idle-timeout-ms", "0", "--out", "-"],
            ["compliance", "--czds", "10", "--workers", "-2"],
            ["monitor", "--flows", "5", "--fault", "bogus:1", "--out", "-"],
            ["service", "serve", "--dir", "DIR", "--port", "99999"],
            ["service", "serve", "--dir", "DIR", "--interval-s", "-1"],
        ],
        ids=[
            "weeks-1", "weeks-59", "compliance-czds", "report-czds", "scan-czds",
            "monitor-max-flows-0", "monitor-max-flows-negative", "monitor-idle-timeout-0",
            "compliance-workers", "monitor-fault", "serve-port", "serve-interval",
        ],
    )
    def test_invalid_config_is_one_error_line(self, argv, tmp_path, capsys):
        """An invalid option value exits with one ``repro: error:`` line
        before any output or scanning, and before any file or directory
        is created, not with a traceback."""
        paths = {"OUT": str(tmp_path / "x.cbr"), "DIR": str(tmp_path / "svc")}
        argv = [paths.get(arg, arg) for arg in argv]
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        message = str(excinfo.value)
        assert message.startswith("repro: error:") and "\n" not in message
        assert capsys.readouterr() == ("", "")
        assert list(tmp_path.iterdir()) == []

    def test_service_config_errors_use_the_cli_convention(self, tmp_path):
        # Service-layer config errors must surface as the one-line
        # ``repro: error:`` convention, not a traceback.
        cases = [
            ["service", "run-once", "--dir", str(tmp_path / "a"),
             "--first-week", "week-zero"],
            ["service", "run-once", "--dir", str(tmp_path / "b"),
             "--czds", "0", "--toplist", "0"],
            ["service", "serve", "--dir", str(tmp_path / "c"), "--port", "99999"],
        ]
        for argv in cases:
            with pytest.raises(SystemExit) as excinfo:
                main(argv)
            assert str(excinfo.value).startswith("repro: error:"), argv


#: ``repro report --czds 700 --toplist 150 --seed 12 --skip-longitudinal``
#: stdout, recorded before Tables 1, 3 and 4 became one pass over
#: per-domain flags.
REPORT_GOLDEN = [
    "== Table 1: IPv4 adoption overview ==",
    "IPv4 overview for cw20-2023",
    "Group                  Total  Resolved  QUIC  Spin  ",
    "-----------  --------  -----  --------  ----  ------",
    "toplists     #Domains  150    111       35    20.0 %",
    "             #IPs             33        7     28.6 %",
    "czds         #Domains  700    601       68    5.9 % ",
    "             #IPs             129       8     37.5 %",
    "com/net/org  #Domains  592    507       54    5.6 % ",
    "             #IPs             126       8     37.5 %",
    "",
    "== Table 2: AS organizations (com/net/org) ==",
    "Rank  Total #  AS Organization      Spin #  Spin %   Spin Rank",
    "----  -------  -------------------  ------  -------  ---------",
    "1     25       Cloudflare           0       0.0 %    -        ",
    "2     21       Google               0       0.0 %    -        ",
    "3     4        other enterprise #2  0       0.0 %    -        ",
    "4     3        Hostinger            1       33.3 %   1        ",
    "5     2        Fastly               0       0.0 %    -        ",
    "6     1        OVH SAS              0       0.0 %    -        ",
    "7     1        Server Central       1       100.0 %  2        ",
    "8     1        other hosting #3     1       100.0 %  3        ",
    "      0        <other>              0       -                 ",
    "",
    "== Table 3: spin configuration ==",
    "Group        All Zero     All One     Spin  Grease     ",
    "-----------  -----------  ----------  ----  -----------",
    "toplists     28 (80.0 %)  0 (0.00 %)  7     0 (0.000 %)",
    "czds         64 (94.1 %)  0 (0.00 %)  4     0 (0.000 %)",
    "com/net/org  51 (94.4 %)  0 (0.00 %)  3     0 (0.000 %)",
    "",
    "== Table 4: IPv6 adoption overview ==",
    "IPv6 overview for cw20-2023",
    "Group                  Total  Resolved  QUIC  Spin  ",
    "-----------  --------  -----  --------  ----  ------",
    "toplists     #Domains  150    35        15    6.7 % ",
    "             #IPs             5         3     33.3 %",
    "czds         #Domains  700    70        29    6.9 % ",
    "             #IPs             23        6     16.7 %",
    "com/net/org  #Domains  592    62        22    4.5 % ",
    "             #IPs             22        5     20.0 %",
    "",
    "== Figures 3/4: RTT accuracy ==",
    "Spin (R): 32 connections",
    "  overestimating: 87.5 %",
    "  |abs| <= 25 ms: 37.5 %",
    "  abs > 200 ms:   31.2 %",
    "  within 25 %:    37.5 %",
    "  within 2x:      56.2 %",
    "  over 3x:        34.4 %",
    "  abs difference histogram (ms):",
    "          < -200    0.0 %  ",
    "    [-200, -100)    0.0 %  ",
    "     [-100, -50)    0.0 %  ",
    "      [-50, -25)    0.0 %  ",
    "        [-25, 0)   12.5 %  ################",
    "         [0, 25)   25.0 %  ################################",
    "        [25, 50)    3.1 %  ####",
    "       [50, 100)   15.6 %  ####################",
    "      [100, 200)   12.5 %  ################",
    "          >= 200   31.2 %  ########################################",
    "  mapped ratio histogram:",
    "            < -3    0.0 %  ",
    "        [-3, -2)    0.0 %  ",
    "     [-2, -1.25)    0.0 %  ",
    "   [-1.25, 1.25)   37.5 %  ########################################",
    "       [1.25, 2)   18.8 %  ####################",
    "          [2, 3)    9.4 %  ##########",
    "            >= 3   34.4 %  #####################################",
    "reordering: 3.12 % of connections change under packet-number sorting",
    "",
    "== Webserver attribution (spinning connections) ==",
    "  LiteSpeed                           8  61.5 %",
    "  Caddy                               5  38.5 %",
    "",
    "== Negotiated QUIC versions ==",
    "  QUIC v1           134 100.0 %",
]

class TestReport:
    def test_report_runs_small(self, capsys):
        """The stdout is pinned byte for byte."""
        assert main(
            [
                "report",
                "--czds", "700",
                "--toplist", "150",
                "--seed", "12",
                "--skip-longitudinal",
            ]
        ) == 0
        assert capsys.readouterr().out.splitlines() == REPORT_GOLDEN
