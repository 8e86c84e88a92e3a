"""Pins of the CLI's parsed surface.

``tests/cli_pins/namespaces.json`` records two things:

* ``namespaces``: ``vars(_build_parser().parse_args(argv))`` for each
  subcommand with only its required arguments, then with each of its
  flags set to a non-default value;
* ``errors``: the one ``repro: error:`` line each invalid value gives,
  run in an empty working directory that holds only the ``files`` (path
  → text) an entry lists.

A change to how the parser is built must leave both unchanged.  Below
them, static checks of the table the parser is built from (DESIGN.md
§16) and of the lint rule that keeps one config error path.
"""

from __future__ import annotations

import argparse
import ast
import dataclasses
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import _build_parser, main

PINS = json.loads(
    (Path(__file__).parent / "cli_pins" / "namespaces.json").read_text(encoding="utf-8")
)


def _canonical(namespace: dict) -> str:
    # json keeps 1 and 1.0 apart, so a default's type is pinned too.
    return json.dumps(namespace, sort_keys=True)


def _command_of(namespace: dict) -> str:
    command = namespace["command"]
    sub = namespace.get(f"{command}_command")
    return f"{command} {sub}" if sub else command


def _parser_flags() -> dict[str, set[str]]:
    """command (``"scan"``, ``"service serve"``) → its option strings."""
    flags: dict[str, set[str]] = {}

    def walk(parser: argparse.ArgumentParser, prefix: str) -> None:
        groups = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        for action in groups:
            for name, child in action.choices.items():
                walk(child, f"{prefix} {name}".strip())
        if not groups:
            flags[prefix] = {
                option for action in parser._actions for option in action.option_strings
            } - {"-h", "--help"}

    walk(_build_parser(), "")
    return flags


class TestPinnedSurface:
    def test_every_argv_parses_to_its_pinned_namespace(self):
        wrong = [
            entry["argv"]
            for entry in PINS["namespaces"]
            if _canonical(vars(_build_parser().parse_args(entry["argv"])))
            != _canonical(entry["namespace"])
        ]
        assert wrong == []

    def test_the_pins_set_every_flag_of_every_command(self):
        """Every flag the parser has is set in some pinned argv of its
        command, and no pinned argv sets a flag the parser lacks."""
        pinned: dict[str, set[str]] = {}
        for entry in PINS["namespaces"]:
            pinned.setdefault(_command_of(entry["namespace"]), set()).update(
                arg for arg in entry["argv"] if arg.startswith("--")
            )
        assert pinned == _parser_flags()

    def test_every_invalid_value_gives_its_pinned_error_line(self, tmp_path, monkeypatch):
        wrong = []
        for number, entry in enumerate(PINS["errors"]):
            workdir = tmp_path / str(number)
            workdir.mkdir()
            for name, text in entry.get("files", {}).items():
                (workdir / name).parent.mkdir(parents=True, exist_ok=True)
                (workdir / name).write_text(text, encoding="utf-8")
            monkeypatch.chdir(workdir)
            with pytest.raises(SystemExit) as excinfo:
                main(entry["argv"])
            if str(excinfo.value) != entry["error"]:
                wrong.append((entry["argv"], str(excinfo.value)))
        assert wrong == []


CLI = Path(__file__).resolve().parent.parent / "src" / "repro" / "cli.py"
LINT = Path(__file__).resolve().parent.parent / "scripts" / "check_determinism_lint.py"


class TestOneTable:
    """Static checks of the table the parser is built from."""

    @pytest.mark.parametrize(
        "flag",
        ["--seed", "--telemetry-out", "--workers", "--czds", "--toplist",
         "--ip-version", "--week", "--verbose"],
    )
    def test_a_shared_flag_is_declared_once(self, flag):
        """Declared = a key of a dict literal or the first argument of an
        ``add_argument`` call; rows name the flag, they do not declare it."""
        declarations = 0
        for node in ast.walk(ast.parse(CLI.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Dict):
                keys = node.keys
            elif isinstance(node, ast.Call) and getattr(node.func, "attr", "") == "add_argument":
                keys = node.args[:1]
            else:
                continue
            declarations += sum(
                isinstance(key, ast.Constant) and key.value == flag for key in keys
            )
        assert declarations == 1

    def test_a_flag_defaults_to_the_config_field_it_sets(self):
        """Unless its row holds a default of its own, a flag whose dest
        names a field of a config the row builds parses to that field's
        default, of the same type."""
        from repro.cli import _FIELD, _ROWS

        required_only = {}
        for entry in PINS["namespaces"]:
            required_only.setdefault(_command_of(entry["namespace"]), entry["argv"])
        checked = 0
        for row in _ROWS:
            if row.handler is None:
                continue
            namespace = vars(_build_parser().parse_args(required_only[row.name]))
            fields = {
                field.name: field.default
                for config in row.configs
                for field in dataclasses.fields(config)
            }
            for entry in row.flags:
                for name in entry if isinstance(entry, tuple) else (entry,):
                    dest = name.lstrip("-").replace("-", "_")
                    field = _FIELD.get(dest, dest)
                    if field in fields and dest not in row.defaults:
                        assert _canonical(namespace[dest]) == _canonical(fields[field]), (
                            row.name, name,
                        )
                        checked += 1
        assert checked >= 30

    def test_the_cli_catches_value_error_only_in_checked(self):
        spec = importlib.util.spec_from_file_location("determinism_lint", LINT)
        lint = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(lint)
        assert lint.one_config_error_path(CLI.read_text(encoding="utf-8")) == []

    def test_serve_is_an_unknown_command(self, tmp_path, capsys):
        """``repro service serve`` is the one spelling."""
        with pytest.raises(SystemExit) as excinfo:
            main(["serve", "--dir", str(tmp_path / "svc")])
        assert excinfo.value.code == 2
        assert "invalid choice: 'serve'" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []


class TestOneConfigErrorPath:
    """The lint rule that keeps ``_checked`` the CLI's one ValueError
    handler, run on a mutant tree."""

    #: One handler inside ``_checked`` and one inline, as the parent's
    #: ``_cmd_scan`` caught its config errors.
    CLI_SOURCE = (
        "def _checked(build):\n"
        "    try:\n"
        "        return build()\n"
        "    except ValueError as error:\n"
        "        raise SystemExit(error)\n"
        "\n"
        "def _cmd_scan(args):\n"
        "    try:\n"
        "        return int(args.retries)\n"
        "    except (OSError, ValueError) as error:\n"
        "        raise SystemExit(error)\n"
        "    except KeyError:\n"
        "        return 1\n"
    )

    def test_an_inline_value_error_handler_is_caught(self, tmp_path):
        for name in ("cli.py", "web/cli.py"):
            path = tmp_path / "repro" / name
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(self.CLI_SOURCE, encoding="utf-8")
        result = subprocess.run(
            [sys.executable, str(LINT), str(tmp_path)], capture_output=True, text=True
        )
        assert result.returncode == 1
        flagged = {
            line.split(": ", 1)[0].split("repro/", 1)[1]
            for line in result.stderr.splitlines()
            if "repro/" in line
        }
        assert flagged == {"cli.py:10"}
