#!/usr/bin/env python3
"""Determinism + robustness lint for the measurement code.

Every artifact this repo produces — datasets, monitor snapshots,
telemetry traces, Prometheus exports — must be a pure function of the
seed.  The easiest way to break that silently is a wall-clock read, so
this lint greps ``src/`` for the usual suspects:

* ``time.time(``
* ``datetime.now(`` / ``datetime.utcnow(``
* ``perf_counter(``

Robustness rules ride along (PR 4): measurement code must not swallow
arbitrary exceptions (``except:`` hides the very failures the taxonomy
is supposed to classify) and must never sleep on the wall clock
(``time.sleep`` — retry backoff is charged to *simulated* time).

Performance rules ride along too (PR 5): under ``src/repro/analysis/``,
``src/repro/service/``, ``src/repro/obs/``, ``src/repro/monitor/``, and
``src/repro/netsim/`` a
``json.loads``/``json.dumps`` call inside a ``for`` loop is per-record
JSON — exactly the cost profile the
columnar artifact format and the week index exist to remove — and is
flagged.  The JSONL codecs themselves (the artifact reader, the spool
manifest, the ``/v1/domain`` response body) are the legitimate per-line
JSON loops and opt out with ``# jsonl-ok``.

One layering rule rides along (PR 12): code under ``src/repro/core/``
and ``src/repro/monitor/`` sits on the path and reads headers only
(:mod:`repro.quic.onpath`); naming ``decode_datagram`` or
``decode_frames`` there would put the endpoint codec — a header object
and a frame-object list per packet — back under the observer, and is
flagged.  Docstrings and comments may mention them.

Benchmarks (``benchmarks/``) legitimately measure wall-clock and are
not scanned.  A source line may opt out with the pattern's pragma when
the value is *diagnostics only* and never enters an artifact (e.g. the
scanner's stderr throughput line): ``# wallclock-ok`` for clock reads,
``# robustness-ok`` for the robustness rules, ``# jsonl-ok`` for the
JSON-in-loop rule; DESIGN.md documents all three.

Exit status: 0 when clean, 1 with one ``path:line: text`` per offender.
"""

from __future__ import annotations

import ast
import re
import sys
from pathlib import Path

WALLCLOCK_PRAGMA = "wallclock-ok"
ROBUSTNESS_PRAGMA = "robustness-ok"
JSONLOOP_PRAGMA = "jsonl-ok"

#: ``json.load``/``json.loads``/``json.dump``/``json.dumps`` — any
#: per-record JSON codec call.
_JSON_CALL = re.compile(r"\bjson\.(?:loads?|dumps?)\(")
_FOR_STMT = re.compile(r"^(\s*)(?:async\s+)?for\b")

#: (pattern, opt-out pragma) pairs; a line matching a pattern passes
#: only when it carries that pattern's pragma.
FORBIDDEN = (
    # Wall-clock reads that would make outputs machine/run dependent.
    (re.compile(r"\btime\.time\("), WALLCLOCK_PRAGMA),
    (re.compile(r"\bdatetime\.now\("), WALLCLOCK_PRAGMA),
    (re.compile(r"\bdatetime\.utcnow\("), WALLCLOCK_PRAGMA),
    (re.compile(r"\bperf_counter\("), WALLCLOCK_PRAGMA),
    # Robustness: a bare except swallows failures the taxonomy must
    # see; time.sleep stalls the scanner on the wall clock.
    (re.compile(r"^\s*except\s*:"), ROBUSTNESS_PRAGMA),
    (re.compile(r"\btime\.sleep\("), ROBUSTNESS_PRAGMA),
)

#: The endpoint codec's entry points, and the on-path layers that may
#: not use them.
_ENDPOINT_DECODERS = frozenset({"decode_datagram", "decode_frames"})
_ON_PATH_LAYERS = ("core", "monitor")


def find_violations(root: Path) -> list[tuple[Path, int, str]]:
    violations: list[tuple[Path, int, str]] = []
    for path in sorted(root.rglob("*.py")):
        for number, line in enumerate(
            path.read_text(encoding="utf-8").splitlines(), start=1
        ):
            for pattern, pragma in FORBIDDEN:
                if pattern.search(line) and pragma not in line:
                    violations.append((path, number, line.strip()))
                    break
    for hot_layer in (
        "analysis",
        "service",
        "obs",
        "monitor",
        "netsim",
        # The scan engine's hot path: shard scheduler, cbr IPC, and the
        # checkpoint writer must never fall back to per-record JSON.
        "web",
        "internet",
        "faults",
    ):
        layer_root = root / "repro" / hot_layer
        if layer_root.is_dir():
            violations.extend(find_json_loop_violations(layer_root))
    for on_path_layer in _ON_PATH_LAYERS:
        layer_root = root / "repro" / on_path_layer
        if layer_root.is_dir():
            violations.extend(find_endpoint_decoder_violations(layer_root))
    return violations


def find_endpoint_decoder_violations(root: Path) -> list[tuple[Path, int, str]]:
    """Imports or uses of the endpoint codec in on-path code."""
    violations: list[tuple[Path, int, str]] = []
    for path in sorted(root.rglob("*.py")):
        text = path.read_text(encoding="utf-8")
        lines = text.splitlines()
        for node in ast.walk(ast.parse(text, filename=str(path))):
            if isinstance(node, ast.ImportFrom):
                named = {alias.name for alias in node.names}
            elif isinstance(node, ast.Name):
                named = {node.id}
            elif isinstance(node, ast.Attribute):
                named = {node.attr}
            else:
                continue
            if named & _ENDPOINT_DECODERS:
                violations.append((path, node.lineno, lines[node.lineno - 1].strip()))
    return sorted(set(violations))


def find_json_loop_violations(root: Path) -> list[tuple[Path, int, str]]:
    """JSON codec calls inside ``for`` loops (per-record JSON cost).

    Indentation-scoped: a ``for`` header opens a loop body at any deeper
    indent; a JSON call in such a body without ``# jsonl-ok`` is flagged.
    """
    violations: list[tuple[Path, int, str]] = []
    for path in sorted(root.rglob("*.py")):
        loop_stack: list[int] = []  # indents of enclosing `for` headers
        for number, line in enumerate(
            path.read_text(encoding="utf-8").splitlines(), start=1
        ):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            indent = len(line) - len(line.lstrip())
            while loop_stack and indent <= loop_stack[-1]:
                loop_stack.pop()
            if (
                loop_stack
                and _JSON_CALL.search(line)
                and JSONLOOP_PRAGMA not in line
            ):
                violations.append((path, number, stripped))
            header = _FOR_STMT.match(line)
            if header is not None:
                loop_stack.append(len(header.group(1)))
    return violations


def main(argv: list[str] | None = None) -> int:
    args = argv if argv is not None else sys.argv[1:]
    root = Path(args[0]) if args else Path(__file__).resolve().parent.parent / "src"
    if not root.is_dir():
        print(f"determinism lint: no such directory: {root}", file=sys.stderr)
        return 2
    violations = find_violations(root)
    if violations:
        print(
            "determinism lint: forbidden constructs in measurement code "
            f"({len(violations)}):",
            file=sys.stderr,
        )
        for path, number, text in violations:
            print(f"  {path}:{number}: {text}", file=sys.stderr)
        print(
            "  (benchmark-only timing belongs in benchmarks/; diagnostics "
            f"may annotate the line with '# {WALLCLOCK_PRAGMA}', robustness "
            f"opt-outs with '# {ROBUSTNESS_PRAGMA}'; per-record JSON in the "
            f"analysis layer belongs in the cbr codec — the JSONL codec "
            f"itself opts out with '# {JSONLOOP_PRAGMA}'; on-path code under "
            "core/ and monitor/ reads datagrams with repro.quic.onpath, not "
            "decode_datagram/decode_frames)",
            file=sys.stderr,
        )
        return 1
    print(f"determinism lint: clean ({root})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
