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

Which further rules apply to which layer (directory under
``src/repro/``) is one table, ``LAYER_RULES``:

* Performance (PR 5): in the hot layers a ``json.loads``/``json.dumps``
  call inside a ``for`` loop is per-record JSON — exactly the cost
  profile the columnar artifact format and the week index exist to
  remove — and is flagged.  The JSONL codecs themselves (the artifact
  reader, the spool manifest, the ``/v1/domain`` response body, the
  trace writer) are the legitimate per-line JSON loops and opt out with
  ``# jsonl-ok``.
* Layering (PR 12): ``core`` and ``monitor`` sit on the path and read
  headers only (:mod:`repro.quic.onpath`); naming ``decode_datagram``
  or ``decode_frames`` there would put the endpoint codec — a header
  object and a frame-object list per packet — back under the observer,
  and is flagged.  Docstrings and comments may mention them.
* One trace model (PR 17): outside ``telemetry`` nothing constructs a
  trace record or open-span handle, or mutates a ``records`` /
  ``diag_records`` list — rows enter the log through ``Tracer.span`` /
  ``event`` / ``count`` / ``absorb`` only, so a second model of the
  same facts cannot grow back beside the first.
* One path per site (PR 18): outside ``telemetry`` nothing asks whether
  anyone is listening.  Comparing a telemetry handle with ``None`` — a
  name or attribute called ``telemetry``, ``registry``, ``tracer``,
  ``profiler``, ``metrics`` or ``metered``, ending in ``span`` or
  starting with ``_m_`` — and any use of ``contextlib.nullcontext`` are
  flagged: owners resolve ``telemetry=None`` once
  (``Telemetry.resolve``) and then report unconditionally.  No pragma
  opts out.

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

#: The endpoint codec's entry points, which on-path layers may not use.
_ENDPOINT_DECODERS = frozenset({"decode_datagram", "decode_frames"})

#: The trace model's constructors and row lists (``repro.telemetry.trace``).
_TRACE_CONSTRUCTORS = frozenset({"TraceRecord", "OpenSpan"})
_TRACE_ROW_LISTS = frozenset({"records", "diag_records"})
_LIST_MUTATORS = frozenset(
    {"append", "extend", "insert", "pop", "remove", "clear", "sort", "reverse"}
)


def forbidden_lines(text: str) -> list[int]:
    """Wall-clock reads and robustness breaches without their pragma."""
    return [
        number
        for number, line in enumerate(text.splitlines(), start=1)
        if any(
            pattern.search(line) and pragma not in line
            for pattern, pragma in FORBIDDEN
        )
    ]


def endpoint_decoder_uses(text: str) -> list[int]:
    """Imports or uses of the endpoint codec (on-path code may not)."""
    numbers = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, ast.ImportFrom):
            named = {alias.name for alias in node.names}
        elif isinstance(node, ast.Name):
            named = {node.id}
        elif isinstance(node, ast.Attribute):
            named = {node.attr}
        else:
            continue
        if named & _ENDPOINT_DECODERS:
            numbers.add(node.lineno)
    return sorted(numbers)


def json_in_loops(text: str) -> list[int]:
    """JSON codec calls inside ``for`` loops (per-record JSON cost).

    Indentation-scoped: a ``for`` header opens a loop body at any deeper
    indent; a JSON call in such a body without ``# jsonl-ok`` is flagged.
    """
    numbers = []
    loop_stack: list[int] = []  # indents of enclosing `for` headers
    for number, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        indent = len(line) - len(line.lstrip())
        while loop_stack and indent <= loop_stack[-1]:
            loop_stack.pop()
        if loop_stack and _JSON_CALL.search(line) and JSONLOOP_PRAGMA not in line:
            numbers.append(number)
        header = _FOR_STMT.match(line)
        if header is not None:
            loop_stack.append(len(header.group(1)))
    return numbers


def _is_row_list(node: ast.AST) -> bool:
    return isinstance(node, ast.Attribute) and node.attr in _TRACE_ROW_LISTS


def hand_built_trace_rows(text: str) -> list[int]:
    """Trace rows constructed, or row lists mutated, outside the model."""
    numbers = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, ast.Call):
            func = node.func
            called = getattr(func, "id", None) or getattr(func, "attr", None)
            if called in _TRACE_CONSTRUCTORS or (
                called in _LIST_MUTATORS
                and isinstance(func, ast.Attribute)
                and _is_row_list(func.value)
            ):
                numbers.add(node.lineno)
        elif isinstance(getattr(node, "ctx", None), (ast.Store, ast.Del)) and (
            _is_row_list(node)
            or (isinstance(node, ast.Subscript) and _is_row_list(node.value))
        ):
            numbers.add(node.lineno)
    return sorted(numbers)


#: Names under which code holds a telemetry handle (bundle, registry,
#: tracer, profiler, bound series, span).
_LISTENER_NAMES = frozenset(
    {"telemetry", "registry", "tracer", "profiler", "metrics", "metered"}
)


def _names_a_listener(node: ast.AST) -> bool:
    name = getattr(node, "id", None) or getattr(node, "attr", None) or ""
    return (
        name in _LISTENER_NAMES or name.endswith("span") or name.startswith("_m_")
    )


def _is_none(node: ast.AST) -> bool:
    return isinstance(node, ast.Constant) and node.value is None


def listener_guards(text: str) -> list[int]:
    """``is None`` tests of a telemetry handle, and ``nullcontext``."""
    numbers = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            guarded = (
                any(isinstance(op, (ast.Is, ast.IsNot)) for op in node.ops)
                and any(map(_is_none, operands))
                and any(map(_names_a_listener, operands))
            )
        elif isinstance(node, ast.ImportFrom):
            guarded = any(alias.name == "nullcontext" for alias in node.names)
        else:
            guarded = "nullcontext" in (
                getattr(node, "id", None), getattr(node, "attr", None)
            )
        if guarded:
            numbers.add(node.lineno)
    return sorted(numbers)


#: What every file is held to; a layer (directory under ``repro/``) not
#: listed below gets exactly this.
_EVERYWHERE = (forbidden_lines, hand_built_trace_rows, listener_guards)

#: layer → its rules.  The JSON-in-loop layers are the hot paths (the
#: scan engine's shard scheduler, cbr IPC and checkpoint writer must
#: never fall back to per-record JSON); ``telemetry`` owns the trace
#: model and the off state, so it alone may build rows and test a
#: handle for ``None``.
LAYER_RULES = {
    "analysis": _EVERYWHERE + (json_in_loops,),
    "core": _EVERYWHERE + (endpoint_decoder_uses,),
    "faults": _EVERYWHERE + (json_in_loops,),
    "internet": _EVERYWHERE + (json_in_loops,),
    "monitor": _EVERYWHERE + (json_in_loops, endpoint_decoder_uses),
    "netsim": _EVERYWHERE + (json_in_loops,),
    "obs": _EVERYWHERE + (json_in_loops,),
    "service": _EVERYWHERE + (json_in_loops,),
    "telemetry": (forbidden_lines, json_in_loops),
    "web": _EVERYWHERE + (json_in_loops,),
}


def find_violations(root: Path) -> list[tuple[Path, int, str]]:
    violations: list[tuple[Path, int, str]] = []
    for path in sorted(root.rglob("*.py")):
        parts = path.relative_to(root).parts
        layer = parts[1] if len(parts) > 2 and parts[0] == "repro" else ""
        text = path.read_text(encoding="utf-8")
        lines = text.splitlines()
        numbers = set()
        for rule in LAYER_RULES.get(layer, _EVERYWHERE):
            numbers.update(rule(text))
        violations.extend(
            (path, number, lines[number - 1].strip()) for number in sorted(numbers)
        )
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
            "decode_datagram/decode_frames; trace rows enter the log through "
            "Tracer.span/event/count/absorb, only repro.telemetry builds them; "
            "a telemetry handle is never compared with None and nullcontext is "
            "never used — Telemetry.resolve(None) is the off bundle, call it "
            "unconditionally)",
            file=sys.stderr,
        )
        return 1
    print(f"determinism lint: clean ({root})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
