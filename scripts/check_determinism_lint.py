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
  export, the spool manifest, the ``/v1/domain`` response body, the
  trace writer) are the legitimate per-line JSON loops and opt out with
  ``# jsonl-ok``.
* One wire reader (PR 12, PR 19): the dataclass codec is the reference
  the tests hold production to, and production does not run it.  Naming
  one of its entry points (``decode_datagram``, ``parse_header``,
  ``decode_frames``, ``encode_datagram``) or one of the objects it builds
  (``QuicPacket``, ``ParsedPacket``, the three header classes) is flagged
  everywhere but in the codec's own modules — observers and endpoints
  read datagrams with :mod:`repro.quic.onpath` and
  ``decode_frame_fields``.  Docstrings and comments may mention them.
* One endpoint datapath (PR 19), ``quic/connection.py`` only: an
  ``isinstance`` test against a frame or header class is a dispatch on
  codec objects; a second ``self.transport(...)`` call is a second send
  route; a second ``counts.sent +=`` / ``counts.received +=`` is a
  second place where packets are counted — each is flagged.  And in
  ``quic/frames.py``, ``decode_frame_fields`` may not call a class or a
  ``_decode_*`` helper: the field decoder builds no object.
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
* One declaration per analysis section (PR 20), ``service/`` only: a
  fold's ``state()`` keys (``org_totals``, ``accuracy``, ``filters``,
  ``failure_kinds``, ...) are the fold's own.  The week summary holds
  folds and passes their state through whole, so a string constant or
  an attribute of one of those names under ``service/`` is a section
  being declared a second time, and is flagged.  No pragma opts out.
* One derivation of the per-connection means (PR 22), ``analysis/`` and
  ``service/summary.py``: inside an ``update_many`` / ``update`` body,
  ``sum(...)`` of an element of a float-series column (``stacks``,
  ``rtts_received``, ``rtts_sorted``, ``times_received``, or an entry of
  the ``comparable`` column derived from them) and the names
  ``AccuracyResult`` / ``compare_means`` / ``accuracy_from_means`` are
  flagged: ``RecordBatch.comparable`` derives each connection's means
  once and ``mean_accuracy`` is the one test of a mean, so a fold that
  sums a series is deriving them a second time.  Summing a whole column
  (``sum(batch.successes)``) is not.  No pragma opts out.
* Counts once per batch, same scope: a fold body counts each series from
  columns (``SeriesSummary.add_many``, ``FilterOutcome.add_many``,
  ``Histogram.add_sorted``), so an ``.add(`` call inside a loop of an
  ``update_many`` / ``update`` body, on a name or attribute the module
  declares as one of those classes (annotated with it, or assigned a
  call of it), counts one row at a time and is flagged.  ``set.add`` is
  not.  No pragma opts out.
* One cbr container (PR 23): the framing of a cbr file — head, frame
  headers, CRCs, footer, trailer — is read in one place and written in
  one place, so a check cannot exist at one parse site and be forgotten
  at another.  Everywhere under ``src/repro/``: ``.pack`` / ``.unpack``
  / ``.unpack_from`` on ``_CHUNK_HEADER``, ``_INDEX_HEADER``,
  ``_FOOTER_HEADER`` or ``_TRAILER``, any use of the ``_FRAME_HEADERS``
  table and a comparison against ``CBR_MAGIC`` / ``_END_MAGIC`` are
  flagged outside the function that is that construct's home
  (``_CONTAINER_HOMES``: ``_read_head``, ``_read_frame``,
  ``read_footer``, ``_write_footer``, ``_FrameWriter.chunk`` /
  ``.close``).  In ``artifacts/`` also
  (``_ARTIFACTS_HOMES``): a ``crc32(`` call outside ``_read_frame`` and
  the frame writer (elsewhere ``crc32`` is anybody's hash), a
  ``_decode_columns(`` call outside ``_open_chunk`` /
  ``CbrReader.domain_batches``, a footer dict (a literal with a
  ``"chunks"`` key) outside ``_FrameWriter.close``, and a second
  ``def _damaged``.  No pragma opts out.
* One artifact format, everywhere under ``src/repro/``: cbr is the only
  format read, and JSONL is the write-only Appendix B export
  (``record_to_dict`` / ``export_records``).  Naming a JSONL record
  reader — ``record_from_dict``, ``read_records``, ``load_records``,
  ``ArtifactFormatError`` — or a format sniff, ``detect_format``, is
  flagged; the reader lives in ``tests/`` as the export's round-trip
  oracle.  No pragma opts out.
* The monitor's packet path ends in the flow slot (PR 24),
  ``monitor/pipeline.py`` only: its ``SpinFlowTable(...)`` takes neither
  ``observer_factory=`` nor ``on_packet=`` (no observer object, no
  per-packet hook), ``on_sample=`` is not a lambda or a ``self.<method>``
  the file defines (samples go straight to the aggregator), and there is
  no ``def process`` — ``process`` is the table's bound entry point, so
  nothing in that file runs once per datagram.  No pragma opts out.
* One flow structure, ``core/flow_table.py`` and ``core/flow_resolver.py``:
  a flow's identity lives in its slot and leaves the resolver's indexes
  when ``_retire`` releases the slot, so a definition or call of
  ``on_flow_retired`` (the per-key maps' second eviction path) is
  flagged; flows are keyed by CID bytes, so a ``.hex(`` call inside
  ``on_server_datagram`` is flagged; and the packet finds its slot with
  one index read, so every call of a resolver method there after the
  first is flagged.  A datagram is classified by header alone
  (``repro.netsim.tcp.is_tcp_shaped``), so naming the TCP segment codec
  (``decode_tcp_segment``, ``TcpSegment``) in either file is flagged,
  as the QUIC codec is everywhere.  No pragma opts out.
* One population universe, everywhere but ``internet/population.py``:
  a population is read by range (``materialize_range``,
  ``iter_targets``, ``domain_count``), so a ``.domains`` read on a name
  or attribute ending in ``population`` holds the whole list where no
  one needs it, and is flagged; and a ``derive_rng(`` call with a
  population label (``"population..."``, or the retired per-index
  ``"stream-domain"``) draws domains outside the one generator, and is
  flagged.  No pragma opts out.
* One definition of a scan's domain flags, everywhere but
  ``analysis/compliance.py``: the week index's ``domains`` maps and the
  repeated-scan fold read the same bits, so an assignment to
  ``FLAG_SUCCESS`` or ``FLAG_SPIN`` anywhere else is a second meaning,
  and is flagged.  No pragma opts out.
* One on-path tap, and scan work on the emitting thread: a path's
  receiver is set when the path is built, so an assignment to
  ``._receiver`` (or a ``setattr(..., "_receiver", ...)``) anywhere but
  ``netsim/path.py`` is a second tap grafted onto it — observers go
  through ``Path.install_tap``.  Under ``web/`` and ``faults/`` (the
  scan path, whose checkpoint shards are saved before they are
  emitted) an import of ``threading`` or ``queue`` is flagged.  No
  pragma opts out.
* One config error path, ``repro/cli.py`` only: an invalid option value
  is a ValueError from the library's own validation, which ``_checked``
  turns into the one ``repro: error:`` line, so an ``except`` naming
  ``ValueError`` anywhere but inside ``_checked`` is a second path, and
  is flagged; a handler names the subclass it means (``CbrFormatError``,
  ``QueryError``).  No pragma opts out.
* Compact JSON on the fold path, ``service/`` and ``artifacts/``: a
  ``json.dumps`` / ``json.dump`` call passing ``indent=`` takes the
  pure-Python encoder instead of the C one, and these layers write JSON
  on every fold (week files, the ledger, the spool manifest, the cbr
  footer), so it is flagged — sorted keys keep the output canonical
  without it.  No pragma opts out.
* One timer per endpoint, ``quic/connection.py`` only: probe and
  delayed-ACK deadlines are fields behind one wake-up, so a ``schedule``
  / ``schedule_at`` call whose arguments name the probe or delayed-ACK
  handler (``_pto_fired``, ``_delayed_ack_fired``) — as the callback, or
  wrapped in a ``partial`` or a ``lambda`` — is a per-packet timer event
  coming back, and is flagged.  No pragma opts out.
* One serving model, ``service/`` only: accepted connections go to
  handler threads that outlive them (``api._HandlerPoolServer``), so a
  name, attribute or import of ``ThreadingHTTPServer`` /
  ``ThreadingMixIn`` / ``ThreadingTCPServer`` — a new thread per
  connection — is flagged.  No pragma opts out.
* One request grammar, ``service/`` only: a request head is read once,
  by ``api._Handler.parse_request``, which takes the two fields the
  handler reads, and a request target is split on its ``?``.  So a
  name, attribute or import of ``parse_headers`` (an ``email`` message
  of every header), of ``urlparse`` / ``urlsplit`` or of the ``email``
  package is flagged.  No pragma opts out.

* Two write shapes, ``faults/``, ``service/`` and ``artifacts/``:
  durable state is a file replaced whole (``replace_file``: the old
  bytes or the new after a crash) or a line appended to a log
  (``append_line``: at most a torn last line, which is not committed),
  both in ``repro/_util/files.py``.  So an ``open`` whose mode writes
  (``w``, ``a``, ``x``, ``+``, or a mode that is not a literal), a
  ``write_bytes`` / ``write_text`` call and an ``os.replace`` /
  ``os.rename`` are flagged: a third shape would need a crash rule of
  its own.  Writing to a stream the caller opened is not.  No pragma
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

#: The reference codec — entry points, and the objects it builds —
#: which nothing outside its own modules may use.
_REFERENCE_CODEC = frozenset(
    {
        "decode_datagram", "parse_header", "decode_frames", "encode_datagram",
        "QuicPacket", "ParsedPacket", "LongHeader", "ShortHeader",
        "VersionNegotiationHeader",
    }
)
#: The TCP segment codec, which the flow table and resolver classify without.
_TCP_CODEC = frozenset({"decode_tcp_segment", "TcpSegment"})
#: A JSONL record reader and the sniff that routed files to it.
_JSONL_READER = frozenset(
    {"record_from_dict", "read_records", "load_records", "ArtifactFormatError",
     "detect_format"}
)

#: The per-scan domain flag bits (``repro.analysis.compliance``).
_DOMAIN_FLAGS = frozenset({
    "FLAG_SUCCESS", "FLAG_SPIN",
    "FLAG_SEEN_ALL_ZERO", "FLAG_SEEN_ALL_ONE", "FLAG_SEEN_SPIN", "FLAG_SEEN_GREASE",
})

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


def _uses_of(text: str, names: frozenset[str]) -> list[int]:
    """Lines that import, name or reach an attribute among ``names``."""
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
        if named & names:
            numbers.add(node.lineno)
    return sorted(numbers)


def endpoint_decoder_uses(text: str) -> list[int]:
    """Imports or uses of the reference codec (production may not)."""
    return _uses_of(text, _REFERENCE_CODEC)


def tcp_decoder_uses(text: str) -> list[int]:
    """Imports or uses of the TCP segment codec (the flow table may not)."""
    return _uses_of(text, _TCP_CODEC)


def one_artifact_format(text: str) -> list[int]:
    """Definitions, imports or uses of a JSONL record reader (cbr is the
    one format read)."""
    defined = [
        node.lineno for node in ast.walk(ast.parse(text))
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name in _JSONL_READER
    ]
    return sorted(set(_uses_of(text, _JSONL_READER) + defined))


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


#: The keys of the six record folds' ``state()`` dicts (and so of a week
#: file's analysis part).
_SECTION_STATE_KEYS = frozenset(
    {
        "org_totals", "org_spins", "webservers", "versions", "accuracy",
        "reordering", "filters", "failures_total", "failures_succeeded",
        "failure_kinds",
    }
)


def section_state_names(text: str) -> list[int]:
    """A fold's state key named as a string constant or an attribute."""
    numbers = set()
    for node in ast.walk(ast.parse(text)):
        named = node.value if isinstance(node, ast.Constant) else getattr(node, "attr", None)
        if isinstance(named, str) and named in _SECTION_STATE_KEYS:
            numbers.add(node.lineno)
    return sorted(numbers)


def _bare_name(node: ast.AST | None) -> str:
    """``f`` of a name ``f`` or an attribute ``x.f``, else ''."""
    return getattr(node, "id", None) or getattr(node, "attr", None) or ""


def _called_name(node: ast.AST) -> str:
    """The bare name a call goes to (``f(...)`` or ``x.f(...)``), else ''."""
    return _bare_name(node.func) if isinstance(node, ast.Call) else ""


#: The float-series columns of a ``RecordBatch`` and the column derived
#: from them (whose entries carry the series along).
_FLOAT_SERIES_COLUMNS = frozenset(
    {"stacks", "rtts_received", "rtts_sorted", "times_received", "comparable"}
)
#: What builds a per-connection result object from two series.
_RESULT_BUILDERS = frozenset({"AccuracyResult", "compare_means", "accuracy_from_means"})


def _is_series_column(node: ast.AST) -> bool:
    return isinstance(node, ast.Attribute) and node.attr in _FLOAT_SERIES_COLUMNS


def _names_in(target: ast.AST) -> set[str]:
    return {node.id for node in ast.walk(target) if isinstance(node, ast.Name)}


def _series_elements(target: ast.AST, iterable: ast.AST) -> set[str]:
    """Loop variables bound to elements of a float-series column by
    ``for target in iterable`` — over the column, or over a ``zip`` of
    columns, position by position."""
    if _is_series_column(iterable):
        return _names_in(target)
    names: set[str] = set()
    if _called_name(iterable) == "zip" and isinstance(target, (ast.Tuple, ast.List)):
        for element, column in zip(target.elts, iterable.args):
            if _is_series_column(column):
                names |= _names_in(element)
    return names


def fold_body_means(text: str) -> list[int]:
    """Per-connection means derived again inside a fold body: ``sum`` of
    a float-series element, or a result builder, in ``update_many`` /
    ``update``."""
    numbers = set()
    for function in ast.walk(ast.parse(text)):
        if not isinstance(function, ast.FunctionDef) or function.name not in (
            "update_many", "update"
        ):
            continue
        loops = [
            node for node in ast.walk(function)
            if isinstance(node, (ast.For, ast.comprehension))
        ]
        elements = set().union(
            *(_series_elements(loop.target, loop.iter) for loop in loops)
        )
        for node in ast.walk(function):
            if _bare_name(node) in _RESULT_BUILDERS:
                numbers.add(node.lineno)
            elif _called_name(node) == "sum" and node.args:
                summed = node.args[0]
                if getattr(summed, "id", None) in elements or (
                    isinstance(summed, ast.Subscript) and _is_series_column(summed.value)
                ):
                    numbers.add(node.lineno)
    return sorted(numbers)


#: The counters that count a batch of connections at once (``add_many``,
#: ``add_sorted``), and the loops a fold body could count one row in.
_BATCH_COUNTERS = frozenset({"SeriesSummary", "FilterOutcome", "Histogram"})
_LOOPS = (ast.For, ast.While, ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)


def fold_counts_per_row(text: str) -> list[int]:
    """A batch counter's ``.add(`` inside a loop of an ``update_many`` /
    ``update`` body.  A counter is a name or attribute the module
    annotates with one of the counter classes or assigns a call of one."""
    tree = ast.parse(text)
    counters = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.AnnAssign) and _bare_name(node.annotation) in _BATCH_COUNTERS:
            counters.add(_bare_name(node.target))
        elif isinstance(node, ast.Assign) and _called_name(node.value) in _BATCH_COUNTERS:
            counters.update(map(_bare_name, node.targets))
    numbers = set()
    for function in ast.walk(tree):
        if not isinstance(function, ast.FunctionDef) or function.name not in (
            "update_many", "update"
        ):
            continue
        for loop in ast.walk(function):
            if not isinstance(loop, _LOOPS):
                continue
            for node in ast.walk(loop):
                if _called_name(node) == "add" and _bare_name(node.func.value) in counters:
                    numbers.add(node.lineno)
    return sorted(numbers)


def _is_codec_class(node: ast.AST) -> bool:
    name = _bare_name(node)
    return name.endswith(("Frame", "Header")) or name in _REFERENCE_CODEC


def forked_datapath(text: str) -> list[int]:
    """What would make the endpoint's one send and one receive route two:
    ``isinstance`` against a frame or header class, and every
    ``self.transport(...)``, ``counts.sent +=`` and ``counts.received +=``
    after the first."""
    numbers = []
    once: dict[str, list[int]] = {}
    for node in ast.walk(ast.parse(text)):
        if _called_name(node) == "isinstance" and len(node.args) == 2:
            classes = node.args[1]
            if any(map(_is_codec_class, getattr(classes, "elts", [classes]))):
                numbers.append(node.lineno)
        elif _called_name(node) == "transport" and isinstance(node.func, ast.Attribute):
            once.setdefault("transport", []).append(node.lineno)
        elif (
            isinstance(node, ast.AugAssign)
            and getattr(node.target, "attr", None) in ("sent", "received")
            and getattr(node.target.value, "attr", None) == "counts"
        ):
            once.setdefault(node.target.attr, []).append(node.lineno)
    for lines in once.values():
        numbers.extend(sorted(lines)[1:])
    return sorted(numbers)


def field_decoder_objects(text: str) -> list[int]:
    """Class or ``_decode_*`` calls inside ``decode_frame_fields``: the
    field decoder returns plain tuples (exceptions it raises aside)."""
    numbers = []
    for function in ast.walk(ast.parse(text)):
        if getattr(function, "name", None) != "decode_frame_fields":
            continue
        raised = {
            id(node.exc) for node in ast.walk(function) if isinstance(node, ast.Raise)
        }
        for node in ast.walk(function):
            name = _called_name(node)
            if id(node) not in raised and (name[:1].isupper() or name.startswith("_decode_")):
                numbers.append(node.lineno)
    return numbers


#: The cbr container's framing constructs -> the only functions
#: (``Class.method`` for methods) that may hold them.  Struct names mean
#: a pack/unpack call on them, the magics a comparison, the rest a use.
_CONTAINER_HOMES = {
    "_CHUNK_HEADER": {"_FrameWriter.chunk"},
    "_INDEX_HEADER": {"_FrameWriter.close"},
    "_FOOTER_HEADER": {"_write_footer"},
    "_TRAILER": {"read_footer", "_write_footer"},
    "_FRAME_HEADERS": {"_read_frame"},
    "CBR_MAGIC": {"_read_head"},
    "_END_MAGIC": {"read_footer"},
}
#: What else ``artifacts/`` keeps single: the CRC (elsewhere ``crc32`` is
#: anybody's hash), the column decode's callers, the footer dict's builder.
_ARTIFACTS_HOMES = {
    "crc32": {"_read_frame", "_FrameWriter.chunk", "_FrameWriter.close"},
    "_decode_columns": {"_open_chunk", "CbrReader.domain_batches"},
    "footer dict": {"_FrameWriter.close"},
}
_STRUCT_CALLS = frozenset({"pack", "pack_into", "unpack", "unpack_from", "iter_unpack"})


def _framing_constructs(node: ast.AST):
    """The ``_CONTAINER_HOMES`` / ``_ARTIFACTS_HOMES`` keys ``node`` itself is."""
    if isinstance(node, ast.Call):
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr in _STRUCT_CALLS:
            yield _bare_name(func.value)
        yield _bare_name(func)
    elif isinstance(node, ast.Compare):
        yield from map(_bare_name, [node.left, *node.comparators])
    elif isinstance(node, ast.Dict):
        if any(getattr(key, "value", None) == "chunks" for key in node.keys):
            yield "footer dict"
    elif isinstance(getattr(node, "ctx", None), ast.Load) and _bare_name(node) == "_FRAME_HEADERS":
        yield "_FRAME_HEADERS"


def _outside_their_homes(text: str, homes: dict[str, set[str]]) -> set[int]:
    numbers = set()

    def walk(node: ast.AST, klass: str, function: str | None) -> None:
        for child in ast.iter_child_nodes(node):
            if function is None and isinstance(child, ast.ClassDef):
                walk(child, child.name, None)
            elif function is None and isinstance(child, ast.FunctionDef):
                walk(child, klass, f"{klass}.{child.name}" if klass else child.name)
            else:
                for construct in _framing_constructs(child):
                    if function not in homes.get(construct, (function,)):
                        numbers.add(child.lineno)
                walk(child, klass, function)

    walk(ast.parse(text), "", None)
    return numbers


def container_framing(text: str) -> list[int]:
    """cbr framing — header structs, the magics — outside the one
    function that reads or writes that part of the container."""
    return sorted(_outside_their_homes(text, _CONTAINER_HOMES))


def one_container(text: str) -> list[int]:
    """In ``artifacts/``: a CRC computed beside the frame reader and
    writer, a third caller of the column decode, a footer dict beside
    the writer's, a second tolerance policy (``def _damaged``)."""
    policies = [
        node.lineno for node in ast.walk(ast.parse(text))
        if isinstance(node, ast.FunctionDef) and node.name == "_damaged"
    ]
    return sorted(_outside_their_homes(text, _ARTIFACTS_HOMES) | set(policies[1:]))


def monitor_packet_path(text: str) -> list[int]:
    """What would put the pipeline's own code back on the packet path: a
    ``def process``, ``observer_factory=`` / ``on_packet=`` on its
    ``SpinFlowTable(...)``, or ``on_sample=`` bound to a lambda or to a
    method the file defines."""
    tree = ast.parse(text)
    methods = {
        node.name: node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef)
    }
    numbers = [methods["process"]] if "process" in methods else []
    for node in ast.walk(tree):
        if _called_name(node) != "SpinFlowTable":
            continue
        for keyword in node.keywords:
            value = keyword.value
            own = isinstance(value, ast.Lambda) or (
                isinstance(value, ast.Attribute)
                and _bare_name(value.value) == "self"
                and value.attr in methods
            )
            if keyword.arg in ("observer_factory", "on_packet") or (
                keyword.arg == "on_sample" and own
            ):
                numbers.append(value.lineno)
    return numbers


def one_flow_structure(text: str) -> list[int]:
    """What would split flow identity back into two structures: a
    definition or call of ``on_flow_retired``; in ``on_server_datagram``
    a ``.hex(`` call, or a second call of a resolver method
    (``resolver.f(...)`` / ``self.resolver.f(...)``)."""
    numbers = []
    for node in ast.walk(ast.parse(text)):
        if _called_name(node) == "on_flow_retired" or (
            isinstance(node, ast.FunctionDef) and node.name == "on_flow_retired"
        ):
            numbers.append(node.lineno)
        if not (isinstance(node, ast.FunctionDef) and node.name == "on_server_datagram"):
            continue
        resolver_calls = []
        for inner in ast.walk(node):
            func = getattr(inner, "func", None)
            if not isinstance(inner, ast.Call) or not isinstance(func, ast.Attribute):
                continue
            if func.attr == "hex":
                numbers.append(inner.lineno)
            elif _bare_name(func.value) == "resolver":
                resolver_calls.append(inner.lineno)
        numbers.extend(sorted(resolver_calls)[1:])
    return sorted(numbers)


def population_by_range(text: str) -> list[int]:
    """A population's ``.domains`` read, or a ``derive_rng(`` call with a
    population label: domains held as a list, or drawn by a second rule."""
    numbers = set()
    for node in ast.walk(ast.parse(text)):
        if (
            isinstance(node, ast.Attribute)
            and node.attr == "domains"
            and isinstance(node.ctx, ast.Load)
            and _bare_name(node.value).endswith("population")
        ):
            numbers.add(node.lineno)
        elif _called_name(node) == "derive_rng" and any(
            isinstance(arg, ast.Constant)
            and isinstance(arg.value, str)
            and arg.value.startswith(("population", "stream-domain"))
            for arg in node.args
        ):
            numbers.add(node.lineno)
    return sorted(numbers)


def one_flag_definition(text: str) -> list[int]:
    """An assignment to a domain flag bit (``FLAG_SUCCESS`` /
    ``FLAG_SPIN`` / ``FLAG_SEEN_*``): the bits are defined once, with
    the function that sets them and the fold that counts them."""
    numbers = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
            targets = [node.target]
        else:
            continue
        if any(_names_in(target) & _DOMAIN_FLAGS for target in targets):
            numbers.add(node.lineno)
    return sorted(numbers)


def one_tap_receiver(text: str) -> list[int]:
    """An assignment to a path's ``._receiver``: a tap grafted onto the
    delivery callback instead of installed with ``Path.install_tap``."""
    numbers = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for inner in ast.walk(target):
                    if isinstance(inner, ast.Attribute) and inner.attr == "_receiver":
                        numbers.add(node.lineno)
        elif (
            _called_name(node) == "setattr"
            and len(node.args) >= 2
            and isinstance(node.args[1], ast.Constant)
            and node.args[1].value == "_receiver"
        ):
            numbers.add(node.lineno)
    return sorted(numbers)


def thread_imports(text: str) -> list[int]:
    """An import of ``threading`` or ``queue``: work handed to a thread."""
    numbers = []
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names = [node.module or ""]
        else:
            continue
        if any(name.split(".")[0] in ("threading", "queue") for name in names):
            numbers.append(node.lineno)
    return numbers


def compact_json(text: str) -> list[int]:
    """A ``json.dumps`` / ``json.dump`` call passing ``indent=``: the
    pure-Python encoder where the C one would do."""
    return sorted(
        node.lineno
        for node in ast.walk(ast.parse(text))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in ("dump", "dumps")
        and getattr(node.func.value, "id", None) == "json"
        and any(keyword.arg == "indent" for keyword in node.keywords)
    )


#: Writes that bypass ``replace_file`` / ``append_line``: the file
#: methods, and ``os``'s renames.
_FILE_WRITES = frozenset({"write_bytes", "write_text"})
_OS_RENAMES = frozenset({"replace", "rename"})


def _open_mode(call: ast.Call) -> str | None:
    """The mode an ``open(path, mode)`` / ``path.open(mode)`` call passes
    (``"r"`` when none); ``None`` when it is not a string literal."""
    mode = next((k.value for k in call.keywords if k.arg == "mode"), None)
    if mode is None:
        position = 1 if isinstance(call.func, ast.Name) else 0
        if len(call.args) <= position:
            return "r"
        mode = call.args[position]
    return mode.value if isinstance(mode, ast.Constant) and isinstance(mode.value, str) else None


def two_write_shapes(text: str) -> list[int]:
    """A durable write beside the two shapes in ``repro._util.files``: an
    ``open`` whose mode writes (``w``, ``a``, ``x``, ``+``, or a mode that
    is not a literal), a ``write_bytes`` / ``write_text`` call, an
    ``os.replace`` / ``os.rename``."""
    lines = set()
    for node in ast.walk(ast.parse(text)):
        name = _called_name(node)
        if name == "open":
            mode = _open_mode(node)
            if mode is None or set(mode) & set("wax+"):
                lines.add(node.lineno)
        elif name in _FILE_WRITES or (
            name in _OS_RENAMES and _bare_name(getattr(node.func, "value", None)) == "os"
        ):
            lines.add(node.lineno)
    return sorted(lines)


#: The endpoint's timer handlers, which only its one wake-up runs.
_TIMER_HANDLERS = frozenset({"_pto_fired", "_delayed_ack_fired"})


def one_timer(text: str) -> list[int]:
    """A ``schedule*`` call whose arguments name a timer handler: one
    simulator event per deadline instead of the endpoint's one wake-up."""
    return sorted(
        node.lineno
        for node in ast.walk(ast.parse(text))
        if _called_name(node).startswith("schedule")
        and any(
            _bare_name(inner) in _TIMER_HANDLERS
            for argument in (*node.args, *(keyword.value for keyword in node.keywords))
            for inner in ast.walk(argument)
        )
    )


#: The stdlib's servers that start a thread per accepted connection.
_THREAD_PER_CONNECTION = frozenset(
    {"ThreadingHTTPServer", "ThreadingMixIn", "ThreadingTCPServer"}
)


def one_serving_model(text: str) -> list[int]:
    """A name, attribute or import of a thread-per-connection server: a
    second serving model beside the handler threads that outlive their
    connections."""
    return sorted(
        {
            node.lineno
            for node in ast.walk(ast.parse(text))
            if _bare_name(node) in _THREAD_PER_CONNECTION
            or isinstance(node, (ast.Import, ast.ImportFrom))
            and any(
                alias.name.rsplit(".", 1)[-1] in _THREAD_PER_CONNECTION
                for alias in node.names
            )
        }
    )


#: The generic parsers a request head or target would go through again.
_GENERIC_REQUEST_PARSERS = frozenset({"parse_headers", "urlparse", "urlsplit"})


def one_request_grammar(text: str) -> list[int]:
    """A name, attribute or import of ``parse_headers``, ``urlparse`` /
    ``urlsplit`` or the ``email`` package: a request parsed a second
    time, beside the handler's one read of its head."""
    lines = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
            names = [module.rsplit(".", 1)[-1] for module in modules]
        elif isinstance(node, ast.ImportFrom):
            modules = [node.module or ""]
            names = [alias.name for alias in node.names]
        else:
            modules = []
            names = [_bare_name(node)]
            if isinstance(node, ast.Name) and node.id == "email":
                modules = ["email"]
        if any(module.split(".", 1)[0] == "email" for module in modules) or any(
            name in _GENERIC_REQUEST_PARSERS for name in names
        ):
            lines.add(node.lineno)
    return sorted(lines)


#: What reads a telemetry snapshot: a URL opener and the snapshot file's name.
_SNAPSHOT_READERS = frozenset({"urlopen", "SNAPSHOT_FILENAME"})


def one_snapshot_source(text: str) -> list[int]:
    """A name, attribute or import of ``urlopen``, a use of
    ``SNAPSHOT_FILENAME``, or a ``"metrics.json"`` constant other than the
    one that defines it: a snapshot read beside the one loader."""
    tree = ast.parse(text)
    definition = {
        id(node.value)
        for node in ast.walk(tree)
        if isinstance(node, ast.Assign)
        and any(_bare_name(target) == "SNAPSHOT_FILENAME" for target in node.targets)
    }
    return sorted(
        {
            node.lineno
            for node in ast.walk(tree)
            if (
                _bare_name(node) in _SNAPSHOT_READERS
                and not isinstance(getattr(node, "ctx", None), ast.Store)
            )
            or isinstance(node, ast.ImportFrom)
            and any(alias.name == "urlopen" for alias in node.names)
            or isinstance(node, ast.Constant)
            and isinstance(node.value, str)
            and (node.value == "metrics.json" or node.value.endswith("/metrics.json"))
            and id(node) not in definition
        }
    )


def one_config_error_path(text: str) -> list[int]:
    """An ``except`` naming ``ValueError`` outside ``_checked``: an invalid
    option value caught inline instead of on the CLI's one error path."""
    tree = ast.parse(text)
    home = {
        id(inner)
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.name == "_checked"
        for inner in ast.walk(node)
    }
    return sorted(
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.ExceptHandler)
        and node.type is not None
        and "ValueError" in _names_in(node.type)
        and id(node) not in home
    )


#: What every file is held to; a layer (directory under ``repro/``) not
#: listed below gets exactly this.
_EVERYWHERE = (
    forbidden_lines, hand_built_trace_rows, listener_guards, endpoint_decoder_uses,
    container_framing, population_by_range, one_artifact_format, one_flag_definition,
    one_tap_receiver, one_snapshot_source,
)

#: layer → its rules.  The JSON-in-loop layers are the hot paths (the
#: scan engine's shard scheduler, cbr IPC and checkpoint writer must
#: never fall back to per-record JSON); ``telemetry`` owns the trace
#: model and the off state, so it alone may build rows and test a
#: handle for ``None``; ``service`` persists the analysis folds' state
#: and may not spell its keys; ``analysis`` (and the week summary, which
#: feeds the same folds) reads each connection's means off the batch and
#: counts a batch at a time;
#: ``artifacts`` is where the cbr container lives, once; ``web`` and
#: ``faults`` (the scan path) start no thread; ``service`` and
#: ``artifacts`` write JSON on every fold, so without ``indent``;
#: ``service`` serves from handler threads that outlive connections and
#: reads a request head once; ``faults``, ``service`` and ``artifacts``
#: persist state through the two write shapes only.
LAYER_RULES = {
    "analysis": _EVERYWHERE + (json_in_loops, fold_body_means, fold_counts_per_row),
    "artifacts": _EVERYWHERE + (one_container, compact_json, two_write_shapes),
    "faults": _EVERYWHERE + (json_in_loops, thread_imports, two_write_shapes),
    "internet": _EVERYWHERE + (json_in_loops,),
    "monitor": _EVERYWHERE + (json_in_loops,),
    "netsim": _EVERYWHERE + (json_in_loops,),
    "obs": _EVERYWHERE + (json_in_loops,),
    "service": _EVERYWHERE + (
        json_in_loops, section_state_names, compact_json, one_serving_model,
        one_request_grammar, two_write_shapes,
    ),
    "telemetry": (
        forbidden_lines, json_in_loops, endpoint_decoder_uses, container_framing,
        one_artifact_format, one_flag_definition, one_tap_receiver, one_snapshot_source,
    ),
    "web": _EVERYWHERE + (json_in_loops, thread_imports),
}

#: file → ``(rules added, rules lifted)``.  The reference codec's own
#: modules (and the package's re-exports of it) are where its names
#: live; the endpoint and the field decoder carry the one-datapath rules,
#: the monitor pipeline the rule that keeps it off the packet path, the
#: flow table and resolver the rule that keeps flow identity one structure,
#: the endpoint also the rule that keeps its timers one wake-up, the population generator is where populations are drawn, the
#: compliance fold is where the domain flags are defined, the path is
#: where its receiver is set, the CLI catches ValueError in one place,
#: the snapshot loader is where a snapshot is read (from a URL or
#: ``metrics.json``) and the telemetry bundle's ``save`` writes it.
_CODEC_HOME = ((), (endpoint_decoder_uses,))
FILE_RULES = {
    "repro/analysis/compliance.py": ((), (one_flag_definition,)),
    "repro/cli.py": ((one_config_error_path,), ()),
    "repro/core/flow_resolver.py": ((one_flow_structure, tcp_decoder_uses), ()),
    "repro/core/flow_table.py": ((one_flow_structure, tcp_decoder_uses), ()),
    "repro/internet/population.py": ((), (population_by_range,)),
    "repro/monitor/pipeline.py": ((monitor_packet_path,), ()),
    "repro/netsim/path.py": ((), (one_tap_receiver,)),
    "repro/obs/snapshot.py": ((), (one_snapshot_source,)),
    "repro/quic/__init__.py": _CODEC_HOME,
    "repro/quic/connection.py": ((forked_datapath, one_timer), ()),
    "repro/quic/datagram.py": _CODEC_HOME,
    "repro/quic/frames.py": ((field_decoder_objects,), (endpoint_decoder_uses,)),
    "repro/quic/packet.py": _CODEC_HOME,
    "repro/service/summary.py": ((fold_body_means, fold_counts_per_row), ()),
    "repro/telemetry/runtime.py": ((), (one_snapshot_source,)),
}


def find_violations(root: Path) -> list[tuple[Path, int, str]]:
    violations: list[tuple[Path, int, str]] = []
    for path in sorted(root.rglob("*.py")):
        parts = path.relative_to(root).parts
        layer = parts[1] if len(parts) > 2 and parts[0] == "repro" else ""
        added, lifted = FILE_RULES.get("/".join(parts), ((), ()))
        text = path.read_text(encoding="utf-8")
        lines = text.splitlines()
        numbers = set()
        for rule in LAYER_RULES.get(layer, _EVERYWHERE) + added:
            if rule not in lifted:
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
            f"itself opts out with '# {JSONLOOP_PRAGMA}'; datagrams are read "
            "with repro.quic.onpath and decode_frame_fields — the dataclass "
            "codec (decode_datagram, QuicPacket, ...) is the tests' reference "
            "and nothing under src/ but its own modules names it; "
            "quic/connection.py has one send and one receive route "
            "(self.transport, counts.sent +=, counts.received += once each, no "
            "isinstance on frame or header classes) and one timer (no schedule call "
            "naming _pto_fired / _delayed_ack_fired); trace rows enter the log through "
            "Tracer.span/event/count/absorb, only repro.telemetry builds them; "
            "a telemetry handle is never compared with None and nullcontext is "
            "never used — Telemetry.resolve(None) is the off bundle, call it "
            "unconditionally; under service/ no analysis section's state key "
            "(org_totals, accuracy, filters, ...) is named — the week summary "
            "passes fold.state() through whole; a fold body (update_many / update "
            "under analysis/ and in service/summary.py) never sums a connection's "
            "float series nor names AccuracyResult / compare_means — it reads "
            "batch.comparable, which derives the means once, and calls no "
            "SeriesSummary / FilterOutcome / Histogram .add( in a loop — it counts "
            "columns with add_many / add_sorted; a cbr file's framing "
            "(header structs, magics, the CRC) is read by _read_head / _read_frame / "
            "read_footer and written by _FrameWriter / _write_footer, nowhere else; "
            "cbr is the one artifact format read — JSONL is an export, and no "
            "record_from_dict / read_records / load_records / ArtifactFormatError / "
            "detect_format is named under src/; "
            "monitor/pipeline.py builds its SpinFlowTable without observer_factory= / "
            "on_packet=, binds on_sample= to no code of its own and defines no "
            "process() — the table's on_server_datagram is the pipeline's entry; "
            "core/flow_table.py and core/flow_resolver.py neither define nor call "
            "on_flow_retired (the slot holds its claims, _retire releases them), "
            "on_server_datagram calls no .hex( and at most one resolver method, and "
            "neither names decode_tcp_segment / TcpSegment — is_tcp_shaped classifies; "
            "outside internet/population.py a population is read by range "
            "(materialize_range / iter_targets / domain_count), never as .domains, "
            "and no derive_rng( call names a population label; FLAG_SUCCESS / "
            "FLAG_SPIN are assigned only in analysis/compliance.py; only "
            "netsim/path.py assigns a path's ._receiver — taps use "
            "Path.install_tap; web/ and faults/ import no threading / queue — "
            "checkpoint shards are saved on the emitting thread; the CLI module "
            "catches ValueError only in _checked — other handlers name the "
            "subclass they mean; under service/ and artifacts/ no json.dumps / "
            "json.dump passes indent= — it takes the pure-Python encoder; "
            "service/ names no ThreadingHTTPServer / ThreadingMixIn / "
            "ThreadingTCPServer — connections go to handler threads that "
            "outlive them — and no parse_headers / urlparse / urlsplit / email — "
            "_Handler.parse_request reads a request head once; only obs/snapshot.py opens a URL (urlopen) or reads "
            "SNAPSHOT_FILENAME / \"metrics.json\" — repro status has one "
            "snapshot loader — and only Telemetry.save writes it; under "
            "faults/, service/ and artifacts/ durable state is written by "
            "replace_file or append_line (repro._util.files) only — no "
            "writing open, write_bytes / write_text, os.replace / os.rename)",
            file=sys.stderr,
        )
        return 1
    print(f"determinism lint: clean ({root})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
