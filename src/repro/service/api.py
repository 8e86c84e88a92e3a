"""HTTP/JSON query API over the week index — the service's front door.

A stdlib :class:`http.server.HTTPServer` serving millisecond answers
from the indexer's summary files, each connection on one of a few
handler threads that outlive their connections (:func:`build_server`).
A summary request does answer-sized work: it reads its request head
once (:meth:`_Handler.parse_request`), stats the ledger (the index
*version*), looks its week up in :class:`ServiceState`'s cache and
writes the encoded body it finds there.  Parsing, merging the all-weeks
view and rendering happen once per change of a week file's *content*,
never per request, and no request decodes an artifact chunk.  The one
deliberately cold endpoint is ``/v1/domain/<name>``, which runs an
index-backed point lookup against the spooled ``cbr`` artifacts that can
hold the name — its chunk decodes are *counted* in the telemetry
registry (``query.chunks_total`` …), which is how the benchmark asserts
the summary endpoints decode zero chunks.

Endpoints (all JSON unless noted)::

    GET  /v1/healthz                     liveness + index version info
    GET  /v1/weeks                       indexed week labels
    GET  /v1/adoption?week=cw20-2023     domain/connection adoption counters
    GET  /v1/compliance?week=...         behaviour-class distribution
    GET  /v1/analyze?week=...&section=   the repro-analyze text block
    GET  /v1/domain/<name>               the domain's records (JSONL body)
    GET  /v1/metrics                     telemetry snapshot (registry + directory gauges)
    GET  /v1/status                      SLO health report over that snapshot
    GET  /v1/spans                       trace rows of the campaign

``week`` defaults to ``all`` (every indexed week merged).  Errors are
JSON too, and counted: ``{"error": ...}`` with a 4xx/5xx status, whether
a route refused the request or the HTTP layer did (bad request line,
unsupported version or method, oversized header).  A week file that does
not parse is a 500 on its week and on ``all`` (counted in
``service.weeks_unreadable``), never cached and never left out of a
merged answer; the request after the file is rewritten is served again.
"""

from __future__ import annotations

import hashlib
import http.client
import json
import os
import queue
import re
import threading
import time
from http.server import BaseHTTPRequestHandler, HTTPServer
from urllib.parse import parse_qs, unquote

from repro.analysis.engine import RECORD_SECTIONS
from repro.obs.slo import (
    HealthEngine,
    HealthReport,
    default_service_slos,
    with_service_gauges,
)
from repro.service.daemon import CampaignDaemon
from repro.service.indexer import WeekIndexer, ledger_artifacts
from repro.service.spool import SpoolStore
from repro.service.summary import WeekSummary
from repro.telemetry import Telemetry, trace_rows

__all__ = ["ServiceState", "build_server", "serve_forever"]

_JSON_HEADERS = (("Content-Type", "application/json"),)


def _encode(payload: dict) -> bytes:
    return (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8")


class WeekUnreadable(Exception):
    """A week file on disk does not parse into a summary."""


class _CachedWeek:
    """One week file as last read: stat key, content digest, parse,
    encoded answers."""

    __slots__ = ("path", "key", "digest", "summary", "bodies", "checked")

    def __init__(self, path: str = "") -> None:
        self.path = path  # week-<label>.json
        self.key = None  # stat key the parse stands for; None: read the file
        self.digest = None  # sha256 of the file; for "all", {label: digest}
        self.summary: WeekSummary | None = None
        self.bodies: dict = {}  # (route, section) -> response body
        self.checked = False  # key compared under the current version


#: Equal to no index version: the first request reads the index.
_UNREAD = object()


class ServiceState:
    """Shared, cached view of one service directory.

    Every request stats the ledger — the index *version* is its stat key
    (:meth:`WeekIndexer.version`) — which is the whole per-request
    filesystem footprint of the summary endpoints and what makes a fold
    by the daemon or an external ``repro service index`` visible on the
    next request.  A new version reads and parses the ledger (once per
    key, for :meth:`domain_records`), re-lists the weeks and marks every
    cached week unchecked; a ledger that ends in an unterminated line is
    a fold still committing, and the weeks cached under the last version
    keep answering.  The first request for a week under a new
    version stats its file: a key that did not move stands for the parse
    it was taken with, and only a moved one is read, hashed and — if the
    digest differs — parsed again (a fold rewrites one or two week
    files, the others keep their parse and their encoded bodies, and a
    file rewritten with the same bytes keeps its parse too).  A key is
    kept only if its mtime is strictly older than the ledger's under
    which it was taken (git's "racily clean" rule): any later write to
    the file is stamped at least that late, so it moves the key, while a
    file written in the ledger's own tick is read again under the next
    version.  Labels the index does not list get a 404 without touching
    the disk or the cache, so the cache holds at most one entry per
    indexed week.
    """

    def __init__(
        self,
        spool: SpoolStore,
        indexer: WeekIndexer,
        telemetry=None,
    ) -> None:
        self.spool = spool
        self.indexer = indexer
        #: What ``/v1/metrics``, ``/v1/status`` and ``/v1/spans`` serve
        #: back; ``None`` is off like anywhere else — requests go
        #: uncounted, the snapshot holds the directory gauges alone and
        #: the spans are empty (``repro service serve`` always hands its
        #: daemon and its state one live bundle).
        self.telemetry = Telemetry.resolve(telemetry)
        self._lock = threading.Lock()
        self._version = _UNREAD
        self._ledger: set[str] = set()  # what the ledger lists, read under _version
        #: A week file's stat key is kept only if its mtime is below this:
        #: the ledger's mtime under ``_version`` (none without a ledger).
        self._trusted_before: float = float("-inf")
        self._weeks: dict[str, _CachedWeek] = {}  # calendar order
        self._all = _CachedWeek()
        self._weeks_body = b""

    def weeks(self) -> list[str]:
        """Indexed week labels in calendar order, listed once per version."""
        with self._lock:
            self._refresh_locked()
            return list(self._weeks)

    def weeks_body(self) -> bytes:
        with self._lock:
            self._refresh_locked()
            return self._weeks_body

    def summary_body(self, week: str, key, render) -> bytes | None:
        """The encoded answer ``key`` for ``week`` (or the merged ``all``).

        ``render`` turns the week's summary into the payload; it runs
        once per content of the week file.  ``None``: not indexed.
        Raises :class:`WeekUnreadable` when the week's file — for
        ``all``, any week's — does not parse: a merged view missing a
        week would be a wrong answer, not a partial one.
        """
        with self._lock:
            self._refresh_locked()
            entry = self._all_locked() if week == "all" else self._week_locked(week)
            if entry is None:
                return None
            body = entry.bodies.get(key)
            if body is None:
                body = entry.bodies[key] = _encode(render(entry.summary))
            return body

    def domain_records(self, name: str):
        """Point lookup across the spooled artifacts (the cold path).

        An artifact the ledger lists is listed by every week it holds
        records of, so it is opened only if one of those weeks knows the
        name; an artifact not (completely) folded yet is always opened.
        Yields JSONL lines in spool order; decodes are charged to the
        telemetry registry through the same :class:`QueryStats` counters
        the CLI query path emits.
        """
        from repro.analysis.query import QueryStats, domain_lines

        with self._lock:
            self._refresh_locked()
            skip = set(self._ledger)
            try:
                for week in self._weeks:
                    cached = self._week_locked(week)
                    if cached is not None and name in cached.summary.domains:
                        skip.difference_update(cached.summary.artifacts)
            except WeekUnreadable:
                skip.clear()  # which artifacts hold the name is unknown
        spool = self.spool
        for fingerprint in spool.fingerprints():
            if fingerprint in skip:
                continue
            stats = QueryStats()
            yield from domain_lines(str(spool.artifact_path(fingerprint)), name, stats)
            stats.emit(self.telemetry)

    def counter(self, name: str, amount: int = 1) -> None:
        self.telemetry.registry.counter(name).inc(amount)

    def observe_request_ms(self, route: str, elapsed_ms: float, status: int) -> None:
        """Account one request: latency histogram + counted diag row."""
        self.telemetry.registry.histogram("api.request_ms").observe(elapsed_ms)
        self.telemetry.tracer.count(f"request:{route}", status=status)

    def metrics_snapshot(self) -> dict:
        """The registry with the directory-derived service gauges set: what
        ``/v1/metrics`` serves and ``/v1/status`` judges, so the report is
        meaningful even before the daemon's first tick set any gauges."""
        return with_service_gauges(
            self.telemetry.registry.snapshot(), self.spool, self.indexer
        )

    def health_report(self) -> HealthReport:
        """The default SLOs over :meth:`metrics_snapshot` — computed purely
        from telemetry, never by re-scanning."""
        return HealthEngine(default_service_slos()).evaluate(self.metrics_snapshot())

    def spans_payload(self) -> dict:
        """The campaign trace in export shape (`/v1/spans`)."""
        tracer = self.telemetry.tracer
        return {
            "trace": tracer.trace_id,
            "spans": trace_rows(tracer.records, tracer.trace_id),
            "diag": trace_rows(tracer.diag_records, tracer.trace_id),
        }

    def _refresh_locked(self) -> None:
        indexer = self.indexer
        version = indexer.version()
        if version == self._version:
            return
        # The ledger is stat-ed, then read, before the directory and the
        # week files, so whatever a fold wrote before this version is
        # seen under it.
        data = indexer.ledger_bytes()
        if data[-1:] not in (b"", b"\n") and self._version is not _UNREAD:
            return  # a fold whose line is torn has not committed: keep the cache
        self._ledger = ledger_artifacts(data)
        cached = self._weeks
        self._weeks = {
            week: cached.get(week) or _CachedWeek(os.fspath(indexer.week_path(week)))
            for week in indexer.weeks()
        }
        for entry in self._weeks.values():
            entry.checked = False
        self._all.checked = False
        self._weeks_body = _encode({"weeks": list(self._weeks)})
        self._trusted_before = float("-inf") if version is None else version[2]
        self._version = version

    def _week_locked(self, week: str) -> _CachedWeek | None:
        entry = self._weeks.get(week)
        if entry is None or entry.checked:
            return entry
        return self._check_locked(week, entry)

    def _check_locked(self, week: str, entry: _CachedWeek) -> _CachedWeek | None:
        """``entry`` compared with its file under the current version:
        re-read if its stat key moved, re-parsed if its digest did."""
        try:
            stat = os.stat(entry.path)
        except OSError:
            return None
        key = (stat.st_ino, stat.st_size, stat.st_mtime_ns)
        if key != entry.key:
            # Stat-ed before it is read: a write in between leaves a key
            # older than the bytes, which only costs a read next time.
            data = self.indexer.week_bytes(week)
            if data is None:
                return None
            digest = hashlib.sha256(data).digest()
            if digest != entry.digest:
                # Parsed before anything is assigned: a file that does
                # not parse leaves the entry as it was (unchecked, so the
                # next request reads the file again) and caches nothing.
                try:
                    summary = WeekSummary.from_json(data)
                except (ValueError, KeyError, TypeError, AttributeError) as error:
                    self.counter("service.weeks_unreadable")
                    raise WeekUnreadable(
                        f"week {week!r} is unreadable: {type(error).__name__}: {error}"
                    ) from error
                entry.digest, entry.summary, entry.bodies = digest, summary, {}
            entry.key = key if stat.st_mtime_ns < self._trusted_before else None
        entry.checked = True
        return entry

    def _all_locked(self) -> _CachedWeek:
        """The merged view: the weeks it lacks are merged in (counters add
        in any order); a week it holds rewritten or gone starts it anew."""
        entry = self._all
        if not entry.checked:
            checked = {
                label: week if week.checked else self._check_locked(label, week)
                for label, week in self._weeks.items()
            }
            digests = {label: week.digest for label, week in checked.items() if week}
            held = entry.digest
            if digests != held:
                if held is None or not held.items() <= digests.items():
                    entry.summary, held = WeekSummary(week="all"), {}
                for label in digests:
                    if label not in held:
                        entry.summary.merge(checked[label].summary.state())
                entry.digest, entry.bodies = digests, {}
            entry.checked = True
        return entry


#: ``http.client``'s limits on a request head: bytes per header line,
#: and lines (the blank one that ends the head included, as it counts).
_MAX_LINE = http.client._MAXLINE
_MAX_HEADERS = http.client._MAXHEADERS
#: What ends a head (``b""``: the client closed its side).
_HEAD_ENDS = frozenset({b"\r\n", b"\n", b""})
#: A line as ``email.feedparser`` splits its input (universal newlines),
#: its line ending kept.
_LINE = re.compile(r"[^\r\n]*(?:\r\n|\r|\n)|[^\r\n]+")
#: A field line as ``email.feedparser`` takes one: a name and its colon.
_FIELD_LINE = re.compile(r"[\041-\071\073-\176]*:")
#: The header fields the handler reads (by lower-cased name).
_FIELDS = ("connection", "expect")


def _version_number(version: str) -> tuple[int, int] | None:
    """``HTTP/<major>.<minor>`` as ``http.server`` accepts it (RFC 2145:
    two integers of at most ten digits each, leading zeros ignored), or
    ``None`` for a bad version."""
    if not version.startswith("HTTP/"):
        return None
    parts = version[5:].split(".")
    if len(parts) != 2 or not all(part.isdigit() and len(part) <= 10 for part in parts):
        return None
    try:
        return int(parts[0]), int(parts[1])
    except ValueError:  # a digit int() does not read, such as "²"
        return None


def _head_fields(lines: list[bytes]) -> dict[str, str]:
    """The :data:`_FIELDS` values ``http.client.parse_headers`` (through
    ``email.parser``, compat32) gives for the header ``lines``: the first
    field of a name wins, continuation lines are joined on, an envelope
    ``From`` line is skipped, and the first other line that is not a
    field ends the headers — the email parser takes the rest for a
    body."""
    found: dict[str, str] = {}
    field: list[str] = []  # the open field's lines

    def close(field: list[str]) -> None:
        name, value = field[0].split(":", 1)
        name = name.lower()
        if name in _FIELDS and name not in found:
            value = value.lstrip(" \t") + "".join(field[1:])
            found[name] = value.rstrip("\r\n")

    for line in _LINE.findall(b"".join(lines).decode("iso-8859-1")):
        if line[0] in " \t":
            if field:  # a continuation before any field is dropped
                field.append(line)
            continue
        if field:
            close(field)
            field = []
        if line.startswith("From "):
            continue
        if not _FIELD_LINE.match(line):
            break
        field = [line]
    if field:
        close(field)
    return found


#: The ``Date`` header value and the second it was formatted for.
_date = (-1, "")


def _http_date() -> str:
    """``email.utils.formatdate(usegmt=True)`` of now, formatted once per
    second."""
    global _date
    # The Date header is wall-clock by definition; it enters no artifact.
    second = int(time.time())  # wallclock-ok: HTTP Date header
    if second != _date[0]:
        year, month, day, hour, minute, sec, weekday = time.gmtime(second)[:7]
        _date = (
            second,
            f"{BaseHTTPRequestHandler.weekdayname[weekday]}, {day:02d} "
            f"{BaseHTTPRequestHandler.monthname[month]} {year:04d} "
            f"{hour:02d}:{minute:02d}:{sec:02d} GMT",
        )
    return _date[1]


class _Handler(BaseHTTPRequestHandler):
    """Routes /v1/* onto the shared :class:`ServiceState`."""

    #: Set by :func:`build_server` on the subclass.
    state: ServiceState = None  # type: ignore[assignment]
    server_version = "repro-service/1"
    protocol_version = "HTTP/1.1"

    # -- plumbing ------------------------------------------------------

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        pass  # requests are counted in telemetry, not printed

    def parse_request(self) -> bool:
        """:meth:`BaseHTTPRequestHandler.parse_request`, with the head read
        once and only the fields the handler reads taken from it.

        The same contract: a bad request line or version is a 400, HTTP/2
        and above a 505, a header line over ``http.client``'s limit or one
        line too many a 431 ("Line too long" / "Too many headers"); a
        two-word ``GET`` is an HTTP/0.9 simple request; ``Connection:
        close`` / ``keep-alive`` and ``Expect: 100-continue`` act as they
        do there; a path starting ``//`` is folded to one ``/``.  What
        differs is the cost: the stdlib builds an ``email`` message of
        every header, this reads ``Connection`` and ``Expect`` as that
        message would give them and sets no ``self.headers``.
        """
        self.command = None  # set in case of error on the first line
        self.request_version = version = self.default_request_version
        self.close_connection = True
        requestline = str(self.raw_requestline, "iso-8859-1").rstrip("\r\n")
        self.requestline = requestline
        words = requestline.split()
        if not words:
            return False
        if len(words) >= 3:  # enough to determine the protocol version
            version = words[-1]
            number = _version_number(version)
            if number is None:
                self.send_error(400, f"Bad request version ({version!r})")
                return False
            if number >= (1, 1) and self.protocol_version >= "HTTP/1.1":
                self.close_connection = False
            if number >= (2, 0):
                self.send_error(505, f"Invalid HTTP version ({version[5:]})")
                return False
            self.request_version = version
        if not 2 <= len(words) <= 3:
            self.send_error(400, f"Bad request syntax ({requestline!r})")
            return False
        command, path = words[:2]
        if len(words) == 2:
            self.close_connection = True
            if command != "GET":
                self.send_error(400, f"Bad HTTP/0.9 request type ({command!r})")
                return False
        if path.startswith("//"):  # gh-87389: no scheme-relative path
            path = "/" + path.lstrip("/")
        self.command, self.path = command, path
        lines = []
        readline = self.rfile.readline
        while True:
            line = readline(_MAX_LINE + 1)
            if len(line) > _MAX_LINE:
                self.send_error(431, "Line too long")
                return False
            lines.append(line)
            if len(lines) > _MAX_HEADERS:
                self.send_error(431, "Too many headers")
                return False
            if line in _HEAD_ENDS:
                break
        fields = _head_fields(lines)
        connection = fields.get("connection", "").lower()
        if connection == "close":
            self.close_connection = True
        elif connection == "keep-alive" and self.protocol_version >= "HTTP/1.1":
            self.close_connection = False
        if (
            fields.get("expect", "").lower() == "100-continue"
            and self.protocol_version >= "HTTP/1.1"
            and self.request_version >= "HTTP/1.1"
        ):
            return self.handle_expect_100()
        return True

    def _send(self, status: int, headers, body: bytes) -> None:
        """The whole response — what ``send_response`` + ``send_header``
        + ``end_headers`` + a body write emit — in one write."""
        self._last_status = status
        if self.command and self.request_version == "HTTP/0.9":
            self.wfile.write(body)  # a simple-request takes no status line
            return
        lines = [
            f"{self.protocol_version} {status} {self.responses[status][0]}",
            f"Server: {self.version_string()}",
            f"Date: {_http_date()}",
            *(f"{name}: {value}" for name, value in headers),
            f"Content-Length: {len(body)}\r\n\r\n",
        ]
        if self.command == "HEAD":
            body = b""
        self.wfile.write("\r\n".join(lines).encode("latin-1") + body)

    def _send_json(self, payload: dict) -> None:
        self._send(200, _JSON_HEADERS, _encode(payload))

    def _send_error_json(self, message: str, status: int = 400, headers=()) -> None:
        self.state.counter("service.requests_errored")
        self._send(status, headers + _JSON_HEADERS, _encode({"error": message}))

    def send_error(self, code, message=None, explain=None):
        """What the HTTP layer refuses (request line, version, method,
        header size) before a route sees it: counted and answered in
        JSON like any other error, and the connection is closed."""
        self.state.counter("service.requests_total")
        self.close_connection = True
        self._send_error_json(
            message or self.responses[code][0], int(code), (("Connection", "close"),)
        )

    # -- routing -------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 - stdlib naming
        # API latency is inherently wall-clock; it feeds the operator
        # histogram + SLOs and never enters a deterministic artifact.
        started = time.perf_counter()  # wallclock-ok: API latency histogram
        route = self._route_get()
        elapsed_ms = (time.perf_counter() - started) * 1000.0  # wallclock-ok
        self.state.observe_request_ms(route, elapsed_ms, self._last_status)

    def _route_get(self) -> str:
        """Answer one GET; returns the route template it matched."""
        state = self.state
        state.counter("service.requests_total")
        target, _, query = self.path.partition("?")
        route = target.rstrip("/") or "/"
        query = parse_qs(query) if query else {}
        week = (query.get("week") or ["all"])[0]
        if route == "/v1/healthz":
            self._send_json(
                {
                    "status": "ok",
                    "weeks": state.weeks(),
                    "artifacts": len(state.spool.fingerprints()),
                }
            )
        elif route == "/v1/weeks":
            self._send(200, _JSON_HEADERS, state.weeks_body())
        elif route == "/v1/adoption":
            self._summary_endpoint(week, "adoption", WeekSummary.adoption)
        elif route == "/v1/compliance":
            self._summary_endpoint(week, "compliance", WeekSummary.compliance)
        elif route == "/v1/analyze":
            self._analyze_endpoint(week, (query.get("section") or ["all"])[0])
        elif route.startswith("/v1/domain/"):
            self._domain_endpoint(unquote(route[len("/v1/domain/"):]))
            return "/v1/domain/<name>"
        elif route == "/v1/metrics":
            self._send_json({"metrics": state.metrics_snapshot()})
        elif route == "/v1/status":
            self._send_json(state.health_report().to_dict())
        elif route == "/v1/spans":
            self._send_json(state.spans_payload())
        else:
            self._send_error_json(f"unknown endpoint {target}", status=404)
            return "<unknown>"
        return route

    # -- endpoint bodies -----------------------------------------------

    def _summary_endpoint(self, week: str, key, render) -> None:
        try:
            body = self.state.summary_body(week, key, render)
        except WeekUnreadable as error:
            self._send_error_json(str(error), status=500)
            return
        if body is None:
            self._send_error_json(f"week {week!r} is not indexed", status=404)
        else:
            self._send(200, _JSON_HEADERS, body)

    def _analyze_endpoint(self, week: str, section: str) -> None:
        if section != "all" and section not in RECORD_SECTIONS:
            self._send_error_json(f"unknown section {section!r}")
            return

        def render(summary: WeekSummary) -> dict:
            from repro.analysis.report import render_analysis_sections

            text = render_analysis_sections(summary.analysis_results(), section)
            return {"week": week, "section": section, "text": text}

        self._summary_endpoint(week, ("analyze", section), render)

    def _domain_endpoint(self, name: str) -> None:
        if not name:
            self._send_error_json("a domain name is required")
            return
        lines = list(self.state.domain_records(name))
        self._send(
            200,
            (("Content-Type", "application/jsonl"), ("X-Record-Count", len(lines))),
            "".join(line + "\n" for line in lines).encode("utf-8"),
        )


#: Handler threads the first connection starts, and the most that wait
#: between connections.  A closed-loop client opens its next connection
#: before the previous one's handler has read EOF, so a single waiting
#: thread would leave most connections starting one.
_READY_HANDLERS = 4
_MAX_IDLE_HANDLERS = 8

#: The calling thread's CPU set, where the platform has one.
_cpu_set = getattr(os, "sched_getaffinity", lambda pid: None)


class _HandlerPoolServer(HTTPServer):
    """An :class:`HTTPServer` that hands each accepted connection to a
    waiting handler thread, or to a new one (see :func:`build_server`).

    A waiting thread blocks on its own mailbox; ``_idle`` is a stack of
    ``(mailbox, thread)``, so the thread that went idle last is woken
    first.
    """

    def __init__(self, server_address, handler_class) -> None:
        super().__init__(server_address, handler_class)
        self._lock = threading.Lock()
        self._idle: list[tuple[queue.SimpleQueue, threading.Thread]] = []
        self._started = 0
        self._closed = False

    def process_request(self, request, client_address) -> None:
        connection = (request, client_address, _cpu_set(0))
        with self._lock:
            if not self._closed:
                if self._idle:
                    self._idle.pop()[0].put(connection)
                    return
                self._start_handler_locked(connection)
                while self._started < _READY_HANDLERS:
                    self._start_handler_locked(None)
                return
        self.shutdown_request(request)

    def _start_handler_locked(self, connection) -> None:
        """Start a thread on ``connection``, or waiting if ``None``."""
        self._started += 1
        mailbox = queue.SimpleQueue()
        thread = threading.Thread(
            target=self._serve,
            args=(mailbox,),
            name=f"repro-api:{self.server_address[1]}/{self._started}",
            daemon=True,
        )
        if connection is None:
            self._idle.append((mailbox, thread))
        else:
            mailbox.put(connection)
        thread.start()

    def _serve(self, mailbox: queue.SimpleQueue) -> None:
        """One handler thread's life: connections from its mailbox, until
        a ``None`` or enough other threads wait."""
        cores = None
        while (connection := mailbox.get()) is not None:
            request, client_address, accepted_on = connection
            try:
                # A thread started per connection inherited the accepting
                # thread's CPU set; one that outlives it takes it on.
                if accepted_on != cores:
                    os.sched_setaffinity(0, accepted_on)
                    cores = accepted_on
                self.finish_request(request, client_address)
            except Exception:  # as ThreadingMixIn: report, serve on
                self.handle_error(request, client_address)
            finally:
                self.shutdown_request(request)
            with self._lock:
                if self._closed or len(self._idle) >= _MAX_IDLE_HANDLERS:
                    return
                self._idle.append((mailbox, threading.current_thread()))

    def server_close(self) -> None:
        """Close the socket and end the waiting threads; a thread holding
        a connection ends with it."""
        super().server_close()
        with self._lock:
            self._closed = True
            idle, self._idle = self._idle, []
        for mailbox, _ in idle:
            mailbox.put(None)
        for _, thread in idle:
            thread.join()


def build_server(
    state: ServiceState, host: str = "127.0.0.1", port: int = 0
) -> HTTPServer:
    """A ready-to-serve HTTP server bound to ``host:port`` (0 = any).

    Each accepted connection goes to a waiting handler thread, named
    ``repro-api:<port>/<n>``, instead of a thread of its own.  The first
    connection starts ``_READY_HANDLERS`` of them; a connection that
    finds none waiting starts one more, so a slow or keep-alive client
    holds up no other.  A thread serves one connection at a time, under
    the CPU set of the thread that accepted it, and waits for the next
    between them; it ends when ``_MAX_IDLE_HANDLERS`` others already
    wait.  They are daemon threads: ``server_close()`` ends the waiting
    ones, and a thread still serving a connection ends with it.
    """
    handler = type("ReproServiceHandler", (_Handler,), {"state": state})
    return _HandlerPoolServer((host, port), handler)


def serve_forever(
    daemon: CampaignDaemon,
    host: str = "127.0.0.1",
    port: int = 8323,
    interval_s: float | None = None,
    verbose: bool = True,
) -> None:
    """Run the query API, optionally with a background scan scheduler.

    ``interval_s`` enables the campaign scheduler on the wall clock;
    ``None`` serves the existing index only.  Blocks until interrupted.
    """
    import sys

    from repro.service.daemon import Scheduler, WallClock

    state = ServiceState(
        daemon.spool, daemon.indexer, telemetry=daemon.telemetry
    )
    server = build_server(state, host=host, port=port)
    stop = threading.Event()
    worker = None
    if interval_s is not None:
        scheduler = Scheduler(daemon, interval_s, clock=WallClock())
        worker = threading.Thread(
            target=scheduler.run,
            kwargs={"should_stop": stop.is_set, "verbose": verbose},
            daemon=True,
        )
        worker.start()
    if verbose:
        bound_host, bound_port = server.server_address[:2]
        print(
            f"service: listening on http://{bound_host}:{bound_port}/v1/ "
            + (
                f"(scan tick every {interval_s:g} s)"
                if interval_s is not None
                else "(serve-only: no scans scheduled)"
            ),
            file=sys.stderr,
        )
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        stop.set()
        server.server_close()
