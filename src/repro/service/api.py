"""HTTP/JSON query API over the week index — the service's front door.

A stdlib :class:`http.server.ThreadingHTTPServer` serving millisecond
answers from the indexer's summary files.  A summary request does
answer-sized work: it reads the ledger (the index *version*), looks its
week up in :class:`ServiceState`'s cache and writes the encoded body it
finds there.  Parsing, merging the all-weeks view and rendering happen
once per change of a week file's *content*, never per request, and no
request decodes an artifact chunk.  The one deliberately cold endpoint
is ``/v1/domain/<name>``, which runs an index-backed point lookup
against the spooled ``cbr`` artifacts that can hold the name — its
chunk decodes are *counted* in the telemetry registry
(``query.chunks_total`` …), which is how the benchmark asserts the
summary endpoints decode zero chunks.

Endpoints (all JSON unless noted)::

    GET  /v1/healthz                     liveness + index version info
    GET  /v1/weeks                       indexed week labels
    GET  /v1/adoption?week=cw20-2023     domain/connection adoption counters
    GET  /v1/compliance?week=...         behaviour-class distribution
    GET  /v1/analyze?week=...&section=   the repro-analyze text block
    GET  /v1/domain/<name>               the domain's records (JSONL body)
    GET  /v1/metrics                     telemetry registry snapshot
    GET  /v1/status                      SLO health report (repro.obs.slo)
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
import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, unquote, urlparse

from repro.analysis.engine import RECORD_SECTIONS
from repro.obs.slo import (
    HealthEngine,
    HealthReport,
    collect_service_gauges,
    default_service_slos,
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
    """One week file as last read: content digest, parse, encoded answers."""

    __slots__ = ("digest", "summary", "bodies", "checked")

    def __init__(self) -> None:
        self.digest = None  # sha256 of week-<label>.json; for "all", {label: digest}
        self.summary: WeekSummary | None = None
        self.bodies: dict = {}  # (route, section) -> response body
        self.checked = False  # digest compared under the current version


class ServiceState:
    """Shared, cached view of one service directory.

    Every request reads the ledger — the index *version* — which is the
    whole per-request filesystem footprint of the summary endpoints and
    what makes a fold by the daemon or an external ``repro service
    index`` visible on the next request.  A new version re-lists the
    weeks and marks every cached week unchecked; the first request for a
    week under that version compares its file's digest and re-parses
    only if the bytes differ (a fold rewrites one or two week files, the
    others keep their parse and their encoded bodies).  Content, not
    mtime: a rewrite within the timestamp granularity, or one that puts
    the same bytes back, is judged by what it wrote.  Labels the index
    does not list get a 404 without touching the disk or the cache, so
    the cache holds at most one entry per indexed week.
    """

    def __init__(
        self,
        spool: SpoolStore,
        indexer: WeekIndexer,
        telemetry=None,
        health_engine: HealthEngine | None = None,
    ) -> None:
        self.spool = spool
        self.indexer = indexer
        #: What ``/v1/metrics``, ``/v1/status`` and ``/v1/spans`` serve
        #: back; ``None`` is off like anywhere else — requests go
        #: uncounted and the three answer empty (``repro service serve``
        #: always hands its daemon and its state one live bundle).
        self.telemetry = Telemetry.resolve(telemetry)
        self.health_engine = health_engine or HealthEngine(
            default_service_slos()
        )
        self._lock = threading.Lock()
        self._version: bytes | None = None
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
            skip = ledger_artifacts(self._version)
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
        return self.telemetry.registry.snapshot()

    def health_report(self) -> HealthReport:
        """Evaluate the configured SLOs over the current telemetry.

        The snapshot is the exported registry augmented with the
        directory-derived service gauges, so the report is meaningful
        even before the daemon's first tick set any gauges — and it is
        computed purely from telemetry, never by re-scanning.
        """
        snapshot = self.metrics_snapshot()
        snapshot["gauges"].update(collect_service_gauges(self.spool, self.indexer))
        return self.health_engine.evaluate(snapshot)

    def spans_payload(self) -> dict:
        """The campaign trace in export shape (`/v1/spans`)."""
        tracer = self.telemetry.tracer
        return {
            "trace": tracer.trace_id,
            "spans": trace_rows(tracer.records, tracer.trace_id),
            "diag": trace_rows(tracer.diag_records, tracer.trace_id),
        }

    def _refresh_locked(self) -> None:
        version = self.indexer.version()
        if version == self._version:
            return
        # The ledger is read before the directory and the week files, so
        # whatever a fold wrote before this version is seen under it.
        cached = self._weeks
        self._weeks = {
            week: cached.get(week) or _CachedWeek() for week in self.indexer.weeks()
        }
        for entry in self._weeks.values():
            entry.checked = False
        self._all.checked = False
        self._weeks_body = _encode({"weeks": list(self._weeks)})
        self._version = version

    def _week_locked(self, week: str) -> _CachedWeek | None:
        entry = self._weeks.get(week)
        if entry is None or entry.checked:
            return entry
        data = self.indexer.week_bytes(week)
        if data is None:
            return None
        digest = hashlib.sha256(data).digest()
        if digest != entry.digest:
            # Parsed before anything is assigned: a file that does not
            # parse leaves the entry as it was (unchecked, so the next
            # request reads the file again) and caches nothing.
            try:
                summary = WeekSummary.from_json(data)
            except (ValueError, KeyError, TypeError, AttributeError) as error:
                self.counter("service.weeks_unreadable")
                raise WeekUnreadable(
                    f"week {week!r} is unreadable: {type(error).__name__}: {error}"
                ) from error
            entry.digest, entry.summary, entry.bodies = digest, summary, {}
        entry.checked = True
        return entry

    def _all_locked(self) -> _CachedWeek:
        """The merged view: the weeks it lacks are merged in (counters add
        in any order); a week it holds rewritten or gone starts it anew."""
        entry = self._all
        if not entry.checked:
            checked = {label: self._week_locked(label) for label in self._weeks}
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


class _Handler(BaseHTTPRequestHandler):
    """Routes /v1/* onto the shared :class:`ServiceState`."""

    #: Set by :func:`build_server` on the subclass.
    state: ServiceState = None  # type: ignore[assignment]
    server_version = "repro-service/1"
    protocol_version = "HTTP/1.1"

    # -- plumbing ------------------------------------------------------

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        pass  # requests are counted in telemetry, not printed

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
            f"Date: {self.date_time_string()}",
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
        url = urlparse(self.path)
        route = url.path.rstrip("/") or "/"
        query = parse_qs(url.query) if url.query else {}
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
            self._send_error_json(f"unknown endpoint {url.path}", status=404)
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


def build_server(
    state: ServiceState, host: str = "127.0.0.1", port: int = 0
) -> ThreadingHTTPServer:
    """A ready-to-serve HTTP server bound to ``host:port`` (0 = any)."""
    handler = type("ReproServiceHandler", (_Handler,), {"state": state})
    server = ThreadingHTTPServer((host, port), handler)
    server.daemon_threads = True
    return server


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
