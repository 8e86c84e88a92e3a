"""`repro top`: a one-shot text console over a running `repro serve`.

Deliberately not a curses loop: one fetch, one render, exit.  That
keeps it scriptable (watch(1) gives you the refresh loop for free),
testable (``render_console`` is a pure function of the four payloads),
and honest about what it is — a view over ``/v1/*``, with zero state
of its own.
"""

from __future__ import annotations

import json
import urllib.error
import urllib.request

from repro.telemetry import stage_latency_table

from .slo import HealthReport, SLOResult, SLOSpec

__all__ = ["fetch_json", "health_from_payload", "render_console"]


def fetch_json(url: str, timeout: float = 5.0):
    """GET ``url`` and decode the JSON body.

    Raises ``ConnectionError`` with a one-line message on any transport
    or decode failure; the CLI maps it to the ``repro: error:`` form.
    """
    try:
        with urllib.request.urlopen(url, timeout=timeout) as response:
            body = response.read()
    except (urllib.error.URLError, OSError) as exc:
        raise ConnectionError(f"cannot reach {url}: {exc}") from exc
    try:
        return json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ConnectionError(f"bad JSON from {url}: {exc}") from exc


def health_from_payload(payload: dict) -> HealthReport:
    """Rehydrate a HealthReport from the ``/v1/status`` wire shape."""
    results = []
    for row in payload.get("slos", []):
        spec = SLOSpec(
            name=row.get("name", "?"),
            kind=row.get("kind", "max_value"),
            metric=row.get("metric", "?"),
            objective=float(row.get("objective", 0.0)),
            description=row.get("description", ""),
        )
        results.append(
            SLOResult(
                spec,
                row.get("verdict", "no_data"),
                row.get("actual"),
                row.get("burn"),
            )
        )
    return HealthReport(payload.get("overall", "no_data"), tuple(results))


def render_console(
    healthz: dict, status: dict, metrics: dict, spans_payload: dict
) -> str:
    """Render the operator console from the four API payloads."""
    # /v1/metrics wraps the snapshot as {"metrics": {...}}; accept both
    # the wire shape and a bare snapshot.
    metrics = metrics.get("metrics", metrics)
    lines = ["repro service console"]

    weeks = healthz.get("weeks_indexed", healthz.get("weeks"))
    if isinstance(weeks, (list, tuple)):
        weeks = len(weeks)
    artifacts = healthz.get("artifacts_indexed", healthz.get("artifacts"))
    progress = []
    if weeks is not None:
        progress.append(f"weeks indexed: {weeks}")
    if artifacts is not None:
        progress.append(f"artifacts: {artifacts}")
    gauges = metrics.get("gauges", {})
    if "service.pending_weeks" in gauges:
        progress.append(f"pending weeks: {gauges['service.pending_weeks']:g}")
    if "service.spool_backlog" in gauges:
        progress.append(f"spool backlog: {gauges['service.spool_backlog']:g}")
    if progress:
        lines.append("campaign: " + " | ".join(progress))

    rows = spans_payload.get("spans", [])
    timed = [e for e in stage_latency_table(rows) if "p50_ms" in e]
    if timed:
        lines.append("per-stage latency (simulated ms):")
        for entry in timed:
            lines.append(
                f"  {entry['stage']:16s} count={entry['count']:<6d}"
                f" p50={entry['p50_ms']:g} p90={entry['p90_ms']:g}"
                f" p99={entry['p99_ms']:g}"
            )

    histograms = metrics.get("histograms", {})
    api_hist = histograms.get("api.request_ms")
    if api_hist and api_hist.get("count"):
        lines.append(
            f"api latency: count={api_hist['count']}"
            f" p50={api_hist.get('p50_ms', 0):g}ms"
            f" p99={api_hist.get('p99_ms', 0):g}ms"
        )

    lines.append(health_from_payload(status).render())
    return "\n".join(lines)
