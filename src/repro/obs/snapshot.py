"""The one snapshot ``repro status`` reads, from a URL or a directory.

A snapshot is the ``{counters, gauges, histograms}`` map a registry
exports, plus the trace rows, from a running ``repro service serve``
(``/v1/metrics``, which carries the directory's gauges, and
``/v1/spans``) or from a directory: a telemetry directory, or a service
directory's ``telemetry/`` plus the gauges of its spool and index, read
without creating anything.  Both are outside input: a snapshot not of
the registry's shape is a one-line ``ValueError``, a row that is not one
is counted and skipped.  Only this module opens a URL or reads
``metrics.json`` (the lint's ``one_snapshot_source``).
"""

from __future__ import annotations

import json
import urllib.error
import urllib.request
from pathlib import Path

from repro.service.indexer import WeekIndexer
from repro.service.spool import SpoolStore
from repro.telemetry.export import (
    SNAPSHOT_FILENAME,
    TRACE_FILENAME,
    checked_rows,
    read_trace,
)

from .slo import with_service_gauges

__all__ = ["fetch_json", "load_snapshot"]

#: What a histogram series with observations carries (``count`` alone
#: when it has none).
_SUMMARY = ("count", "mean_ms", "p50_ms", "p90_ms", "p99_ms")


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


def load_snapshot(
    url: str | None = None, directory: str | None = None
) -> tuple[dict, list[dict] | None, int]:
    """``(snapshot, trace rows, rows skipped)`` from ``url`` or ``directory``;
    the rows are ``None`` when the directory holds no trace file."""
    if url:
        base = url.rstrip("/")
        metrics = fetch_json(base + "/v1/metrics")
        spans = fetch_json(base + "/v1/spans")
        metrics = metrics.get("metrics") if isinstance(metrics, dict) else metrics
        rows = spans.get("spans") if isinstance(spans, dict) else None
        rows, skipped = checked_rows(rows if isinstance(rows, list) else [])
        return _checked(metrics, base + "/v1/metrics"), rows, skipped
    root = Path(directory)
    if not root.is_dir():
        raise ValueError(f"no service directory at {directory}")
    service = not (root / SNAPSHOT_FILENAME).is_file()
    telemetry = root / "telemetry" if service else root
    snapshot = {"counters": {}, "gauges": {}, "histograms": {}}
    path, trace = telemetry / SNAPSHOT_FILENAME, telemetry / TRACE_FILENAME
    if path.is_file():
        try:
            loaded = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, UnicodeDecodeError, json.JSONDecodeError) as error:
            raise ValueError(f"cannot read {path}: {error}") from error
        snapshot = _checked(loaded, path)
    rows, skipped = None, 0
    if trace.is_file():
        with open(trace, encoding="utf-8", errors="replace") as stream:
            rows, skipped = read_trace(stream)
    if service:
        # A store's constructor creates its directory; a read creates none.
        spool, index = root / "spool", root / "index"
        snapshot = with_service_gauges(
            snapshot,
            SpoolStore(spool) if (spool / "artifacts").is_dir() else None,
            WeekIndexer(index) if index.is_dir() else None,
        )
    return snapshot, rows, skipped


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _is_summary(value) -> bool:
    return isinstance(value, dict) and (
        value.get("count") == 0 or all(_is_number(value.get(key)) for key in _SUMMARY)
    )


def _checked(loaded, source) -> dict:
    """``loaded`` as a snapshot, every section present, or ``ValueError``."""
    if not isinstance(loaded, dict):
        raise ValueError(f"malformed snapshot {source}: not a JSON object")
    snapshot = {}
    for section, valid, kind in (
        ("counters", _is_number, "a number"),
        ("gauges", _is_number, "a number"),
        ("histograms", _is_summary, "a summary with " + ", ".join(_SUMMARY)),
    ):
        table = snapshot[section] = loaded.get(section, {})
        if not isinstance(table, dict):
            raise ValueError(f"malformed snapshot {source}: {section} is not an object")
        for series_id, value in table.items():
            if not valid(value):
                raise ValueError(
                    f"malformed snapshot {source}: {section} series {series_id!r}"
                    f" is not {kind}"
                )
    return snapshot
