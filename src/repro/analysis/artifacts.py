"""Artifact dataset export (paper Appendix B).

The authors release, per connection, the extracted raw spin-bit
information together with qlog baseline data so that future work (e.g.
RTT filtering research, Section 5.2) can re-run analyses without
repeating the measurement.  This module writes that interface: every
:class:`~repro.web.scanner.ConnectionRecord` serializes to one JSON
line.  It is an export only — ``repro convert X.cbr X.jsonl`` — and
``repro query domain`` / ``GET /v1/domain`` print the same lines; the
stored dataset every analysis reads is the ``cbr`` artifact
(:mod:`repro.artifacts`).

Schema (one JSON object per line, ``schema = 1``)::

    {
      "schema": 1,
      "domain": "...", "host": "www....", "ip": "185.185.0.16",
      "ip_version": 4, "provider": "hostinger",
      "server_header": "LiteSpeed", "status": 200, "success": true,
      "behaviour": "spin",
      "values_seen": [0, 1],
      "packets_seen": 38,
      "edges_received": [[t_ms, pn, value], ...],
      "edges_sorted":   [[t_ms, pn, value], ...],
      "rtts_received_ms": [...], "rtts_sorted_ms": [...],
      "stack_rtts_ms": [...]
    }
"""

from __future__ import annotations

import json
from typing import IO, Iterable

from repro.core.observer import SpinEdge
from repro.web.scanner import ConnectionRecord

__all__ = ["export_records", "record_to_dict"]

_SCHEMA_VERSION = 1


def _edge_to_json(edge: SpinEdge) -> list:
    return [edge.time_ms, edge.packet_number, int(edge.new_value)]


def record_to_dict(record: ConnectionRecord) -> dict:
    """One connection record as a JSON-serializable dict."""
    observation = record.observation
    data = {
        "schema": _SCHEMA_VERSION,
        "domain": record.domain,
        "host": record.host,
        "ip": str(record.ip),
        "ip_version": record.ip_version,
        "provider": record.provider_name,
        "server_header": record.server_header,
        "status": record.status,
        "success": record.success,
        "behaviour": record.behaviour.value,
        "values_seen": sorted(int(v) for v in observation.values_seen),
        "packets_seen": observation.packets_seen,
        "edges_received": [_edge_to_json(e) for e in observation.edges_received],
        "edges_sorted": [_edge_to_json(e) for e in observation.edges_sorted],
        "rtts_received_ms": observation.rtts_received_ms,
        "rtts_sorted_ms": observation.rtts_sorted_ms,
        "stack_rtts_ms": record.stack_rtts_ms,
        "quic_version": record.negotiated_version,
    }
    if record.failure is not None:
        # Only present on classified failures: legacy datasets (and
        # scans without faults/resilience) keep byte-identical lines.
        data["failure"] = record.failure.value
    if record.week is not None:
        # Same optionality contract as ``failure``: week-less records
        # (hand-built, pre-week datasets) emit the legacy line.
        data["week"] = record.week
    return data


def export_records(records: Iterable[ConnectionRecord], stream: IO[str]) -> int:
    """Write records as JSON lines; returns the number written."""
    count = 0
    for record in records:
        json.dump(record_to_dict(record), stream, separators=(",", ":"))  # jsonl-ok
        stream.write("\n")
        count += 1
    return count

