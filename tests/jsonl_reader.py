"""A reader for the Appendix B JSONL export: the export's round-trip oracle.

``repro`` reads only cbr artifacts; JSON lines are a write-only export
(:func:`repro.analysis.artifacts.export_records`, ``repro convert
X.cbr X.jsonl``).  This inverse of :func:`record_to_dict` lives with the
tests so they can prove the export drops nothing: a record written and
read back here is the record that went in.
"""

from __future__ import annotations

import ipaddress
import json
from typing import IO, Iterator

from repro.core.classify import SpinBehaviour
from repro.core.observer import SpinEdge, SpinObservation
from repro.faults.taxonomy import FailureKind
from repro.internet.asdb import IpAddr
from repro.web.scanner import ConnectionRecord

_SCHEMA_VERSION = 1


class ArtifactFormatError(ValueError):
    """Raised when a dataset line does not match the schema."""


def _edge_from_json(entry: list) -> SpinEdge:
    time_ms, packet_number, value = entry
    return SpinEdge(
        time_ms=float(time_ms),
        packet_number=int(packet_number),
        new_value=bool(value),
    )


def record_from_dict(data: dict) -> ConnectionRecord:
    """Inverse of :func:`repro.analysis.artifacts.record_to_dict`."""
    if data.get("schema") != _SCHEMA_VERSION:
        raise ArtifactFormatError(
            f"unsupported schema {data.get('schema')!r}; expected {_SCHEMA_VERSION}"
        )
    try:
        observation = SpinObservation(
            packets_seen=int(data["packets_seen"]),
            values_seen={bool(v) for v in data["values_seen"]},
            edges_received=[_edge_from_json(e) for e in data["edges_received"]],
            edges_sorted=[_edge_from_json(e) for e in data["edges_sorted"]],
            rtts_received_ms=[float(v) for v in data["rtts_received_ms"]],
            rtts_sorted_ms=[float(v) for v in data["rtts_sorted_ms"]],
        )
        address = ipaddress.ip_address(data["ip"])
        return ConnectionRecord(
            domain=data["domain"],
            host=data["host"],
            ip=IpAddr(value=int(address), version=address.version),
            ip_version=int(data["ip_version"]),
            provider_name=data["provider"],
            server_header=data["server_header"],
            status=data["status"],
            success=bool(data["success"]),
            behaviour=SpinBehaviour(data["behaviour"]),
            observation=observation,
            stack_rtts_ms=[float(v) for v in data["stack_rtts_ms"]],
            negotiated_version=data.get("quic_version"),
            failure=(
                FailureKind(data["failure"]) if data.get("failure") else None
            ),
            week=data.get("week"),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ArtifactFormatError(f"malformed artifact record: {exc}") from exc


def read_records(stream: IO[str]) -> Iterator[ConnectionRecord]:
    """Lazily parse a JSONL dataset stream."""
    for line_number, line in enumerate(stream, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            data = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ArtifactFormatError(
                f"line {line_number}: not valid JSON: {exc}"
            ) from exc
        yield record_from_dict(data)


def load_records(stream: IO[str]) -> list[ConnectionRecord]:
    """Eagerly load a JSONL dataset stream."""
    return list(read_records(stream))
