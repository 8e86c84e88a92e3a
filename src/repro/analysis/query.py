"""Predicate-pushdown query planning over zone-mapped cbr artifacts.

The paper's analyses are repeated *filtered* aggregations — per
provider, per week, per failure kind — over artifacts that only grow
week by week.  This module turns those filters into a small
:class:`Predicate` AST that can answer two questions:

* :meth:`Predicate.select` — which rows of this decoded batch satisfy
  the filter?  (the *residual* filter; always exact, and read off the
  batch's columns, so no record is built to be rejected)
* :meth:`Predicate.prune` — does this chunk's footer zone map *prove*
  that no record inside can match?  (the pushdown; always conservative)

:func:`plan_chunks` consults the footer written by
:class:`repro.artifacts.cbr.CbrWriter` — per-chunk zone maps plus the
optional domain-hash secondary index — and returns exactly the chunk
ordinals worth inflating.  Because pruning only ever skips chunks the
zone maps prove empty of matches, and every surviving row still passes
through :meth:`select`, the pruned result is byte-identical to
brute-force "decode everything, then filter".

Zone-map semantics the planner relies on (see ``_zone_entry`` in the
cbr module): value sets are exact but capped (``null`` = unbounded,
never prune); the domain Bloom filter has no false negatives; ``w`` /
``t`` are min/max envelopes; a ``null`` envelope means the chunk holds
*no* week-labeled records / spin edges, so week/time predicates prune
it.  Week predicates never match records whose label is absent or
unparseable — identically in the zone and residual paths.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Sequence

from repro.artifacts.cbr import RecordBatch, bloom_might_contain, week_serial
from repro.telemetry import Telemetry
from repro.web.scanner import ConnectionRecord

__all__ = [
    "And",
    "Between",
    "Eq",
    "In",
    "Predicate",
    "Present",
    "QueryError",
    "QueryStats",
    "domain_lines",
    "filter_batch",
    "parse_where",
    "plan_chunks",
]


class QueryError(ValueError):
    """Raised for malformed ``--where`` expressions."""


#: field name -> (zone-map key, coercion); fields without a zone key are
#: residual-only (never prune, always filter at decode time).
_FIELDS = {
    "domain": "d",
    "provider": "p",
    "week": "w",
    "failure": "f",
    "behaviour": "b",
    "edges": "e",
    "t": "t",
    "status": None,
    "version": None,
    "success": None,
}

_ALIASES = {
    "behavior": "behaviour",
    "failure_kind": "failure",
    "quic_version": "version",
    "time": "t",
}

#: Fields with a totally ordered domain, eligible for ``between``.
_RANGE_FIELDS = frozenset({"week", "t", "edges", "status"})


def _canonical_field(name: str) -> str:
    name = _ALIASES.get(name, name)
    if name not in _FIELDS:
        raise QueryError(
            f"unknown query field {name!r}; expected one of "
            f"{', '.join(sorted(_FIELDS))}"
        )
    return name


def _scalar_field(name: str, operator: str) -> str:
    """``name`` canonicalized, for an operator that compares one scalar
    per record (``t`` is a record's whole series of edge times)."""
    name = _canonical_field(name)
    if name == "t":
        raise QueryError(f"field 't' does not support {operator!r}")
    return name


def _column(batch: RecordBatch, name: str) -> Sequence:
    """The scalar each row exposes for ``name`` (``None``: absent)."""
    if name == "domain":
        return batch.domains
    if name == "provider":
        return batch.providers
    if name == "week":
        return list(map(week_serial, batch.weeks))
    if name == "failure":
        return [None if kind is None else kind.value for kind in batch.failures]
    if name == "behaviour":
        return [behaviour.value for behaviour in batch.behaviours]
    if name == "edges":
        return list(map(len, batch.times_received))
    if name == "status":
        return batch.statuses
    if name == "version":
        return batch.versions
    if name == "success":
        return batch.successes
    raise AssertionError(name)  # pragma: no cover - guarded by _scalar_field


def _zone_excludes_values(zone: dict, name: str, values: Sequence) -> bool:
    """Whether the zone map proves none of ``values`` occur in the chunk."""
    if name == "domain":
        bloom = zone.get("d")
        return bool(bloom) and not any(
            bloom_might_contain(bloom, value) for value in values
        )
    if name == "week":
        if "w" not in zone:
            return False
        envelope = zone["w"]
        if envelope is None:  # chunk has no week-labeled records
            return True
        low, high = envelope
        return all(
            serial is None or serial < low or serial > high for serial in values
        )
    key = _FIELDS.get(name)
    if key is None or key not in zone:
        return False
    members = zone[key]
    if members is None:  # unbounded value set: cannot prune
        return False
    return all(value not in members for value in values)


class Predicate:
    """Base class: a filter that can both select rows and prune chunks."""

    def select(self, batch: RecordBatch, rows: Iterable[int]) -> list[int]:
        """Those of ``rows`` (row numbers of ``batch``) that match, in order."""
        raise NotImplementedError

    def prune(self, zone: dict) -> bool:
        """``True`` only when ``zone`` proves no record can match."""
        raise NotImplementedError

    @property
    def needs_edges_received(self) -> bool:
        """Whether selecting reads edge objects of built records: never —
        ``edges`` and ``t`` read the ``times_received`` column, which
        every decode carries."""
        return False

    def point_domains(self) -> frozenset[str] | None:
        """The finite domain-name set this filter restricts to, if any.

        ``None`` means "unrestricted"; a set lets :func:`plan_chunks`
        consult the footer's secondary domain index.
        """
        return None


@dataclass(frozen=True)
class Eq(Predicate):
    """``field == value``."""

    name: str
    value: object

    def __post_init__(self) -> None:
        object.__setattr__(self, "name", _canonical_field(self.name))

    def select(self, batch: RecordBatch, rows: Iterable[int]) -> list[int]:
        value = self.value
        if self.name == "t":
            times = batch.times_received
            return [row for row in rows if any(t == value for t in times[row])]
        if self.name == "week":
            value = week_serial(value)  # type: ignore[arg-type]
            if value is None:
                return []
        column = _column(batch, self.name)
        return [row for row in rows if column[row] == value]

    def prune(self, zone: dict) -> bool:
        if self.name == "t":
            return _t_range_prunes(zone, self.value, self.value)
        if self.name == "week":
            return _zone_excludes_values(zone, "week", [week_serial(self.value)])
        return _zone_excludes_values(zone, self.name, [self.value])

    def point_domains(self) -> frozenset[str] | None:
        if self.name == "domain":
            return frozenset({self.value})
        return None


@dataclass(frozen=True)
class In(Predicate):
    """``field in {v1, v2, ...}``."""

    name: str
    values: frozenset

    def __init__(self, name: str, values) -> None:
        object.__setattr__(self, "name", _scalar_field(name, "in"))
        object.__setattr__(self, "values", frozenset(values))

    def select(self, batch: RecordBatch, rows: Iterable[int]) -> list[int]:
        values = self.values
        if self.name == "week":
            values = {week_serial(v) for v in values} - {None}
        column = _column(batch, self.name)
        return [row for row in rows if column[row] in values]

    def prune(self, zone: dict) -> bool:
        if self.name == "week":
            values = [week_serial(v) for v in self.values]
        else:
            values = list(self.values)
        return _zone_excludes_values(zone, self.name, values)

    def point_domains(self) -> frozenset[str] | None:
        if self.name == "domain":
            return frozenset(self.values)
        return None


def _t_range_prunes(zone: dict, low: float, high: float) -> bool:
    if "t" not in zone:
        return False
    envelope = zone["t"]
    if envelope is None:  # chunk has no spin edges at all
        return True
    return high < envelope[0] or low > envelope[1]


@dataclass(frozen=True)
class Between(Predicate):
    """``low <= field <= high`` (inclusive both ends)."""

    name: str
    low: object
    high: object

    def __post_init__(self) -> None:
        object.__setattr__(self, "name", _canonical_field(self.name))
        if self.name not in _RANGE_FIELDS:
            raise QueryError(f"field {self.name!r} does not support 'between'")

    def _bounds(self) -> tuple:
        if self.name == "week":
            return week_serial(self.low), week_serial(self.high)
        return self.low, self.high

    def select(self, batch: RecordBatch, rows: Iterable[int]) -> list[int]:
        low, high = self._bounds()
        if low is None or high is None:  # unparseable week bound
            return []
        if self.name == "t":
            times = batch.times_received
            return [row for row in rows if any(low <= t <= high for t in times[row])]
        column = _column(batch, self.name)
        return [
            row for row in rows
            if column[row] is not None and low <= column[row] <= high
        ]

    def prune(self, zone: dict) -> bool:
        low, high = self._bounds()
        if low is None or high is None:
            return True  # matches() is constant-False; every chunk prunes
        if self.name == "t":
            return _t_range_prunes(zone, low, high)
        if self.name == "week":
            if "w" not in zone:
                return False
            envelope = zone["w"]
            if envelope is None:
                return True
            return high < envelope[0] or low > envelope[1]
        if self.name == "edges":
            members = zone.get("e") if "e" in zone else None
            if members is None:
                return False
            return all(not low <= value <= high for value in members)
        return False  # status: residual-only


@dataclass(frozen=True)
class Present(Predicate):
    """``field present`` — the optional field carries a value."""

    name: str

    def __post_init__(self) -> None:
        object.__setattr__(self, "name", _scalar_field(self.name, "present"))

    def select(self, batch: RecordBatch, rows: Iterable[int]) -> list[int]:
        column = _column(batch, self.name)
        return [row for row in rows if column[row] is not None]

    def prune(self, zone: dict) -> bool:
        if self.name == "failure":
            return "f" in zone and not zone["f"]
        if self.name == "week":
            return "w" in zone and zone["w"] is None
        return False


@dataclass(frozen=True)
class And(Predicate):
    """Conjunction: every clause must hold."""

    clauses: tuple = field(default_factory=tuple)

    def __init__(self, clauses) -> None:
        object.__setattr__(self, "clauses", tuple(clauses))
        if not self.clauses:
            raise QueryError("empty conjunction")

    def select(self, batch: RecordBatch, rows: Iterable[int]) -> list[int]:
        for clause in self.clauses:
            rows = clause.select(batch, rows)
        return list(rows)

    def prune(self, zone: dict) -> bool:
        # One clause proving emptiness is enough for the conjunction.
        return any(clause.prune(zone) for clause in self.clauses)

    def point_domains(self) -> frozenset[str] | None:
        restricted = [
            names for names in (c.point_domains() for c in self.clauses)
            if names is not None
        ]
        if not restricted:
            return None
        result = restricted[0]
        for names in restricted[1:]:
            result &= names
        return result


# ----------------------------------------------------------------------
# ``--where`` expression parsing.
# ----------------------------------------------------------------------

def _coerce(name: str, token: str):
    """Parse one literal for ``name``; raises :class:`QueryError`."""
    try:
        if name in ("edges", "status"):
            return int(token)
        if name == "t":
            return float(token)
    except ValueError as exc:
        raise QueryError(f"{name!r} needs a numeric value, got {token!r}") from exc
    if name == "success":
        lowered = token.lower()
        if lowered in ("true", "1", "yes"):
            return True
        if lowered in ("false", "0", "no"):
            return False
        raise QueryError(f"'success' needs true/false, got {token!r}")
    if name == "week" and week_serial(token) is None:
        raise QueryError(f"{token!r} is not a week label (expected 'cwWW-YYYY')")
    return token


def parse_where(text: str) -> Predicate:
    """Parse a ``--where`` expression into a :class:`Predicate`.

    Grammar (whitespace-separated; clauses joined by ``and``)::

        clause := FIELD ('==' | '=') VALUE
                | FIELD 'in' VALUE[,VALUE...]
                | FIELD 'between' LOW ['and'] HIGH
                | FIELD 'present'

    Examples: ``provider == cloudflare``, ``week between cw20-2023 and
    cw25-2023 and failure present``, ``domain in a.example,b.example``.
    """
    tokens = text.split()
    if not tokens:
        raise QueryError("empty --where expression")
    clauses: list[Predicate] = []
    pos = 0
    while pos < len(tokens):
        name = _canonical_field(tokens[pos])
        if pos + 1 >= len(tokens):
            raise QueryError(f"dangling field {tokens[pos]!r}")
        op = tokens[pos + 1].lower()
        pos += 2
        if op in ("==", "="):
            if pos >= len(tokens):
                raise QueryError(f"missing value after '{name} =='")
            clauses.append(Eq(name, _coerce(name, tokens[pos])))
            pos += 1
        elif op == "in":
            raw: list[str] = []
            while pos < len(tokens) and tokens[pos].lower() != "and":
                raw.append(tokens[pos])
                pos += 1
            values = [v for v in "".join(raw).split(",") if v]
            if not values:
                raise QueryError(f"missing value list after '{name} in'")
            clauses.append(In(name, [_coerce(name, v) for v in values]))
        elif op == "between":
            if pos >= len(tokens):
                raise QueryError(f"missing bounds after '{name} between'")
            low = tokens[pos]
            pos += 1
            if pos < len(tokens) and tokens[pos].lower() == "and":
                pos += 1
            if pos >= len(tokens):
                raise QueryError(f"missing upper bound after '{name} between'")
            high = tokens[pos]
            pos += 1
            clauses.append(Between(name, _coerce(name, low), _coerce(name, high)))
        elif op == "present":
            clauses.append(Present(name))
        else:
            raise QueryError(
                f"unknown operator {op!r} (expected ==, in, between, present)"
            )
        if pos < len(tokens):
            if tokens[pos].lower() != "and":
                raise QueryError(
                    f"expected 'and' between clauses, got {tokens[pos]!r}"
                )
            pos += 1
            if pos >= len(tokens):
                raise QueryError("dangling 'and'")
    if len(clauses) == 1:
        return clauses[0]
    return And(clauses)


# ----------------------------------------------------------------------
# Planning and execution support.
# ----------------------------------------------------------------------

@dataclass
class QueryStats:
    """Planner/scan counters; the observable face of pruning."""

    chunks_total: int = 0
    chunks_selected: int = 0
    records_scanned: int = 0
    records_matched: int = 0
    #: Reads that had to scan sequentially because the footer was unreadable.
    footer_fallbacks: int = 0

    @property
    def chunks_pruned(self) -> int:
        return self.chunks_total - self.chunks_selected

    def emit(self, telemetry) -> None:
        """Publish the counters through a ``repro.telemetry`` bundle."""
        registry = Telemetry.resolve(telemetry).registry
        registry.counter("query.chunks_total").inc(self.chunks_total)
        registry.counter("query.chunks_pruned").inc(self.chunks_pruned)
        registry.counter("query.records_scanned").inc(self.records_scanned)
        if self.footer_fallbacks:  # a series only damaged artifacts create
            registry.counter("query.footer_fallbacks").inc(self.footer_fallbacks)


def plan_chunks(
    footer: dict,
    predicate: Predicate | None,
    domain_lookup: Callable[[str], list[int] | None] | None = None,
) -> tuple[list[int], int]:
    """Select the chunk ordinals worth decoding for ``predicate``.

    Returns ``(ordinals, chunks_total)``.  ``domain_lookup`` resolves a
    domain name against the file's binary secondary index
    (:meth:`repro.artifacts.cbr.CbrIndexedReader.domain_index_lookup`);
    it returns candidate ordinals, ``[]`` for a definitive miss, or
    ``None`` when the file carries no usable index — in which case the
    planner falls back to zone maps alone.  With no predicate, no zone
    maps (footer schema 1), or an unindexable predicate the plan is the
    full scan — pruning degrades to correct, never to wrong.  Ordinals
    come back sorted, so execution reads the file front to back.
    """
    total = len(footer.get("chunks") or ())
    ordinals: list[int] = list(range(total))
    if predicate is None or total == 0:
        return ordinals, total
    domains = predicate.point_domains()
    if domains is not None and domain_lookup is not None:
        candidates: set[int] | None = set()
        for name in domains:
            hits = domain_lookup(name)
            if hits is None:
                candidates = None  # no usable index: zone maps only
                break
            candidates.update(hits)
        if candidates is not None:
            ordinals = sorted(o for o in candidates if 0 <= o < total)
    zones = footer.get("zones")
    if zones:
        ordinals = [
            o
            for o in ordinals
            if o >= len(zones) or zones[o] is None or not predicate.prune(zones[o])
        ]
    return ordinals, total


def filter_batch(
    batch: RecordBatch | Sequence[ConnectionRecord],
    predicate: Predicate | None,
    stats: QueryStats | None = None,
) -> RecordBatch:
    """Apply the residual filter to one decoded batch.

    The result is the batch of the matching rows; only they are ever
    built into records (a point lookup builds one, not the chunk).
    """
    batch = RecordBatch.coerce(batch)
    if stats is not None:
        stats.records_scanned += len(batch)
    if predicate is None:
        matched = batch
    else:
        matched = batch.take(predicate.select(batch, range(len(batch))))
    if stats is not None:
        stats.records_matched += len(matched)
    return matched


def domain_lines(path: str, name: str, stats: QueryStats) -> Iterator[str]:
    """Point lookup: the records of domain ``name`` in the artifact at
    ``path``, as the lines :func:`~repro.analysis.artifacts.export_records`
    writes for them — a slice of the Appendix B export."""
    from repro.analysis.artifacts import record_to_dict
    from repro.artifacts import open_query_source

    predicate = Eq("domain", name)
    with open_query_source(path, predicate, stats=stats) as source:
        for batch in source.batches():
            for record in filter_batch(batch, predicate, stats):
                yield json.dumps(  # jsonl-ok: the JSONL codec, one line per match
                    record_to_dict(record), separators=(",", ":")
                )
