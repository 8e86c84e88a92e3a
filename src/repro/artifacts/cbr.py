"""The ``cbr`` columnar binary connection-record format.

JSONL artifacts (:mod:`repro.analysis.artifacts`) spend one
``json.loads`` and one fully materialized Python dict per record; at the
paper's scale (200 M+ domains per week) both the decode time and the
artifact bytes are dominated by repeated field names and decimal float
text.  ``cbr`` stores the same records column-wise in compressed chunks:

* **Chunked**: records are grouped into chunks (default 1024); each
  chunk is independently zlib-compressed and CRC-checked, so a torn
  write damages one chunk, not the artifact (the tolerant reader counts
  it and carries on, mirroring the qlog JSONL reader policy).
* **Columnar**: within a chunk every field is one column.  Strings
  (domain, provider, server header, behaviour, failure kind) are
  interned in a per-chunk string table; small integers are LEB128
  varints; booleans are bitsets; spin-edge packet numbers are
  zigzag-delta varints; all float series are raw little-endian doubles
  (bit-exact round trip by construction).
* **Derived-column elision**: a connection's RTT series is, for every
  record the scanner produces, exactly the pairwise difference of its
  edge times.  The encoder checks that identity per record and stores
  only a flag when it holds, re-deriving the series on decode.
* **Footer index**: a trailing frame lists every chunk's offset, size,
  record count, and kind, so indexed readers can seek; sequential
  readers (pipes) never need it because every frame is length-prefixed.
* **Zone maps** (footer schema 2): next to each chunk entry the footer
  carries a pruning digest of the chunk — min/max week serial and
  spin-edge time, small-domain value sets (provider, failure kind,
  behaviour, spin-edge count), and a seeded Bloom filter over the
  chunk's domains — so the query planner
  (:mod:`repro.analysis.query`) can prove "no record in this chunk can
  match" **without inflating the chunk**.  An optional secondary index
  (domain hash → chunk ordinals) makes point lookups O(matching
  chunks).  Schema-1 footers (pre-zone-map files) still read
  everywhere; they simply offer the planner nothing to prune with.

Decoding stays columnar: a chunk decodes into a :class:`RecordBatch` —
its columns, validated — that analysis reads directly; the
:class:`~repro.web.scanner.ConnectionRecord` objects of a batch are
built only for a caller that iterates it.

Two chunk kinds exist: ``KIND_RECORDS`` (plain connection records — the
Appendix-B artifact) and ``KIND_DOMAINS`` (checkpoint shards: the same
connection columns plus per-domain grouping columns and sampled qlog
blobs).  A records reader decodes the shared connection columns of
either kind and ignores the rest, which is what makes checkpoint shards
concatenable into an analyzable artifact **without re-decoding** a
single record (:func:`concat_frames`).

Layout::

    b"CBR1" u8=version
    frame*:
      0x01 chunk : u32 payload_len, u32 crc32, u32 n_records, u8 kind,
                   payload (zlib: kind, n, string table, columns)
      0x03 index : u32 payload_len, u32 crc32,
                   payload (sorted 9-byte rows: 5-byte domain hash,
                   u32be chunk ordinal) — optional, version 2
      0x02 footer: u32 payload_len, payload (zlib: JSON index),
                   u64 footer_frame_offset, b"CBRE"

The secondary domain index is a *binary* frame rather than footer JSON
on purpose: a large artifact indexes ~one row per (domain, chunk), and
parsing that as JSON would cost more than the chunk decodes a point
lookup saves.  The footer only records ``{"at": offset, "rows": n}``;
the rows load lazily (point lookups only) and answer by binary search
over the raw bytes — no per-row parsing at all.
"""

from __future__ import annotations

import hashlib
import json
import os
import struct
import zlib
from collections.abc import Iterable, Iterator, Sequence
from itertools import accumulate as _accumulate
from itertools import compress as _compress
from math import inf as _inf
from operator import sub as _operator_sub
from typing import IO

from repro.core.classify import SpinBehaviour
from repro.core.metrics import mean_accuracy
from repro.core.observer import SpinEdge, SpinObservation
from repro.faults.taxonomy import FailureKind
from repro.internet.asdb import IpAddr
from repro.web.scanner import ConnectionRecord

__all__ = [
    "CBR_MAGIC",
    "CbrFormatError",
    "CbrIndexedReader",
    "CbrReader",
    "CbrWriter",
    "DomainResultData",
    "FOOTER_SCHEMA",
    "KIND_DOMAINS",
    "KIND_RECORDS",
    "RecordBatch",
    "bloom_might_contain",
    "concat_frames",
    "domain_hash",
    "read_footer",
    "week_serial",
    "write_records_cbr",
]

CBR_MAGIC = b"CBR1"
_END_MAGIC = b"CBRE"
#: Container version written by this code.  Version 2 files may carry a
#: per-chunk week column (flagged per chunk) and a schema-2 footer with
#: zone maps; version-1 files read unchanged (no pruning possible).
_FORMAT_VERSION = 2
_SUPPORTED_VERSIONS = (1, 2)

#: Footer JSON schema written by this code.  Schema 2 adds ``zones``
#: (one pruning digest per chunk, ``null`` where unknown), ``bloom``
#: (filter parameters), and the optional ``domain_index`` section.
FOOTER_SCHEMA = 2

#: Chunk kinds: plain connection records vs. domain-grouped checkpoint
#: shards (connection columns + domain columns + qlog blobs).
KIND_RECORDS = 0
KIND_DOMAINS = 1

_FRAME_CHUNK = 0x01
_FRAME_FOOTER = 0x02
_FRAME_INDEX = 0x03

#: Chunk-payload flag bits (high nibble of the payload's kind byte).
#: The low nibble stays the chunk kind, so a flagged chunk still frames
#: identically; version-1 chunks simply have no flags set.
_CHUNK_FLAG_WEEK = 0x10
_CHUNK_KIND_MASK = 0x0F

_CHUNK_HEADER = struct.Struct("<IIIB")  # payload_len, crc32, n_records, kind
_FOOTER_HEADER = struct.Struct("<I")  # payload_len
_INDEX_HEADER = struct.Struct("<II")  # payload_len, crc32
_TRAILER = struct.Struct("<Q4s")  # footer frame offset, end magic

#: One secondary-index row: 5-byte domain hash + u32be chunk ordinal.
#: Big-endian ordinals keep byte order == (hash, ordinal) sort order.
_INDEX_ROW_SIZE = 9
_INDEX_HASH_SIZE = 5

_DEFAULT_CHUNK_RECORDS = 1024

_BEHAVIOURS = {member.value: member for member in SpinBehaviour}
_FAILURES = {member.value: member for member in FailureKind}


class CbrFormatError(ValueError):
    """Raised when a cbr stream violates the format (strict mode)."""


#: What a damaged (CRC-valid) chunk payload makes the column decode raise.
_COLUMN_DECODE_ERRORS = (CbrFormatError, KeyError, IndexError, ValueError, struct.error)


# ----------------------------------------------------------------------
# Primitive column codecs.
# ----------------------------------------------------------------------


def _write_uv(out: bytearray, value: int) -> None:
    """LEB128 unsigned varint."""
    while value > 0x7F:
        out.append((value & 0x7F) | 0x80)
        value >>= 7
    out.append(value)


def _read_uv(buf: bytes, pos: int) -> tuple[int, int]:
    b = buf[pos]
    pos += 1
    if b < 0x80:
        return b, pos
    result = b & 0x7F
    shift = 7
    while True:
        b = buf[pos]
        pos += 1
        result |= (b & 0x7F) << shift
        if b < 0x80:
            return result, pos
        shift += 7


def _read_uv_list(buf: bytes, pos: int, count: int) -> tuple[list[int], int]:
    values: list[int] = []
    append = values.append
    for _ in range(count):
        b = buf[pos]
        pos += 1
        if b < 0x80:
            append(b)
            continue
        result = b & 0x7F
        shift = 7
        while True:
            b = buf[pos]
            pos += 1
            result |= (b & 0x7F) << shift
            if b < 0x80:
                break
            shift += 7
        append(result)
    return values, pos


def _write_uv_column(out: bytearray, values: Sequence[int]) -> None:
    """An integer column with a one-byte width tag.

    The tag picks the narrowest representation for the column's maximum:
    raw bytes (0), little-endian u16 (1) or u32 (2) — all three decode
    as one bulk ``struct`` call — with LEB128 varints (3) as the
    arbitrary-precision fallback.  The count is implied by the schema
    (column lengths are known before the column is read).
    """
    maximum = max(values, default=0)
    if maximum < 1 << 8:
        out.append(0)
        out += bytes(values)
    elif maximum < 1 << 16:
        out.append(1)
        out += struct.pack(f"<{len(values)}H", *values)
    elif maximum < 1 << 32:
        out.append(2)
        out += struct.pack(f"<{len(values)}I", *values)
    else:
        out.append(3)
        for value in values:
            _write_uv(out, value)


def _read_uv_column(buf: bytes, pos: int, count: int) -> tuple[list[int], int]:
    tag = buf[pos]
    pos += 1
    if tag == 0:
        values = list(buf[pos : pos + count])
        if len(values) != count:
            raise CbrFormatError("truncated integer column")
        return values, pos + count
    if tag == 1:
        return list(struct.unpack_from(f"<{count}H", buf, pos)), pos + 2 * count
    if tag == 2:
        return list(struct.unpack_from(f"<{count}I", buf, pos)), pos + 4 * count
    if tag == 3:
        return _read_uv_list(buf, pos, count)
    raise CbrFormatError(f"unknown column width tag {tag}")


def _zigzag(value: int) -> int:
    return (value << 1) if value >= 0 else ((-value << 1) - 1)


def _unzigzag(value: int) -> int:
    return (value >> 1) if not value & 1 else -((value + 1) >> 1)


def _pack_bits(flags: Sequence[bool]) -> bytes:
    out = bytearray((len(flags) + 7) >> 3)
    for index, flag in enumerate(flags):
        if flag:
            out[index >> 3] |= 1 << (index & 7)
    return bytes(out)


#: LSB-first bool octets for every byte value: bit columns unpack by
#: table lookup (one Python iteration per *byte*, not per bit).
_BYTE_BITS = [
    tuple(byte >> bit & 1 == 1 for bit in range(8)) for byte in range(256)
]


def _read_bits(buf: bytes, pos: int, count: int) -> tuple[list[bool], int]:
    nbytes = (count + 7) >> 3
    table = _BYTE_BITS
    flags: list[bool] = []
    extend = flags.extend
    for byte in buf[pos : pos + nbytes]:
        extend(table[byte])
    del flags[count:]
    if len(flags) != count:
        raise CbrFormatError("truncated bit column")
    return flags, pos + nbytes


def _pack_doubles(values: Sequence[float]) -> bytes:
    return struct.pack(f"<{len(values)}d", *values)


def _read_doubles(buf: bytes, pos: int, count: int) -> tuple[tuple[float, ...], int]:
    end = pos + 8 * count
    return struct.unpack_from(f"<{count}d", buf, pos), end


# ----------------------------------------------------------------------
# Zone maps: per-chunk pruning digests serialized into the footer.
# ----------------------------------------------------------------------

#: Bloom sizing: ~10 bits and 4 seeded hash probes per distinct domain
#: give a ~1 % false-positive rate — a false positive only costs one
#: needlessly inflated chunk (the residual filter stays exact).
_BLOOM_BITS_PER_VALUE = 10
_BLOOM_HASHES = 4

#: Value sets wider than this stop pruning anything useful and bloat the
#: footer; the zone entry stores ``null`` ("unbounded") instead.
_ZONE_SET_CAP = 64

_week_serial_cache: dict[str, int | None] = {}


def week_serial(label: str | None) -> int | None:
    """Week label -> campaign serial (``None``: unlabeled/unparseable).

    Records whose label does not parse can never satisfy a week
    predicate, so both the zone map and the residual filter treat them
    exactly like week-less records.
    """
    if label is None:
        return None
    serial = _week_serial_cache.get(label, _week_serial_cache)
    if serial is _week_serial_cache:
        from repro.campaign.schedule import CalendarWeek

        try:
            serial = CalendarWeek.from_label(label).serial
        except (ValueError, TypeError):
            serial = None
        _week_serial_cache[label] = serial
    return serial


def _bloom_positions(value: str, m_bits: int) -> list[int]:
    """The seeded bit positions of ``value`` in an ``m_bits`` filter."""
    digest = hashlib.sha256(b"cbr-bloom\x00" + value.encode("utf-8")).digest()
    return [
        int.from_bytes(digest[8 * i : 8 * i + 8], "big") % m_bits
        for i in range(_BLOOM_HASHES)
    ]


def _bloom_build(values: set[str]) -> str:
    m_bits = max(64, len(values) * _BLOOM_BITS_PER_VALUE)
    m_bits = (m_bits + 7) & ~7
    bits = bytearray(m_bits >> 3)
    for value in values:
        for position in _bloom_positions(value, m_bits):
            bits[position >> 3] |= 1 << (position & 7)
    return bytes(bits).hex()


def bloom_might_contain(bloom_hex: str, value: str) -> bool:
    """Whether the serialized filter *may* contain ``value``.

    ``False`` is definitive (Bloom filters have no false negatives), so
    the planner may skip the chunk without decoding it.
    """
    bits = bytes.fromhex(bloom_hex)
    m_bits = len(bits) << 3
    return all(
        bits[position >> 3] >> (position & 7) & 1
        for position in _bloom_positions(value, m_bits)
    )


def _domain_hash_bytes(name: str) -> bytes:
    return hashlib.sha256(b"cbr-dhash\x00" + name.encode("utf-8")).digest()[
        :_INDEX_HASH_SIZE
    ]


def domain_hash(name: str) -> str:
    """Seeded 40-bit domain hash keying the secondary index (hex)."""
    return _domain_hash_bytes(name).hex()


def _index_rows_lookup(rows: bytes, key: bytes) -> list[int]:
    """Binary search the packed index rows for one 5-byte hash key."""
    count = len(rows) // _INDEX_ROW_SIZE
    low, high = 0, count
    while low < high:
        mid = (low + high) // 2
        start = mid * _INDEX_ROW_SIZE
        if rows[start : start + _INDEX_HASH_SIZE] < key:
            low = mid + 1
        else:
            high = mid
    ordinals: list[int] = []
    while low < count:
        start = low * _INDEX_ROW_SIZE
        if rows[start : start + _INDEX_HASH_SIZE] != key:
            break
        ordinals.append(
            int.from_bytes(rows[start + _INDEX_HASH_SIZE : start + _INDEX_ROW_SIZE], "big")
        )
        low += 1
    return ordinals


def _zone_value_set(values: set) -> list | None:
    """A sorted small-domain value set, or ``null`` when unbounded."""
    if len(values) > _ZONE_SET_CAP:
        return None
    return sorted(values)


def _zone_entry(records: Sequence[ConnectionRecord]) -> dict:
    """The pruning digest of one chunk (see ``repro.analysis.query``).

    Keys (all prunable dimensions are *conservative*: a chunk is skipped
    only when the digest proves no record can match):

    * ``w`` — ``[min, max]`` week serial over week-labeled records, or
      ``null`` when the chunk has none (week predicates then prune it);
    * ``t`` — ``[min, max]`` spin-edge time (ms) over received edges;
    * ``p`` / ``f`` / ``b`` / ``e`` — value sets for provider, failure
      kind, behaviour, and spin-edge count (``null`` = unbounded);
    * ``d`` — hex Bloom filter over the chunk's domain names.
    """
    weeks: list[int] = []
    for record in records:
        serial = week_serial(record.week)
        if serial is not None:
            weeks.append(serial)
    t_min = t_max = None
    for record in records:
        for edge in record.observation.edges_received:
            time_ms = edge.time_ms
            if t_min is None or time_ms < t_min:
                t_min = time_ms
            if t_max is None or time_ms > t_max:
                t_max = time_ms
    return {
        "w": [min(weeks), max(weeks)] if weeks else None,
        "t": None if t_min is None else [t_min, t_max],
        "p": _zone_value_set({r.provider_name for r in records}),
        "f": sorted({r.failure.value for r in records if r.failure is not None}),
        "b": sorted({r.behaviour.value for r in records}),
        "e": _zone_value_set(
            {len(r.observation.edges_received) for r in records}
        ),
        "d": _bloom_build({r.domain for r in records}),
    }


# ----------------------------------------------------------------------
# Chunk encoding.
# ----------------------------------------------------------------------


class _StringTable:
    """Per-chunk string interner; serialized in index order."""

    __slots__ = ("strings", "_index")

    def __init__(self) -> None:
        self.strings: list[str] = []
        self._index: dict[str, int] = {}

    def add(self, value: str) -> int:
        index = self._index.get(value)
        if index is None:
            index = len(self.strings)
            self._index[value] = index
            self.strings.append(value)
        return index

    def encode(self) -> bytes:
        out = bytearray()
        _write_uv(out, len(self.strings))
        for value in self.strings:
            raw = value.encode("utf-8")
            _write_uv(out, len(raw))
            out += raw
        return bytes(out)


def _encode_edge_columns(out: bytearray, edge_lists: list) -> None:
    """Counts, times (doubles), length-prefixed zigzag-delta packet
    numbers, values bitset — in that order, each column contiguous."""
    _write_uv_column(out, [len(edges) for edges in edge_lists])
    times = [edge.time_ms for edges in edge_lists for edge in edges]
    out += _pack_doubles(times)
    pns = bytearray()
    for edges in edge_lists:
        previous = 0
        for edge in edges:
            _write_uv(pns, _zigzag(edge.packet_number - previous))
            previous = edge.packet_number
    _write_uv(out, len(pns))
    out += pns
    out += _pack_bits([edge.new_value for edges in edge_lists for edge in edges])


def _rtts_from_times(times: Sequence[float]) -> list[float]:
    """Pairwise edge-time differences — the derived RTT series.

    Must mirror :func:`repro.core.observer.spin_rtts_from_edges` exactly
    (same subtraction, same order) for derived-column elision to be
    bit-identical.
    """
    return [times[i + 1] - times[i] for i in range(len(times) - 1)]


def _encode_rtt_columns(
    out: bytearray, series_list: list[list[float]], edge_lists: list
) -> None:
    derived = [
        series == _rtts_from_times([edge.time_ms for edge in edges])
        for series, edges in zip(series_list, edge_lists)
    ]
    out += _pack_bits(derived)
    explicit = [s for s, d in zip(series_list, derived) if not d]
    _write_uv_column(out, [len(series) for series in explicit])
    out += _pack_doubles([value for series in explicit for value in series])


def _encode_connection_columns(
    out: bytearray, records: Sequence[ConnectionRecord], table: _StringTable
) -> None:
    intern = table.add
    _write_uv_column(out, [intern(r.domain) for r in records])
    www = [r.host == "www." + r.domain for r in records]
    out += _pack_bits(www)
    _write_uv_column(
        out, [intern(r.host) for r, same in zip(records, www) if not same]
    )
    out += _pack_bits([r.ip.version == 6 for r in records])
    for r in records:
        out += r.ip.value.to_bytes(16 if r.ip.version == 6 else 4, "big")
    _write_uv_column(out, [r.ip_version for r in records])
    _write_uv_column(out, [intern(r.provider_name) for r in records])
    _write_uv_column(
        out,
        [
            0 if r.server_header is None else intern(r.server_header) + 1
            for r in records
        ],
    )
    _write_uv_column(out, [0 if r.status is None else r.status + 1 for r in records])
    out += _pack_bits([r.success for r in records])
    _write_uv_column(out, [intern(r.behaviour.value) for r in records])
    for r in records:
        seen = r.observation.values_seen
        out.append((1 if False in seen else 0) | (2 if True in seen else 0))
    _write_uv_column(out, [r.observation.packets_seen for r in records])
    _encode_edge_columns(out, [r.observation.edges_received for r in records])
    _encode_edge_columns(out, [r.observation.edges_sorted for r in records])
    _encode_rtt_columns(
        out,
        [r.observation.rtts_received_ms for r in records],
        [r.observation.edges_received for r in records],
    )
    _encode_rtt_columns(
        out,
        [r.observation.rtts_sorted_ms for r in records],
        [r.observation.edges_sorted for r in records],
    )
    _write_uv_column(out, [len(r.stack_rtts_ms) for r in records])
    out += _pack_doubles([v for r in records for v in r.stack_rtts_ms])
    _write_uv_column(
        out,
        [
            0 if r.negotiated_version is None else r.negotiated_version + 1
            for r in records
        ],
    )
    _write_uv_column(
        out, [0 if r.failure is None else intern(r.failure.value) + 1 for r in records]
    )


def _encode_week_column(
    out: bytearray, records: Sequence[ConnectionRecord], table: _StringTable
) -> None:
    """The v2 trailing week column (0 = unlabeled record)."""
    intern = table.add
    _write_uv_column(
        out, [0 if r.week is None else intern(r.week) + 1 for r in records]
    )


def _encode_domain_columns(
    out: bytearray,
    domains: Sequence,
    records: Sequence[ConnectionRecord],
    table: _StringTable,
) -> None:
    intern = table.add
    _write_uv(out, len(domains))
    _write_uv_column(out, [intern(d.domain.name) for d in domains])
    out += _pack_bits([d.resolved for d in domains])
    out += _pack_bits([d.quic_support for d in domains])
    has_ip = [d.resolved_ip is not None for d in domains]
    out += _pack_bits(has_ip)
    with_ip = [d for d in domains if d.resolved_ip is not None]
    out += _pack_bits([d.resolved_ip.version == 6 for d in with_ip])
    for d in with_ip:
        ip = d.resolved_ip
        out += ip.value.to_bytes(16 if ip.version == 6 else 4, "big")
    _write_uv_column(
        out, [0 if d.failure is None else intern(d.failure.value) + 1 for d in domains]
    )
    _write_uv_column(out, [len(d.connections) for d in domains])
    for r in records:
        if r.qlog is None:
            _write_uv(out, 0)
        else:
            blob = json.dumps(r.qlog, separators=(",", ":")).encode("utf-8")
            _write_uv(out, len(blob) + 1)
            out += blob


def _encode_chunk(
    records: Sequence[ConnectionRecord],
    kind: int,
    domains: Sequence | None = None,
    with_week: bool = True,
) -> bytes:
    table = _StringTable()
    columns = bytearray()
    _encode_connection_columns(columns, records, table)
    flags = 0
    if with_week:
        # The week column sits between the connection and domain column
        # blocks, announced by a payload flag bit so version-1 chunks
        # (no flags) decode unchanged.
        flags |= _CHUNK_FLAG_WEEK
        _encode_week_column(columns, records, table)
    if kind == KIND_DOMAINS:
        assert domains is not None
        _encode_domain_columns(columns, domains, records, table)
    head = bytearray([kind | flags])
    _write_uv(head, len(records))
    return zlib.compress(bytes(head) + table.encode() + bytes(columns), 6)


# ----------------------------------------------------------------------
# Chunk decoding.
# ----------------------------------------------------------------------


class DomainResultData:
    """Decoded per-domain grouping of a :data:`KIND_DOMAINS` chunk.

    Connection records are already fully decoded; the checkpoint layer
    re-binds ``name`` to its :class:`~repro.internet.population.
    DomainRecord` and builds the final ``DomainScanResult``.
    """

    __slots__ = ("name", "resolved", "quic_support", "resolved_ip", "failure", "connections")

    def __init__(self, name, resolved, quic_support, resolved_ip, failure, connections):
        self.name = name
        self.resolved = resolved
        self.quic_support = quic_support
        self.resolved_ip = resolved_ip
        self.failure = failure
        self.connections = connections


def _decode_strings(buf: bytes, pos: int) -> tuple[list[str], int]:
    count, pos = _read_uv(buf, pos)
    strings: list[str] = []
    append = strings.append
    for _ in range(count):
        length = buf[pos]
        if length < 0x80:
            pos += 1
        else:
            length, pos = _read_uv(buf, pos)
        append(str(buf[pos : pos + length], "utf-8"))
        pos += length
    return strings, pos


def _split(flat: tuple, counts: list[int]) -> list[tuple]:
    """``flat`` cut into one tuple per count, in order."""
    parts: list[tuple] = []
    append = parts.append
    empty = ()
    offset = 0
    for count in counts:
        if count:
            append(flat[offset : offset + count])
            offset += count
        else:
            append(empty)
    return parts


def _interned_ip(cache: dict, key: int) -> IpAddr:
    """Decode-side IpAddr interning by ``value << 1 | is_v6``: frozen
    instances are shared freely, and campaigns repeat addresses."""
    ip = cache.get(key)
    if ip is None:
        ip = cache[key] = IpAddr(value=key >> 1, version=6 if key & 1 else 4)
    return ip


def _decode_edge_columns(
    buf: bytes, pos: int, n: int, build: bool
) -> tuple[tuple[list[int], list[int], list[bool]] | None, list[tuple[float, ...]], int]:
    """Decode one edge block into per-record time tuples (always: the
    derived RTT input) and, unless ``build=False`` skips them (projection
    pushdown), the flat packet-number deltas and values with each
    record's start offset — edge objects are built from those only when
    a record is."""
    counts, pos = _read_uv_column(buf, pos, n)
    total = sum(counts)
    times, pos = _read_doubles(buf, pos, total)
    pn_bytes, pos = _read_uv(buf, pos)
    per_record_times = _split(times, counts)
    if not build:
        return None, per_record_times, pos + pn_bytes + ((total + 7) >> 3)
    deltas, pos = _read_uv_list(buf, pos, total)
    values, pos = _read_bits(buf, pos, total)
    starts = list(_accumulate(counts, initial=0))
    return (starts, deltas, values), per_record_times, pos


def _decode_rtt_columns(
    buf: bytes, pos: int, per_record_times: list[tuple[float, ...]]
) -> tuple[list[tuple[float, ...]], int]:
    n = len(per_record_times)
    derived, pos = _read_bits(buf, pos, n)
    explicit_count = n - sum(derived)
    sub = _operator_sub
    empty = ()
    if explicit_count == 0:
        # Common case: every series in the chunk equals its edge-time
        # diffs (scans without explicit resampling), so the column body
        # is empty and the whole block is derived in one comprehension.
        # Pairwise diffs at C speed; map stops at the shorter operand,
        # so a single-edge record falls out as ().
        counts, pos = _read_uv_column(buf, pos, 0)
        return [tuple(map(sub, t[1:], t)) if t else empty for t in per_record_times], pos
    counts, pos = _read_uv_column(buf, pos, explicit_count)
    flat, pos = _read_doubles(buf, pos, sum(counts))
    series: list[tuple[float, ...]] = []
    append = series.append
    offset = 0
    next_count = iter(counts)
    for is_derived, times in zip(derived, per_record_times):
        if is_derived:
            append(tuple(map(sub, times[1:], times)) if times else empty)
        else:
            count = next(next_count)
            append(flat[offset : offset + count])
            offset += count
    return series, pos


def _resolve_optional(indexes: list[int], values: list) -> list:
    """``0`` -> ``None``, ``i`` -> ``values[i - 1]`` (raises when out of range)."""
    if not any(indexes):
        return [None] * len(indexes)
    return [None if not index else values[index - 1] for index in indexes]


#: Per-record columns every analysis consumer reads (the six folds, every
#: predicate node, the week indexer); a :class:`RecordBatch` always
#: carries all of them, whatever it was built from.
_ANALYSIS_COLUMNS = (
    "domains", "providers", "headers", "statuses", "successes", "behaviours",
    "masks", "versions", "failures", "weeks", "ip_keys", "times_received",
    "rtts_received", "rtts_sorted", "stacks",
)

_VALUES_SEEN = (set(), {False}, {True}, {False, True})


class _ChunkColumns:
    """One chunk's decoded columns: validated, no record built yet.

    Besides the analysis columns it keeps what only a full record needs
    — ``hosts`` (``None`` = ``"www." + domain``), ``ip_versions``,
    ``packets_seen`` and the raw edge blocks ``(starts, packet-number
    deltas, values)``, ``None`` where projected away — and the reader's
    IpAddr interning cache.
    """

    __slots__ = _ANALYSIS_COLUMNS + (
        "hosts", "ip_versions", "packets_seen", "edges_received", "edges_sorted",
        "times_sorted", "ip_cache",
    )

    def records(self, rows: Sequence[int]) -> list[ConnectionRecord]:
        """Build the records of ``rows`` (chunk row numbers), in order."""
        domains = self.domains
        hosts = self.hosts
        ip_keys = self.ip_keys
        ip_cache = self.ip_cache
        ip_versions = self.ip_versions
        providers = self.providers
        headers = self.headers
        statuses = self.statuses
        successes = self.successes
        behaviours = self.behaviours
        masks = self.masks
        packets_seen = self.packets_seen
        rtts_r = self.rtts_received
        rtts_s = self.rtts_sorted
        stacks = self.stacks
        versions = self.versions
        failures = self.failures
        weeks = self.weeks
        times_r = self.times_received
        times_s = self.times_sorted
        starts_r, deltas_r, values_r = self.edges_received or (None, None, None)
        starts_s, deltas_s, values_s = self.edges_sorted or (None, None, None)
        values_seen = _VALUES_SEEN
        unzig = _unzigzag
        Edge = SpinEdge
        records: list[ConnectionRecord] = []
        append = records.append
        # Hot loop: records are built via ``__new__`` + direct slot writes
        # instead of the dataclass ``__init__`` (same fields, ~2x cheaper —
        # this loop dominates a materialising decode).
        new = object.__new__
        Record = ConnectionRecord
        Observation = SpinObservation
        for i in rows:
            domain = domains[i]
            host = hosts[i]
            key = ip_keys[i]
            ip = ip_cache.get(key)
            if ip is None:  # _interned_ip, inline
                ip = ip_cache[key] = IpAddr(value=key >> 1, version=6 if key & 1 else 4)
            observation = new(Observation)
            observation.packets_seen = packets_seen[i]
            observation.values_seen = set(values_seen[masks[i]])
            times = times_r[i]
            if starts_r is None or not times:
                observation.edges_received = []
            else:
                start = starts_r[i]
                end = start + len(times)
                observation.edges_received = list(
                    map(Edge, times, _accumulate(map(unzig, deltas_r[start:end])),
                        values_r[start:end])
                )
            times = times_s[i]
            if starts_s is None or not times:
                observation.edges_sorted = []
            else:
                start = starts_s[i]
                end = start + len(times)
                observation.edges_sorted = list(
                    map(Edge, times, _accumulate(map(unzig, deltas_s[start:end])),
                        values_s[start:end])
                )
            observation.rtts_received_ms = list(rtts_r[i])
            observation.rtts_sorted_ms = list(rtts_s[i])
            record = new(Record)
            record.domain = domain
            record.host = "www." + domain if host is None else host
            record.ip = ip
            record.ip_version = ip_versions[i]
            record.provider_name = providers[i]
            record.server_header = headers[i]
            record.status = statuses[i]
            record.success = successes[i]
            record.behaviour = behaviours[i]
            record.observation = observation
            record.stack_rtts_ms = list(stacks[i])
            record.qlog = None
            record.negotiated_version = versions[i]
            record.failure = failures[i]
            record.week = weeks[i]
            append(record)
        return records


class RecordBatch(Sequence):
    """``n`` connection records as parallel columns — the unit of analysis.

    Folds, predicates and the week indexer read the columns directly:
    ``domains``, ``providers``, ``headers``, ``statuses``, ``versions``,
    ``failures``, ``weeks`` (``None`` where the record has none),
    ``successes``, ``behaviours``, ``masks`` (spin values seen: bit 0 =
    ``False``, bit 1 = ``True``; ``3`` is spin activity), ``ip_keys``
    (``value << 1 | is_v6``), and per record one float sequence each in
    ``times_received`` (spin-edge arrival times), ``rtts_received``,
    ``rtts_sorted`` and ``stacks``.

    The batch is still a ``Sequence[ConnectionRecord]`` — ``len``,
    iteration, indexing, equality with a list — but a decoded chunk
    builds its records only when something iterates or indexes it.
    :meth:`take` picks a row subset without building anything;
    :meth:`from_records` wraps records that already exist.

    One column is derived, in one loop on first use: :attr:`comparable`,
    the per-connection accuracy the accuracy and filter folds start from.
    """

    __slots__ = _ANALYSIS_COLUMNS + ("_records", "_chunk", "_rows", "_comparable")

    @classmethod
    def _from_chunk(cls, chunk: _ChunkColumns) -> "RecordBatch":
        batch = object.__new__(cls)
        for name in _ANALYSIS_COLUMNS:
            setattr(batch, name, getattr(chunk, name))
        batch._records = batch._comparable = None
        batch._chunk = chunk
        batch._rows = range(len(chunk.domains))
        return batch

    @classmethod
    def from_records(cls, records: Iterable[ConnectionRecord]) -> "RecordBatch":
        """Columns over in-memory records (scanner datasets, JSONL lines).

        The batch keeps the very record objects it was given; the float
        series columns share the records' lists.
        """
        if not isinstance(records, list):
            records = list(records)
        observations = [record.observation for record in records]
        batch = object.__new__(cls)
        batch.domains = [record.domain for record in records]
        batch.providers = [record.provider_name for record in records]
        batch.headers = [record.server_header for record in records]
        batch.statuses = [record.status for record in records]
        batch.successes = [record.success for record in records]
        batch.behaviours = [record.behaviour for record in records]
        batch.masks = [
            (False in observation.values_seen) | (True in observation.values_seen) << 1
            for observation in observations
        ]
        batch.versions = [record.negotiated_version for record in records]
        batch.failures = [record.failure for record in records]
        batch.weeks = [record.week for record in records]
        batch.ip_keys = [
            record.ip.value << 1 | (record.ip.version == 6) for record in records
        ]
        batch.times_received = [
            tuple([edge.time_ms for edge in observation.edges_received])
            for observation in observations
        ]
        batch.rtts_received = [o.rtts_received_ms for o in observations]
        batch.rtts_sorted = [o.rtts_sorted_ms for o in observations]
        batch.stacks = [record.stack_rtts_ms for record in records]
        batch._records = records
        batch._chunk = batch._rows = batch._comparable = None
        return batch

    @classmethod
    def coerce(cls, records: "RecordBatch | Iterable[ConnectionRecord]") -> "RecordBatch":
        """``records`` itself when it already is a batch, else its columns."""
        return records if isinstance(records, cls) else cls.from_records(records)

    def take(self, rows: Sequence[int]) -> "RecordBatch":
        """The batch of the given row numbers, in the given order."""
        rows = list(rows)
        if rows == list(range(len(self))):
            return self
        batch = object.__new__(RecordBatch)
        for name in _ANALYSIS_COLUMNS:
            column = getattr(self, name)
            setattr(batch, name, [column[row] for row in rows])
        batch._comparable = None
        if self._records is not None:
            batch._records = [self._records[row] for row in rows]
            batch._chunk = batch._rows = None
        else:
            batch._records = None
            batch._chunk = self._chunk
            batch._rows = [self._rows[row] for row in rows]
        return batch

    @property
    def comparable(self) -> list[tuple]:
        """The batch's comparable spinning connections, in row order.

        One ``(absolute_ms, ratio, quic_mean, rtts_received,
        times_received, rtts_sorted, behaviour)`` per row with spin
        activity (``mask == 3``) whose stack and received series both
        have a mean in ``(0, inf)``: the Section 5.1 metrics of the
        received series and what a fold needs to derive a variant.  A
        row without activity or without such a mean (empty, all-zero,
        NaN, infinite, underflowing) has no ratio and no entry.  Built
        on first use; a :meth:`take` derives its own rows'.
        """
        column = self._comparable
        if column is None:
            column = self._comparable = []
            columns = zip(
                self.stacks, self.rtts_received, self.times_received,
                self.rtts_sorted, self.behaviours,
            )
            spinning = [mask == 3 for mask in self.masks]
            for stack, received, times, sorted_series, behaviour in _compress(
                columns, spinning
            ):
                quic_mean = sum(stack) / len(stack) if stack else 0.0
                if 0.0 < quic_mean < _inf:
                    accuracy = mean_accuracy(received, quic_mean)
                    if accuracy is not None:
                        column.append(
                            (*accuracy, quic_mean, received, times, sorted_series, behaviour)
                        )
        return column

    def _materialised(self) -> list[ConnectionRecord]:
        records = self._records
        if records is None:
            records = self._records = self._chunk.records(self._rows)
            self._chunk = self._rows = None
        return records

    def __len__(self) -> int:
        return len(self.domains)

    def __iter__(self) -> Iterator[ConnectionRecord]:
        return iter(self._materialised())

    def __getitem__(self, index):
        return self._materialised()[index]

    def __eq__(self, other) -> bool:
        if not isinstance(other, Sequence):
            return NotImplemented
        return self._materialised() == list(other)

    __hash__ = None


def _decode_columns(
    payload: bytes,
    want_edges_received: bool = True,
    want_edges_sorted: bool = True,
    ip_cache: dict | None = None,
) -> tuple[_ChunkColumns, list[str], int]:
    """Decode and validate one chunk's connection columns.

    Everything that could make building a record fail — a string-table
    index out of range, an unknown behaviour or failure name, a spin
    mask above 3, a column shorter than the chunk — fails here, so
    damage is reported by the reader (``corrupt_chunks``) and never by a
    fold or by :meth:`_ChunkColumns.records` later.  Returns the columns,
    the string table and the payload position after the week column
    (where a :data:`KIND_DOMAINS` chunk's domain columns start).
    """
    buf = payload
    flags = buf[0] & ~_CHUNK_KIND_MASK
    kind = buf[0] & _CHUNK_KIND_MASK
    if kind not in (KIND_RECORDS, KIND_DOMAINS):
        raise CbrFormatError(f"unknown chunk kind {kind}")
    if flags & ~_CHUNK_FLAG_WEEK:
        raise CbrFormatError(f"unknown chunk flags 0x{flags:02x}")
    n, pos = _read_uv(buf, 1)
    strings, pos = _decode_strings(buf, pos)
    string_at = strings.__getitem__
    chunk = _ChunkColumns()
    chunk.ip_cache = {} if ip_cache is None else ip_cache

    domain_idx, pos = _read_uv_column(buf, pos, n)
    chunk.domains = list(map(string_at, domain_idx))
    www, pos = _read_bits(buf, pos, n)
    host_idx, pos = _read_uv_column(buf, pos, n - sum(www))
    next_host = map(string_at, host_idx)
    chunk.hosts = [None if same else next(next_host) for same in www]
    ip6, pos = _read_bits(buf, pos, n)
    if True in ip6:
        ip_keys = []
        from_bytes = int.from_bytes
        for is6 in ip6:
            width = 16 if is6 else 4
            ip_keys.append(from_bytes(buf[pos : pos + width], "big") << 1 | is6)
            pos += width
    else:
        ip_keys = [value << 1 for value in struct.unpack_from(f">{n}I", buf, pos)]
        pos += 4 * n
    chunk.ip_keys = ip_keys
    chunk.ip_versions, pos = _read_uv_column(buf, pos, n)
    provider_idx, pos = _read_uv_column(buf, pos, n)
    chunk.providers = list(map(string_at, provider_idx))
    header_idx, pos = _read_uv_column(buf, pos, n)
    chunk.headers = _resolve_optional(header_idx, strings)
    statuses, pos = _read_uv_column(buf, pos, n)
    chunk.statuses = [None if not status else status - 1 for status in statuses]
    chunk.successes, pos = _read_bits(buf, pos, n)
    behaviour_idx, pos = _read_uv_column(buf, pos, n)
    chunk.behaviours = list(map(_BEHAVIOURS.__getitem__, map(string_at, behaviour_idx)))
    chunk.masks = masks = list(buf[pos : pos + n])
    if len(masks) != n or max(masks, default=0) > 3:
        raise CbrFormatError("bad spin-value mask column")
    pos += n
    chunk.packets_seen, pos = _read_uv_column(buf, pos, n)
    chunk.edges_received, chunk.times_received, pos = _decode_edge_columns(
        buf, pos, n, want_edges_received
    )
    chunk.edges_sorted, chunk.times_sorted, pos = _decode_edge_columns(
        buf, pos, n, want_edges_sorted
    )
    chunk.rtts_received, pos = _decode_rtt_columns(buf, pos, chunk.times_received)
    chunk.rtts_sorted, pos = _decode_rtt_columns(buf, pos, chunk.times_sorted)
    stack_counts, pos = _read_uv_column(buf, pos, n)
    stack_flat, pos = _read_doubles(buf, pos, sum(stack_counts))
    chunk.stacks = _split(stack_flat, stack_counts)
    versions, pos = _read_uv_column(buf, pos, n)
    chunk.versions = [None if not version else version - 1 for version in versions]
    failure_idx, pos = _read_uv_column(buf, pos, n)
    chunk.failures = [
        None if name is None else _FAILURES[name]
        for name in _resolve_optional(failure_idx, strings)
    ]
    if flags & _CHUNK_FLAG_WEEK:
        week_idx, pos = _read_uv_column(buf, pos, n)
        chunk.weeks = _resolve_optional(week_idx, strings)
    else:
        chunk.weeks = [None] * n
    return chunk, strings, pos


def _decode_domain_columns(
    buf: bytes,
    pos: int,
    strings: list[str],
    records: list[ConnectionRecord],
    ip_cache: dict,
) -> list[DomainResultData]:
    """The per-domain grouping and qlog blobs of a ``KIND_DOMAINS`` chunk."""
    n_domains, pos = _read_uv(buf, pos)
    name_idx, pos = _read_uv_column(buf, pos, n_domains)
    resolved, pos = _read_bits(buf, pos, n_domains)
    quic, pos = _read_bits(buf, pos, n_domains)
    has_ip, pos = _read_bits(buf, pos, n_domains)
    with_ip_count = sum(has_ip)
    res_ip6, pos = _read_bits(buf, pos, with_ip_count)
    resolved_ips: list[IpAddr] = []
    for is6 in res_ip6:
        width = 16 if is6 else 4
        key = int.from_bytes(buf[pos : pos + width], "big") << 1 | is6
        pos += width
        resolved_ips.append(_interned_ip(ip_cache, key))
    d_failure_idx, pos = _read_uv_column(buf, pos, n_domains)
    conn_counts, pos = _read_uv_column(buf, pos, n_domains)
    for record in records:
        blob_len, pos = _read_uv(buf, pos)
        if blob_len:
            record.qlog = json.loads(
                buf[pos : pos + blob_len - 1].decode("utf-8")
            )
            pos += blob_len - 1

    domains: list[DomainResultData] = []
    ip_iter = iter(resolved_ips)
    record_offset = 0
    for i in range(n_domains):
        count = conn_counts[i]
        failure = d_failure_idx[i]
        domains.append(
            DomainResultData(
                name=strings[name_idx[i]],
                resolved=resolved[i],
                quic_support=quic[i],
                resolved_ip=next(ip_iter) if has_ip[i] else None,
                failure=None if not failure else _FAILURES[strings[failure - 1]],
                connections=records[record_offset : record_offset + count],
            )
        )
        record_offset += count
    return domains


# ----------------------------------------------------------------------
# Framed file writer / reader.
# ----------------------------------------------------------------------


def _write_index_frame(
    write, offset: int, ordinals_by_hash: dict[bytes, list[int]]
) -> dict:
    """Write the packed secondary-index frame; returns its footer entry."""
    rows = b"".join(
        key + ordinal.to_bytes(4, "big")
        for key in sorted(ordinals_by_hash)
        for ordinal in ordinals_by_hash[key]
    )
    write(bytes([_FRAME_INDEX]))
    write(_INDEX_HEADER.pack(len(rows), zlib.crc32(rows)))
    write(rows)
    return {"at": offset, "rows": len(rows) // _INDEX_ROW_SIZE}


def _write_footer(write, footer_offset: int, footer: dict) -> None:
    """Serialize the footer frame + trailer through ``write``."""
    payload = zlib.compress(
        json.dumps(footer, separators=(",", ":")).encode("utf-8"), 6
    )
    write(bytes([_FRAME_FOOTER]))
    write(_FOOTER_HEADER.pack(len(payload)))
    write(payload)
    write(_TRAILER.pack(footer_offset, _END_MAGIC))


class CbrWriter:
    """Streaming cbr encoder over a binary stream.

    One writer produces chunks of a single ``kind``: feed
    :meth:`write_record` for a plain artifact or
    :meth:`write_domain_result` for a checkpoint shard (records grouped
    by domain; chunks flush on whole-domain boundaries).  ``close``
    writes the footer index and trailer.

    The footer always carries the pruning sections (zone maps, domain
    index: encode-side set building, no chunk bytes) — except under
    ``compat_v1``, which writes the exact pre-zone-map container
    (version byte 1, no week column, schema-1 footer) and exists so
    compatibility tests and tooling can fabricate legacy artifacts.
    """

    def __init__(
        self,
        stream: IO[bytes],
        chunk_records: int = _DEFAULT_CHUNK_RECORDS,
        kind: int = KIND_RECORDS,
        compat_v1: bool = False,
    ) -> None:
        if chunk_records < 1:
            raise ValueError("chunk_records must be >= 1")
        self._stream = stream
        self._chunk_records = chunk_records
        self._kind = kind
        self._compat_v1 = compat_v1
        self._records: list[ConnectionRecord] = []
        self._domains: list = []
        self._offset = 0
        self._chunks: list[list] = []  # [offset, payload_len, n_records, kind]
        self._zones: list[dict | None] = []
        self._domain_ordinals: dict[bytes, list[int]] = {}
        self.records_written = 0
        self._closed = False
        self._write(CBR_MAGIC + bytes([1 if compat_v1 else _FORMAT_VERSION]))

    def _write(self, data: bytes) -> None:
        self._stream.write(data)
        self._offset += len(data)

    def write_record(self, record: ConnectionRecord) -> None:
        assert self._kind == KIND_RECORDS, "writer is in domain-result mode"
        self._records.append(record)
        if len(self._records) >= self._chunk_records:
            self._flush()

    def write_records(self, records: Iterable[ConnectionRecord]) -> None:
        for record in records:
            self.write_record(record)

    def write_domain_result(self, result) -> None:
        assert self._kind == KIND_DOMAINS, "writer is in record mode"
        self._domains.append(result)
        self._records.extend(result.connections)
        if len(self._records) >= self._chunk_records:
            self._flush()

    def _flush(self) -> None:
        if not self._records and not self._domains:
            return
        payload = _encode_chunk(
            self._records,
            self._kind,
            self._domains if self._kind == KIND_DOMAINS else None,
            with_week=not self._compat_v1,
        )
        n = len(self._records)
        ordinal = len(self._chunks)
        if not self._compat_v1:
            self._zones.append(_zone_entry(self._records))
            ordinals = self._domain_ordinals
            for name in {record.domain for record in self._records}:
                buckets = ordinals.setdefault(_domain_hash_bytes(name), [])
                if not buckets or buckets[-1] != ordinal:
                    buckets.append(ordinal)
        self._chunks.append([self._offset, len(payload), n, self._kind])
        self._write(bytes([_FRAME_CHUNK]))
        self._write(_CHUNK_HEADER.pack(len(payload), zlib.crc32(payload), n, self._kind))
        self._write(payload)
        self.records_written += n
        self._records = []
        self._domains = []

    def close(self) -> int:
        """Flush, write footer + trailer; returns records written."""
        if self._closed:
            return self.records_written
        self._flush()
        # An empty domain-kind artifact must still announce its kind so
        # readers can validate (`domain_batches` on a records file).
        footer = {
            "schema": 1 if self._compat_v1 else FOOTER_SCHEMA,
            "records": self.records_written,
            "kind": self._kind,
            "chunks": self._chunks,
        }
        if not self._compat_v1:
            footer["zones"] = self._zones
            footer["bloom"] = {"hashes": _BLOOM_HASHES}
            # Sorted rows keep the index bytes independent of insertion
            # order and make the lookup a binary search.
            footer["domain_index"] = _write_index_frame(
                self._write, self._offset, self._domain_ordinals
            )
        _write_footer(self._write, self._offset, footer)
        self._closed = True
        return self.records_written


def write_records_cbr(
    records: Iterable[ConnectionRecord],
    stream: IO[bytes],
    chunk_records: int = _DEFAULT_CHUNK_RECORDS,
) -> int:
    """Write a plain connection-record artifact; returns the count."""
    writer = CbrWriter(stream, chunk_records=chunk_records)
    writer.write_records(records)
    return writer.close()


class CbrReader:
    """Sequential cbr reader (works on pipes; no seeking required).

    ``errors="raise"`` (default) turns any damage into
    :class:`CbrFormatError`; ``errors="count"`` mirrors the tolerant
    qlog JSONL reader: a chunk with a bad CRC or an undecodable payload
    is skipped and counted in ``corrupt_chunks``, and a stream truncated
    mid-frame stops the iteration after counting the torn chunk.
    """

    def __init__(self, stream: IO[bytes], errors: str = "raise") -> None:
        if errors not in ("raise", "count"):
            raise ValueError("errors must be 'raise' or 'count'")
        self._stream = stream
        self._errors = errors
        self.corrupt_chunks = 0
        self.records_read = 0
        self._ip_cache: dict = {}
        head = stream.read(len(CBR_MAGIC) + 1)
        if head[: len(CBR_MAGIC)] != CBR_MAGIC:
            raise CbrFormatError("not a cbr stream (bad magic)")
        if head[len(CBR_MAGIC)] not in _SUPPORTED_VERSIONS:
            raise CbrFormatError(f"unsupported cbr version {head[len(CBR_MAGIC)]}")

    def _damaged(self, message: str) -> None:
        if self._errors == "raise":
            raise CbrFormatError(message)
        self.corrupt_chunks += 1

    def _frames(self) -> Iterator[tuple[int, int, bytes]]:
        """Yield (kind, n_records, decompressed payload) per good chunk."""
        read = self._stream.read
        while True:
            frame_type = read(1)
            if not frame_type:
                return  # clean EOF (footer-less stream fragment)
            if frame_type[0] == _FRAME_FOOTER:
                return
            if frame_type[0] == _FRAME_INDEX:
                # The secondary index is seek-only data; the record
                # stream just steps over it.
                header = read(_INDEX_HEADER.size)
                if len(header) < _INDEX_HEADER.size:
                    self._damaged("truncated index header")
                    return
                (index_len, _crc) = _INDEX_HEADER.unpack(header)
                if len(read(index_len)) < index_len:
                    self._damaged("truncated index payload")
                    return
                continue
            if frame_type[0] != _FRAME_CHUNK:
                self._damaged(f"unknown frame type 0x{frame_type[0]:02x}")
                return  # framing lost: cannot resynchronize
            header = read(_CHUNK_HEADER.size)
            if len(header) < _CHUNK_HEADER.size:
                self._damaged("truncated chunk header")
                return
            payload_len, crc, n_records, kind = _CHUNK_HEADER.unpack(header)
            payload = read(payload_len)
            if len(payload) < payload_len:
                self._damaged("truncated chunk payload")
                return
            if zlib.crc32(payload) != crc:
                self._damaged("chunk CRC mismatch")
                continue  # framing intact: skip just this chunk
            try:
                raw = zlib.decompress(payload)
            except zlib.error:
                self._damaged("chunk decompression failed")
                continue
            yield kind, n_records, raw

    def record_batches(
        self,
        want_edges_received: bool = True,
        want_edges_sorted: bool = True,
    ) -> Iterator[RecordBatch]:
        """Yield one :class:`RecordBatch` per chunk (either chunk kind).

        The ``want_edges_*`` flags are projection pushdown on the
        *records* a batch builds: a skipped edge block is never decoded
        and its records carry empty edge lists (their RTT series are
        still exact).  The batch's columns are the same either way.
        """
        for kind, _n, payload in self._frames():
            try:
                chunk, _strings, _pos = _decode_columns(
                    payload,
                    want_edges_received=want_edges_received,
                    want_edges_sorted=want_edges_sorted,
                    ip_cache=self._ip_cache,
                )
            except _COLUMN_DECODE_ERRORS:
                self._damaged("chunk column decode failed")
                continue
            batch = RecordBatch._from_chunk(chunk)
            self.records_read += len(batch)
            yield batch

    def domain_batches(self) -> Iterator[list[DomainResultData]]:
        """Yield per-chunk domain groupings (``KIND_DOMAINS`` files)."""
        for kind, _n, payload in self._frames():
            if kind != KIND_DOMAINS:
                raise CbrFormatError("artifact holds plain records, not domain results")
            if payload[0] & _CHUNK_KIND_MASK != KIND_DOMAINS:
                raise CbrFormatError("chunk has no domain columns")
            chunk, strings, pos = _decode_columns(payload, ip_cache=self._ip_cache)
            records = chunk.records(range(len(chunk.domains)))
            self.records_read += len(records)
            yield _decode_domain_columns(payload, pos, strings, records, self._ip_cache)

    def iter_records(self) -> Iterator[ConnectionRecord]:
        for batch in self.record_batches():
            yield from batch


class CbrIndexedReader:
    """Random-access cbr reader over a seekable stream.

    Reads the footer once, then decodes exactly the chunk ordinals it is
    asked for — this is the decode backend of the predicate-pushdown
    query planner: planning happens on the footer's zone maps, and only
    the surviving ordinals are ever inflated.  ``errors`` follows
    :class:`CbrReader` (``"count"`` skips damaged chunks and counts
    them).  Raises :class:`CbrFormatError` when the stream has no
    readable footer (torn trailer); callers fall back to the sequential
    tolerant reader in that case.
    """

    def __init__(self, stream: IO[bytes], errors: str = "raise") -> None:
        if errors not in ("raise", "count"):
            raise ValueError("errors must be 'raise' or 'count'")
        self._stream = stream
        self._errors = errors
        self.corrupt_chunks = 0
        self.records_read = 0
        self._ip_cache: dict = {}
        self._index_rows: bytes | None = None
        self._index_loaded = False
        stream.seek(0)
        head = stream.read(len(CBR_MAGIC) + 1)
        if head[: len(CBR_MAGIC)] != CBR_MAGIC:
            raise CbrFormatError("not a cbr stream (bad magic)")
        if head[len(CBR_MAGIC)] not in _SUPPORTED_VERSIONS:
            raise CbrFormatError(f"unsupported cbr version {head[len(CBR_MAGIC)]}")
        self.footer = read_footer(stream)

    @property
    def chunk_count(self) -> int:
        return len(self.footer.get("chunks", ()))

    def _damaged(self, message: str) -> None:
        if self._errors == "raise":
            raise CbrFormatError(message)
        self.corrupt_chunks += 1

    def _load_index(self) -> bytes | None:
        """The packed index rows, loaded and validated once on demand."""
        if self._index_loaded:
            return self._index_rows
        self._index_loaded = True
        info = self.footer.get("domain_index")
        if not isinstance(info, dict):
            return None
        try:
            self._stream.seek(info["at"])
            head = self._stream.read(1 + _INDEX_HEADER.size)
            if len(head) < 1 + _INDEX_HEADER.size or head[0] != _FRAME_INDEX:
                raise CbrFormatError("domain index frame is damaged")
            rows_len, crc = _INDEX_HEADER.unpack_from(head, 1)
            rows = self._stream.read(rows_len)
            if (
                len(rows) < rows_len
                or zlib.crc32(rows) != crc
                or rows_len != info["rows"] * _INDEX_ROW_SIZE
            ):
                raise CbrFormatError("domain index frame is damaged")
        except (CbrFormatError, KeyError, TypeError, OSError, struct.error):
            # A broken *optional* index only costs pruning opportunity:
            # report the damage and answer queries from zone maps alone.
            self._damaged("domain index frame is damaged")
            return None
        self._index_rows = rows
        return rows

    def domain_index_lookup(self, name: str) -> list[int] | None:
        """Chunk ordinals that may hold ``name``.

        ``None`` means "no usable index" (pre-index file, or a damaged
        index frame in tolerant mode) — the caller must fall back to
        scanning every chunk the zone maps allow.  An empty list is a
        definitive miss: the index is complete, so an unlisted hash
        proves the domain is absent.
        """
        rows = self._load_index()
        if rows is None:
            return None
        return _index_rows_lookup(rows, _domain_hash_bytes(name))

    def read_chunks(
        self,
        ordinals: Sequence[int],
        want_edges_received: bool = True,
        want_edges_sorted: bool = True,
    ) -> Iterator[RecordBatch]:
        """Yield one :class:`RecordBatch` per requested chunk ordinal."""
        chunks = self.footer.get("chunks", ())
        stream = self._stream
        for ordinal in ordinals:
            offset, payload_len, _n, _kind = chunks[ordinal]
            stream.seek(offset)
            frame = stream.read(1 + _CHUNK_HEADER.size + payload_len)
            if (
                len(frame) < 1 + _CHUNK_HEADER.size + payload_len
                or frame[0] != _FRAME_CHUNK
            ):
                self._damaged(f"chunk {ordinal} frame is damaged")
                continue
            stored_len, crc, _n_records, _kind_byte = _CHUNK_HEADER.unpack_from(
                frame, 1
            )
            payload = frame[1 + _CHUNK_HEADER.size :]
            if stored_len != payload_len or zlib.crc32(payload) != crc:
                self._damaged(f"chunk {ordinal} CRC mismatch")
                continue
            try:
                chunk, _strings, _pos = _decode_columns(
                    zlib.decompress(payload),
                    want_edges_received=want_edges_received,
                    want_edges_sorted=want_edges_sorted,
                    ip_cache=self._ip_cache,
                )
            except (zlib.error, *_COLUMN_DECODE_ERRORS):
                self._damaged(f"chunk {ordinal} decode failed")
                continue
            batch = RecordBatch._from_chunk(chunk)
            self.records_read += len(batch)
            yield batch


def read_footer(stream: IO[bytes]) -> dict:
    """Read the footer index of a seekable cbr stream."""
    stream.seek(0, 2)
    size = stream.tell()
    if size < len(CBR_MAGIC) + 1 + _TRAILER.size:
        raise CbrFormatError("stream too short for a cbr footer")
    stream.seek(size - _TRAILER.size)
    footer_offset, magic = _TRAILER.unpack(stream.read(_TRAILER.size))
    if magic != _END_MAGIC:
        raise CbrFormatError("missing cbr end marker (truncated artifact?)")
    stream.seek(footer_offset)
    frame_type = stream.read(1)
    if not frame_type or frame_type[0] != _FRAME_FOOTER:
        raise CbrFormatError("footer offset does not point at a footer frame")
    (payload_len,) = _FOOTER_HEADER.unpack(stream.read(_FOOTER_HEADER.size))
    return json.loads(zlib.decompress(stream.read(payload_len)).decode("utf-8"))


def _source_footer(source: IO[bytes]) -> dict | None:
    """A concat source's footer, or ``None`` when unreadable.

    The stream position is restored to the start either way, so the
    frame-copy pass that follows sees the whole stream.
    """
    try:
        if not source.seekable():
            return None
        footer = read_footer(source)
    except (CbrFormatError, OSError):
        footer = None
    source.seek(0)
    return footer


def concat_frames(
    sources: Sequence[str | os.PathLike | IO[bytes]], out: IO[bytes]
) -> tuple[int, int]:
    """Concatenate cbr streams chunk-by-chunk **without decoding records**.

    Each source may be an open binary stream or a path.  Chunk frames
    are copied verbatim (CRC-verified, never decompressed) and a fresh
    footer index is written; the inputs' footers are dropped — except
    their *zone maps*, which are carried over per chunk (only the
    ordinals change), so merged artifacts stay prunable.  Sources
    predating zone maps contribute ``null`` zone entries (never pruned,
    always correct).  The secondary domain index is merged only when
    every source carries one; a single index-less source would make
    lookups silently incomplete, so the merged footer drops the section
    instead.  Returns ``(chunks, records)``.
    """
    offset = 0

    def write(data: bytes) -> None:
        nonlocal offset
        out.write(data)
        offset += len(data)

    write(CBR_MAGIC + bytes([_FORMAT_VERSION]))
    chunks: list[list] = []
    zones: list[dict | None] = []
    index_rows: list[bytes] = []
    index_complete = True
    records = 0
    kind_seen: int | None = None

    def copy_source(source: IO[bytes]) -> None:
        nonlocal records, kind_seen, index_complete
        footer = _source_footer(source)
        base = len(chunks)
        head = source.read(len(CBR_MAGIC) + 1)
        if head[: len(CBR_MAGIC)] != CBR_MAGIC:
            raise CbrFormatError("concat source is not a cbr stream")
        if head[len(CBR_MAGIC)] not in _SUPPORTED_VERSIONS:
            raise CbrFormatError(
                f"concat source has unsupported cbr version {head[len(CBR_MAGIC)]}"
            )
        source_rows: bytes | None = None
        while True:
            frame_type = source.read(1)
            if not frame_type or frame_type[0] == _FRAME_FOOTER:
                break
            if frame_type[0] == _FRAME_INDEX:
                # Index rows carry source-local ordinals, so the frame
                # is consumed (rebased below), never copied verbatim.
                rows_len, crc = _INDEX_HEADER.unpack(
                    source.read(_INDEX_HEADER.size)
                )
                rows = source.read(rows_len)
                if len(rows) < rows_len or zlib.crc32(rows) != crc:
                    raise CbrFormatError("concat source index is damaged")
                source_rows = rows
                continue
            if frame_type[0] != _FRAME_CHUNK:
                raise CbrFormatError("concat source has unknown frame type")
            header = source.read(_CHUNK_HEADER.size)
            payload_len, crc, n_records, kind = _CHUNK_HEADER.unpack(header)
            payload = source.read(payload_len)
            if len(payload) < payload_len or zlib.crc32(payload) != crc:
                raise CbrFormatError("concat source chunk is damaged")
            if kind_seen is None:
                kind_seen = kind
            chunks.append([offset, payload_len, n_records, kind])
            write(frame_type)
            write(header)
            write(payload)
            records += n_records
        # Footer chunk entries are in file order, exactly the order the
        # copy above walked, so zone entries re-align by position; only
        # the ordinals are fresh.
        copied = len(chunks) - base
        source_zones = (footer or {}).get("zones") or []
        zones.extend(
            source_zones[index] if index < len(source_zones) else None
            for index in range(copied)
        )
        if source_rows is None or not isinstance(
            (footer or {}).get("domain_index"), dict
        ):
            index_complete = False
        elif index_complete:
            for start in range(0, len(source_rows), _INDEX_ROW_SIZE):
                key = source_rows[start : start + _INDEX_HASH_SIZE]
                ordinal = int.from_bytes(
                    source_rows[start + _INDEX_HASH_SIZE : start + _INDEX_ROW_SIZE],
                    "big",
                )
                index_rows.append(key + (base + ordinal).to_bytes(4, "big"))

    for source in sources:
        if isinstance(source, (str, os.PathLike)):
            with open(source, "rb") as stream:
                copy_source(stream)
        else:
            copy_source(source)
    footer = {
        "schema": FOOTER_SCHEMA,
        "records": records,
        "kind": KIND_RECORDS if kind_seen is None else kind_seen,
        "chunks": chunks,
        "zones": zones,
        "bloom": {"hashes": _BLOOM_HASHES},
    }
    if index_complete:
        # Re-sort globally: per-source row order interleaves by hash.
        merged: dict[bytes, list[int]] = {}
        for row in sorted(index_rows):
            merged.setdefault(row[:_INDEX_HASH_SIZE], []).append(
                int.from_bytes(row[_INDEX_HASH_SIZE:], "big")
            )
        footer["domain_index"] = _write_index_frame(write, offset, merged)
    _write_footer(write, offset, footer)
    return len(chunks), records
