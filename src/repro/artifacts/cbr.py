"""The ``cbr`` columnar binary connection-record format.

The only artifact format ``repro`` reads.  JSON lines (the Appendix B
export, :mod:`repro.analysis.artifacts`) spend one fully materialized
Python dict per record; at the paper's scale (200 M+ domains per week)
both the decode time and the artifact bytes would be dominated by
repeated field names and decimal float text.  ``cbr`` stores the
records column-wise in compressed chunks:

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

The module keeps that *container* apart from the *chunk payload codec*.
The container — head, frame headers, CRCs, footer, trailer — is read in
one place (``_read_head``, ``_read_frame``, :func:`read_footer`) and
written in one (``_FrameWriter``), and every kind of damage to it is a
:class:`CbrFormatError` there: a CRC mismatch says framing survived
(skip the frame), a truncation or unknown frame type that it did not
(stop), and the footer, which no CRC covers, is validated before it is
returned.  The codec turns a frame's payload into columns and back and
reports its own damage once, in ``_open_chunk``.  The writer and the
two readers sit on both; what a reader does with damage — raise, or
count and read on — is its ``errors=`` policy, kept in ``_ChunkReader``.

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
from functools import cached_property
from itertools import accumulate as _accumulate
from itertools import compress as _compress
from math import inf as _inf
from operator import sub as _operator_sub
from typing import IO, NamedTuple

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
        """Columns over in-memory records (the library path: scanner
        datasets into ``accuracy_study`` or ``AnalysisEngine.run``).

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
# The container: head, frames, footer, trailer.  Nothing below this
# section unpacks a header, checks a CRC or tracks an offset.
# ----------------------------------------------------------------------

_FRAME_HEADERS = {
    _FRAME_CHUNK: _CHUNK_HEADER,
    _FRAME_FOOTER: _FOOTER_HEADER,
    _FRAME_INDEX: _INDEX_HEADER,
}
_NUMBER_TYPES = frozenset({int, float})


class _CrcMismatch(CbrFormatError):
    """A frame whose payload fails its CRC.  Its length field held, so
    the stream stands at the next frame and a tolerant reader goes on;
    after any other :class:`CbrFormatError` framing is lost."""


class _Frame(NamedTuple):
    type: int
    payload: bytes
    crc: int | None = None  # chunk and index frames
    n_records: int = 0  # chunk frames
    kind: int = 0


def _read_head(stream: IO[bytes]) -> None:
    """Consume the magic and a supported version byte, or raise.  The
    readers start here, and so does the spool's intake check
    (:meth:`repro.service.spool.SpoolStore.submit_file`)."""
    head = stream.read(len(CBR_MAGIC) + 1)
    if head[: len(CBR_MAGIC)] != CBR_MAGIC:
        raise CbrFormatError("not a cbr stream (bad magic)")
    version = head[len(CBR_MAGIC) :]
    if not version or version[0] not in _SUPPORTED_VERSIONS:
        raise CbrFormatError(f"unsupported cbr version {list(version)}")


def _read_frame(stream: IO[bytes]) -> _Frame | None:
    """The frame ``stream`` stands at; ``None`` at a clean end of stream.

    Raises :class:`_CrcMismatch` for a payload that fails its CRC and
    plain :class:`CbrFormatError` for an unknown frame type or a
    truncated frame.
    """
    tag = stream.read(1)
    if not tag:
        return None
    header = _FRAME_HEADERS.get(tag[0])
    if header is None:
        raise CbrFormatError(f"unknown frame type 0x{tag[0]:02x}")
    fields = stream.read(header.size)
    if len(fields) < header.size:
        raise CbrFormatError(f"truncated 0x{tag[0]:02x} frame header")
    payload_len, *rest = header.unpack(fields)
    payload = stream.read(payload_len)
    if len(payload) < payload_len:
        raise CbrFormatError(f"truncated 0x{tag[0]:02x} frame payload")
    if rest and zlib.crc32(payload) != rest[0]:
        raise _CrcMismatch(f"0x{tag[0]:02x} frame CRC mismatch")
    return _Frame(tag[0], payload, *rest)


def _frame_at(stream: IO[bytes], offset: int, frame_type: int) -> _Frame:
    """The ``frame_type`` frame a footer or trailer says starts at ``offset``."""
    stream.seek(offset)
    frame = _read_frame(stream)
    if frame is None or frame.type != frame_type:
        raise CbrFormatError(f"no 0x{frame_type:02x} frame at offset {offset}")
    return frame


def _is_count(value) -> bool:
    return type(value) is int and value >= 0


def _is_list(value, of_numbers: bool = False) -> bool:
    """``null``, or a list (of ints and floats — no bools — if asked)."""
    return value is None or (
        type(value) is list
        and (not of_numbers or _NUMBER_TYPES.issuperset(map(type, value)))
    )


def _zone_ok(zone) -> bool:
    """Whether a ``zones`` entry is ``null`` or what :func:`_zone_entry`
    writes and the query planner reads (unknown keys are the future's)."""
    if not isinstance(zone, dict):
        return zone is None
    get = zone.get
    bloom, week, time_ms = get("d") or "", get("w"), get("t")
    try:  # hex, and all of it (fromhex alone would skip whitespace)
        if 2 * len(bytes.fromhex(bloom)) != len(bloom):
            return False
    except (TypeError, ValueError):
        return False
    return (
        _is_list(week, True) and (week is None or len(week) == 2)
        and _is_list(time_ms, True) and (time_ms is None or len(time_ms) == 2)
        and _is_list(get("p")) and _is_list(get("f")) and _is_list(get("b"))
        and _is_list(get("e"), True)
    )


def _footer_ok(footer, end: int) -> bool:
    """Whether ``footer`` is what its consumers index into without
    looking: frames that start and end before ``end`` (the footer
    frame's own offset), optional sections of the right shape."""
    if not isinstance(footer, dict) or not isinstance(footer.get("chunks"), list):
        return False
    for entry in footer["chunks"]:
        if not (
            isinstance(entry, list) and len(entry) == 4 and all(map(_is_count, entry))
            and entry[0] + entry[1] < end
        ):
            return False
    zones = footer.get("zones")
    if zones is not None and not (isinstance(zones, list) and all(map(_zone_ok, zones))):
        return False
    index = footer.get("domain_index")
    return index is None or (
        isinstance(index, dict)
        and _is_count(index.get("at")) and _is_count(index.get("rows"))
        and index["at"] + index["rows"] * _INDEX_ROW_SIZE < end
    )


def read_footer(stream: IO[bytes]) -> dict:
    """Read and validate the footer index of a seekable cbr stream.

    The footer is the one part of the container no CRC covers, so what
    comes back has been checked: ``chunks`` is a list of ``[offset,
    payload_len, n_records, kind]`` counts inside the file, ``zones`` is
    absent or a list of ``null`` / pruning digests, ``domain_index`` is
    absent or ``{"at": offset, "rows": n}``.  Anything else — no
    trailer, a payload that does not inflate or parse, another shape —
    is :class:`CbrFormatError`.
    """
    tail = stream.seek(0, 2) - _TRAILER.size
    if tail < len(CBR_MAGIC) + 1:
        raise CbrFormatError("stream too short for a cbr footer")
    stream.seek(tail)
    footer_offset, magic = _TRAILER.unpack(stream.read(_TRAILER.size))
    if magic != _END_MAGIC:
        raise CbrFormatError("missing cbr end marker (truncated artifact?)")
    if footer_offset >= tail:
        raise CbrFormatError("footer offset points outside the stream")
    frame = _frame_at(stream, footer_offset, _FRAME_FOOTER)
    if stream.tell() != tail:
        raise CbrFormatError("footer frame does not end at the trailer")
    try:
        footer = json.loads(zlib.decompress(frame.payload))
    except (zlib.error, ValueError, RecursionError) as error:
        raise CbrFormatError(f"unreadable cbr footer: {error}") from None
    if not _footer_ok(footer, footer_offset):
        raise CbrFormatError("cbr footer has the wrong shape")
    return footer


def _write_footer(write, footer_offset: int, footer: dict) -> None:
    """Serialize the footer frame + trailer through ``write``."""
    payload = zlib.compress(
        json.dumps(footer, separators=(",", ":")).encode("utf-8"), 6
    )
    write(bytes([_FRAME_FOOTER]))
    write(_FOOTER_HEADER.pack(len(payload)))
    write(payload)
    write(_TRAILER.pack(footer_offset, _END_MAGIC))


class _FrameWriter:
    """The one container writer: the head at once, a frame per
    :meth:`chunk`, and on :meth:`close` the index frame, footer and
    trailer — built from the offset, chunk table, zone list and index
    rows it kept on the way.  :class:`CbrWriter` feeds it chunks it
    encoded, :func:`concat_frames` chunks it copied.  ``version`` 1 is
    the exact pre-zone-map container: schema-1 footer, no zones, no index.
    """

    def __init__(self, stream: IO[bytes], version: int = _FORMAT_VERSION) -> None:
        self._stream = stream
        self._version = version
        self._offset = 0
        self.chunks: list[list[int]] = []  # [offset, payload_len, n_records, kind]
        self.records_written = 0
        self._zones: list[dict | None] = []
        self._index_rows: set[bytes] | None = None if version == 1 else set()
        self._write(CBR_MAGIC + bytes([version]))

    def _write(self, data: bytes) -> None:
        self._stream.write(data)
        self._offset += len(data)

    def chunk(self, payload: bytes, n_records: int, kind: int, zone=None, crc=None) -> int:
        """Append one chunk frame (and its ``zones`` entry); returns its
        ordinal.  ``crc`` spares a copier that just verified the payload
        a second pass over it."""
        if crc is None:
            crc = zlib.crc32(payload)
        self.chunks.append([self._offset, len(payload), n_records, kind])
        self._zones.append(zone)
        self.records_written += n_records
        self._write(bytes([_FRAME_CHUNK]))
        self._write(_CHUNK_HEADER.pack(len(payload), crc, n_records, kind))
        self._write(payload)
        return len(self.chunks) - 1

    def index(self, key: bytes | None, ordinal: int = 0) -> None:
        """List chunk ``ordinal`` under domain hash ``key``.  ``None`` (a
        source without an index) drops the section for good: a partial
        index would make point lookups silently incomplete."""
        if key is None:
            self._index_rows = None
        elif self._index_rows is not None:
            self._index_rows.add(key + ordinal.to_bytes(4, "big"))

    def close(self, kind: int | None = None) -> None:
        """Write index frame, footer and trailer.  ``kind`` lets an empty
        artifact announce what it would have held."""
        if kind is None:
            kind = self.chunks[0][3] if self.chunks else KIND_RECORDS
        footer = {
            "schema": 1 if self._version == 1 else FOOTER_SCHEMA,
            "records": self.records_written,
            "kind": kind,
            "chunks": self.chunks,
        }
        if self._version != 1:
            footer["zones"] = self._zones
            footer["bloom"] = {"hashes": _BLOOM_HASHES}
        if self._index_rows is not None:
            # Sorted rows keep the index bytes independent of insertion
            # order and make the lookup a binary search.
            rows = b"".join(sorted(self._index_rows))
            footer["domain_index"] = {
                "at": self._offset, "rows": len(rows) // _INDEX_ROW_SIZE,
            }
            self._write(bytes([_FRAME_INDEX]))
            self._write(_INDEX_HEADER.pack(len(rows), zlib.crc32(rows)))
            self._write(rows)
        _write_footer(self._write, self._offset, footer)


# ----------------------------------------------------------------------
# Writer and readers: chunk payloads in and out of the container.
# ----------------------------------------------------------------------


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
        self._chunk_records = chunk_records
        self._kind = kind
        self._compat_v1 = compat_v1
        self._records: list[ConnectionRecord] = []
        self._domains: list = []
        self._frames = _FrameWriter(stream, 1 if compat_v1 else _FORMAT_VERSION)
        self._closed = False

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
        records = self._records
        if not records and not self._domains:
            return
        payload = _encode_chunk(
            records,
            self._kind,
            self._domains if self._kind == KIND_DOMAINS else None,
            with_week=not self._compat_v1,
        )
        zone = None if self._compat_v1 else _zone_entry(records)
        ordinal = self._frames.chunk(payload, len(records), self._kind, zone)
        if not self._compat_v1:
            for name in {record.domain for record in records}:
                self._frames.index(_domain_hash_bytes(name), ordinal)
        self._records = []
        self._domains = []

    def close(self) -> int:
        """Flush, write footer + trailer; returns records written."""
        if not self._closed:
            self._flush()
            # An empty domain-kind artifact must still announce its kind so
            # readers can validate (`domain_batches` on a records file).
            self._frames.close(self._kind)
            self._closed = True
        return self._frames.records_written


def write_records_cbr(
    records: Iterable[ConnectionRecord],
    stream: IO[bytes],
    chunk_records: int = _DEFAULT_CHUNK_RECORDS,
) -> int:
    """Write a plain connection-record artifact; returns the count."""
    writer = CbrWriter(stream, chunk_records=chunk_records)
    writer.write_records(records)
    return writer.close()


def _open_chunk(
    payload: bytes,
    want_edges_received: bool = True,
    want_edges_sorted: bool = True,
    ip_cache: dict | None = None,
) -> RecordBatch:
    """One chunk frame's payload, inflated and decoded into a batch — and
    the one place a payload failing at either becomes :class:`CbrFormatError`."""
    try:
        chunk, _strings, _pos = _decode_columns(
            zlib.decompress(payload), want_edges_received, want_edges_sorted, ip_cache
        )
    except (zlib.error, *_COLUMN_DECODE_ERRORS) as error:
        raise CbrFormatError(f"chunk payload does not decode: {error!r}") from None
    return RecordBatch._from_chunk(chunk)


class _ChunkReader:
    """What both readers share: the ``errors=`` policy and the way from
    chunk frames to batches.

    ``errors="raise"`` turns any damage into :class:`CbrFormatError`;
    ``errors="count"`` mirrors the tolerant qlog JSONL reader: what is
    damaged is skipped and counted in ``corrupt_chunks``.
    """

    def __init__(self, stream: IO[bytes], errors: str) -> None:
        if errors not in ("raise", "count"):
            raise ValueError("errors must be 'raise' or 'count'")
        self._stream = stream
        self._errors = errors
        self.corrupt_chunks = 0
        self.records_read = 0
        self._ip_cache: dict = {}

    def _damaged(self, error: CbrFormatError) -> None:
        if self._errors == "raise":
            raise error
        self.corrupt_chunks += 1

    def _batches(
        self, frames: Iterable[_Frame], want_edges_received: bool, want_edges_sorted: bool
    ) -> Iterator[RecordBatch]:
        for frame in frames:
            try:
                batch = _open_chunk(
                    frame.payload, want_edges_received, want_edges_sorted, self._ip_cache
                )
            except CbrFormatError as error:
                self._damaged(error)
                continue
            self.records_read += len(batch)
            yield batch


class CbrReader(_ChunkReader):
    """Sequential cbr reader (works on pipes; no seeking required).

    Under ``errors="count"`` a frame with a bad CRC or an undecodable
    payload is skipped, and where framing is lost — a bad head, an
    unknown frame type, a stream truncated mid-frame — the damage is
    counted once and the iteration ends.
    """

    def __init__(self, stream: IO[bytes], errors: str = "raise") -> None:
        super().__init__(stream, errors)
        self._framed = True
        try:
            _read_head(stream)
        except CbrFormatError as error:
            self._framed = False
            self._damaged(error)

    def _chunk_frames(self) -> Iterator[_Frame]:
        """The chunk frames up to the footer (or a clean end: a
        footer-less stream fragment), for as long as framing holds."""
        while self._framed:
            try:
                frame = _read_frame(self._stream)
            except CbrFormatError as error:
                self._framed = isinstance(error, _CrcMismatch)
                self._damaged(error)
                continue
            if frame is None or frame.type == _FRAME_FOOTER:
                return
            if frame.type == _FRAME_CHUNK:  # the index is seek-only data
                yield frame

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
        return self._batches(self._chunk_frames(), want_edges_received, want_edges_sorted)

    def domain_batches(self) -> Iterator[list[DomainResultData]]:
        """Yield per-chunk domain groupings (``KIND_DOMAINS`` files)."""
        for frame in self._chunk_frames():
            if frame.kind != KIND_DOMAINS:
                raise CbrFormatError("artifact holds plain records, not domain results")
            try:
                payload = zlib.decompress(frame.payload)
                if payload[0] & _CHUNK_KIND_MASK != KIND_DOMAINS:
                    raise CbrFormatError("chunk has no domain columns")
                chunk, strings, pos = _decode_columns(payload, ip_cache=self._ip_cache)
                records = chunk.records(range(len(chunk.domains)))
                domains = _decode_domain_columns(
                    payload, pos, strings, records, self._ip_cache
                )
            except (zlib.error, *_COLUMN_DECODE_ERRORS) as error:
                self._damaged(CbrFormatError(f"domain chunk does not decode: {error!r}"))
                continue
            self.records_read += len(records)
            yield domains


class CbrIndexedReader(_ChunkReader):
    """Random-access cbr reader over a seekable stream.

    Reads the footer once, then decodes exactly the chunk ordinals it is
    asked for — this is the decode backend of the predicate-pushdown
    query planner: planning happens on the footer's zone maps, and only
    the surviving ordinals are ever inflated.  Whatever ``errors`` says,
    a stream with no readable footer (torn, damaged, of another shape)
    raises :class:`CbrFormatError`: callers fall back to the sequential
    reader, which needs none.
    """

    def __init__(self, stream: IO[bytes], errors: str = "raise") -> None:
        super().__init__(stream, errors)
        stream.seek(0)
        _read_head(stream)
        self.footer = read_footer(stream)

    @cached_property
    def _index_rows(self) -> bytes | None:
        """The packed index rows, loaded and validated once on demand."""
        info = self.footer.get("domain_index")
        if info is None:
            return None
        try:
            rows = _frame_at(self._stream, info["at"], _FRAME_INDEX).payload
            if len(rows) != info["rows"] * _INDEX_ROW_SIZE:
                raise CbrFormatError("domain index is not the size the footer lists")
        except CbrFormatError as error:
            # A broken *optional* index only costs pruning opportunity:
            # report the damage and answer queries from zone maps alone.
            self._damaged(error)
            return None
        return rows

    def domain_index_lookup(self, name: str) -> list[int] | None:
        """Chunk ordinals that may hold ``name``.

        ``None`` means "no usable index" (pre-index file, or a damaged
        index frame in tolerant mode) — the caller must fall back to
        scanning every chunk the zone maps allow.  An empty list is a
        definitive miss: the index is complete, so an unlisted hash
        proves the domain is absent.
        """
        rows = self._index_rows
        if rows is None:
            return None
        return _index_rows_lookup(rows, _domain_hash_bytes(name))

    def _chunk_frames(self, ordinals: Sequence[int]) -> Iterator[_Frame]:
        chunks = self.footer["chunks"]
        for ordinal in ordinals:
            offset, payload_len, _n, _kind = chunks[ordinal]
            try:
                frame = _frame_at(self._stream, offset, _FRAME_CHUNK)
                if len(frame.payload) != payload_len:
                    raise CbrFormatError(f"chunk {ordinal} is not the size the footer lists")
            except CbrFormatError as error:
                self._damaged(error)
                continue
            yield frame

    def read_chunks(
        self,
        ordinals: Sequence[int],
        want_edges_received: bool = True,
        want_edges_sorted: bool = True,
    ) -> Iterator[RecordBatch]:
        """Yield one :class:`RecordBatch` per requested chunk ordinal."""
        return self._batches(
            self._chunk_frames(ordinals), want_edges_received, want_edges_sorted
        )


def _copy_frames(source: IO[bytes], writer: _FrameWriter) -> None:
    """Append one source's chunks to ``writer``; any damage raises."""
    footer: dict = {}
    if source.seekable():
        try:
            footer = read_footer(source)
        except CbrFormatError:
            pass  # the frames still copy; zones and index have no source
        source.seek(0)
    zones = footer.get("zones") or []
    base = len(writer.chunks)
    rows: bytes | None = None
    _read_head(source)
    while (frame := _read_frame(source)) is not None and frame.type != _FRAME_FOOTER:
        if frame.type == _FRAME_INDEX:
            # Index rows carry source-local ordinals, so the frame is
            # consumed (rebased below), never copied verbatim.
            rows = frame.payload
            continue
        # Footer chunk entries are in file order, exactly the order this
        # loop walks, so zone entries re-align by position.
        copied = len(writer.chunks) - base
        zone = zones[copied] if copied < len(zones) else None
        writer.chunk(frame.payload, frame.n_records, frame.kind, zone, frame.crc)
    if rows is None or footer.get("domain_index") is None or len(rows) % _INDEX_ROW_SIZE:
        writer.index(None)
        return
    for start in range(0, len(rows), _INDEX_ROW_SIZE):
        ordinal = int.from_bytes(
            rows[start + _INDEX_HASH_SIZE : start + _INDEX_ROW_SIZE], "big"
        )
        writer.index(rows[start : start + _INDEX_HASH_SIZE], base + ordinal)


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
    instead.  A damaged source raises :class:`CbrFormatError`, with
    ``out`` part-written.  Returns ``(chunks, records)``.
    """
    writer = _FrameWriter(out)
    for source in sources:
        if isinstance(source, (str, os.PathLike)):
            with open(source, "rb") as stream:
                _copy_frames(stream, writer)
        else:
            _copy_frames(source, writer)
    writer.close()
    return len(writer.chunks), writer.records_written
