"""QUIC variable-length integer encoding (RFC 9000, Section 16).

QUIC encodes integers in 1, 2, 4, or 8 bytes; the two most significant
bits of the first byte hold the length exponent.  Frame and header
parsing throughout :mod:`repro.quic` builds on these two functions, and
the property-based tests assert the round-trip and canonical-length
invariants the RFC specifies.
"""

from __future__ import annotations

__all__ = ["MAX_VARINT", "decode_varint", "encode_varint", "varint_length"]

MAX_VARINT = (1 << 62) - 1

_ONE_BYTE_MAX = (1 << 6) - 1
_TWO_BYTE_MAX = (1 << 14) - 1
_FOUR_BYTE_MAX = (1 << 30) - 1


class VarintError(ValueError):
    """Raised when a varint cannot be encoded or decoded."""


def varint_length(value: int) -> int:
    """Number of bytes the canonical encoding of ``value`` occupies."""
    if value < 0 or value > MAX_VARINT:
        raise VarintError(f"varint out of range: {value}")
    if value <= _ONE_BYTE_MAX:
        return 1
    if value <= _TWO_BYTE_MAX:
        return 2
    if value <= _FOUR_BYTE_MAX:
        return 4
    return 8


def encode_varint(value: int) -> bytes:
    """Encode ``value`` as a canonical (shortest-form) QUIC varint."""
    if value < 0 or value > MAX_VARINT:
        raise VarintError(f"varint out of range: {value}")
    # The length exponent goes into the two top bits of the first byte.
    if value <= _ONE_BYTE_MAX:
        return value.to_bytes(1, "big")
    if value <= _TWO_BYTE_MAX:
        return (0x4000 | value).to_bytes(2, "big")
    if value <= _FOUR_BYTE_MAX:
        return (0x8000_0000 | value).to_bytes(4, "big")
    return (0xC000_0000_0000_0000 | value).to_bytes(8, "big")


def decode_varint(data: bytes, offset: int = 0) -> tuple[int, int]:
    """Decode a varint from ``data`` starting at ``offset``.

    Returns ``(value, new_offset)`` where ``new_offset`` points just past
    the consumed bytes.  Raises :class:`VarintError` on truncation.
    """
    size = len(data)
    if offset >= size:
        raise VarintError("varint truncated: no bytes available")
    first = data[offset]
    if first < 0x40:
        return first, offset + 1
    length = 1 << (first >> 6)
    end = offset + length
    if end > size:
        raise VarintError(f"varint truncated: need {length} bytes, have {size - offset}")
    return int.from_bytes(data[offset:end], "big") & ((1 << (8 * length - 2)) - 1), end
