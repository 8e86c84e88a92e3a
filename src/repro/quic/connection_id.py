"""QUIC connection identifiers.

Connection IDs matter to this study for two reasons: short headers carry
the destination connection ID (so a passive observer must know its
length to parse the header at all), and RFC 9312 allows greasing the
spin bit *per connection ID*, which the configuration analysis of the
paper (Table 3) has to distinguish from per-packet greasing.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

__all__ = ["ConnectionId"]


@dataclass(frozen=True)
class ConnectionId:
    """An immutable QUIC connection ID (0 to 20 bytes)."""

    value: bytes

    MAX_LENGTH = 20

    def __post_init__(self) -> None:
        if len(self.value) > self.MAX_LENGTH:
            raise ValueError(
                f"connection ID too long: {len(self.value)} > {self.MAX_LENGTH}"
            )

    @classmethod
    def generate(cls, rng: random.Random, length: int = 8) -> "ConnectionId":
        """Generate a random connection ID of ``length`` bytes.

        One ``rng.randbytes`` draw rather than a per-byte
        ``getrandbits(8)`` loop: a single underlying ``getrandbits``
        call instead of ``length`` of them.  Note this consumes the RNG
        stream differently than the per-byte form did, so CID values
        (and everything downstream of the same ``random.Random``
        instance) differ from pre-change runs at the same seed — see the
        seed-compatibility note in ``tests/test_connection_id.py``.
        """
        if not 0 <= length <= cls.MAX_LENGTH:
            raise ValueError(f"invalid connection ID length: {length}")
        return cls(rng.randbytes(length))

    def __len__(self) -> int:
        return len(self.value)

    def __bytes__(self) -> bytes:
        return self.value

    @property
    def hex(self) -> str:
        """Hexadecimal rendering used in qlog output."""
        return self.value.hex()
