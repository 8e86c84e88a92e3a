"""QUIC version handling.

The paper's scanner (zgrab2 + quic-go) speaks QUIC version 1 and was
extended for draft versions 27, 29, 32, and 34.  The spin bit is a
*version-specific* feature of QUIC v1 (RFC 9000 Section 17.4) that the
drafts in this range also carried, so the observer must know which
versions it may interpret the first short-header bit for.
"""

from __future__ import annotations

from enum import IntEnum

__all__ = ["QuicVersion", "SUPPORTED_VERSIONS"]


class QuicVersion(IntEnum):
    """Wire values of the QUIC versions the reproduction scanner supports."""

    VERSION_1 = 0x00000001
    DRAFT_27 = 0xFF00001B
    DRAFT_29 = 0xFF00001D
    DRAFT_32 = 0xFF000020
    DRAFT_34 = 0xFF000022
    # Version negotiation packets carry version 0; kept for completeness.
    NEGOTIATION = 0x00000000


#: Versions the scanner offers during the handshake, in preference order
#: (QUIC v1 first, matching the paper's quic-go configuration).
SUPPORTED_VERSIONS: tuple[QuicVersion, ...] = (
    QuicVersion.VERSION_1,
    QuicVersion.DRAFT_34,
    QuicVersion.DRAFT_32,
    QuicVersion.DRAFT_29,
    QuicVersion.DRAFT_27,
)
