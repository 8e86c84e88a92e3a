"""Replacing a file whole, so a crash never leaves it torn."""

from __future__ import annotations

import os
from pathlib import Path

__all__ = ["replace_file"]


def replace_file(path: Path, payload: bytes) -> None:
    """Write ``payload`` to ``path`` through a ``.tmp`` sibling and
    ``os.replace``: a reader sees the old bytes or the new, never a mix."""
    tmp = path.with_suffix(path.suffix + ".tmp")
    tmp.write_bytes(payload)
    os.replace(tmp, path)
