"""The two ways durable state is written: a file replaced whole, and a
line appended to a log."""

from __future__ import annotations

import os
from pathlib import Path

__all__ = ["append_line", "replace_file"]


def replace_file(path: Path, payload: bytes) -> None:
    """Write ``payload`` to ``path`` through a ``.tmp`` sibling and
    ``os.replace``: a reader sees the old bytes or the new, never a mix."""
    tmp = path.with_suffix(path.suffix + ".tmp")
    tmp.write_bytes(payload)
    os.replace(tmp, path)


def append_line(path: Path, line: bytes) -> None:
    """Append ``line`` and its ``\\n`` to the log at ``path``: committed
    once the ``\\n`` is on disk, as readers take terminated lines only.
    After a crash mid-append the log ends in a torn line, so this one
    starts a line of its own (glued to the fragment, it would be lost)."""
    line += b"\n"
    with open(path, "a+b") as stream:
        if stream.tell():
            stream.seek(-1, os.SEEK_END)
            if stream.read(1) != b"\n":
                line = b"\n" + line
        stream.write(line)
