"""The documents name only files that exist.

README, DESIGN and EXPERIMENTS point readers at code by backticked
paths; a path that was moved or deleted sends them nowhere.  Every
backticked token whose first component is a repository directory
(``src``, ``tests``, ``scripts``, ``bench``, ``benchmarks``,
``examples``) must name a file or directory of this tree — a pytest
node id (``tests/x.py::Test``) by its file, a command by its first word.
"""

from __future__ import annotations

import re
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
DOCUMENTS = ("README.md", "DESIGN.md", "EXPERIMENTS.md")
ROOTS = frozenset({"src", "tests", "scripts", "bench", "benchmarks", "examples"})
_BACKTICKED = re.compile(r"`([^`\n]+)`")


def named_paths(text: str) -> set[str]:
    """The repository paths ``text`` names between backticks."""
    paths = set()
    for token in _BACKTICKED.findall(text):
        words = token.split("::", 1)[0].split()
        if words and "/" in words[0] and words[0].split("/", 1)[0] in ROOTS:
            paths.add(words[0])
    return paths


@pytest.mark.parametrize("document", DOCUMENTS)
def test_every_backticked_repository_path_exists(document):
    paths = named_paths((REPO_ROOT / document).read_text(encoding="utf-8"))
    assert paths, f"{document} names no repository path: is the pattern stale?"
    assert sorted(p for p in paths if not (REPO_ROOT / p).exists()) == []


def test_a_dangling_path_and_its_neighbours():
    text = (
        "`benchmarks/test_perf_scan_throughput.py`, `tests/test_cbr.py::TestRoundTrip`, "
        "`scripts/stream_scan.py --czds N`, `repro.web.scanner`, `src`, "
        "`README.md`, `python scripts/reach.py`"
    )
    assert named_paths(text) == {
        "benchmarks/test_perf_scan_throughput.py", "tests/test_cbr.py",
        "scripts/stream_scan.py",
    }
