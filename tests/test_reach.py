"""``reach.txt`` is well formed: every row names a function and a reason
that holds.

``scripts/reach.py`` writes the file from a census of the entry points
(about 100 s); this test only reads it and the source tree, so it checks
the rows, not the census.  A row that fails here is resolved by deleting
the function or by giving it one of the four reasons (DESIGN.md, "The
reachability census").
"""

import importlib.util
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent

_spec = importlib.util.spec_from_file_location("reach", REPO / "scripts" / "reach.py")
reach = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(reach)

LINES = reach.REACH.read_text().splitlines()
ROWS = {
    tuple(key.split("::", 1)): reason
    for key, _, reason in (line.partition("\t") for line in LINES)
}


@pytest.fixture(scope="module")
def functions():
    return reach.defined_functions()


def test_rows_are_sorted_and_unique():
    assert LINES == sorted(set(LINES))
    assert all(line.count("\t") == 1 for line in LINES)


def test_every_row_names_a_function_in_src(functions):
    assert set(ROWS) <= set(functions)


def test_every_reason_is_one_of_four():
    for row, reason in ROWS.items():
        kind, _, evidence = reason.partition(" ")
        assert kind in reach.REASONS, (row, reason)
        assert bool(evidence) == (kind in ("oracle", "guard")), (row, reason)


def test_bench_rows_are_named_under_bench(functions):
    rows = {row for row, reason in ROWS.items() if reason == "bench"}
    assert rows <= reach.bench_explained(rows, functions)


def test_library_rows_are_public(functions):
    rows = {row for row, reason in ROWS.items() if reason == "library"}
    assert rows <= reach.library_rows(rows, functions)


def test_oracle_and_guard_rows_name_a_test_that_mentions_them():
    for (path, qualname), reason in ROWS.items():
        kind, _, test_file = reason.partition(" ")
        if kind not in ("oracle", "guard"):
            continue
        assert test_file.startswith("tests/") and (REPO / test_file).is_file(), reason
        words = reach._words((REPO / test_file).read_text())
        parts = qualname.split(".")
        # A dunder or private helper is named through its class or module.
        named = {parts[-1]}
        if parts[-1].startswith("_"):
            named |= {parts[0], Path(path).stem}
        assert named & words, (path, qualname, reason)
