"""One analysis path, at a fixed cost per record.

Analysis reads :class:`~repro.artifacts.cbr.RecordBatch` columns; a
``ConnectionRecord`` is built only for a caller that iterates a batch.
The first half holds the code to that: with record building patched to
raise, a full ``AnalysisEngine`` pass, a ``--where`` analysis and the
week indexer all still complete, a point lookup builds exactly the rows
it returns, and no fold body (``repro.analysis``, ``FailureFold``,
``repro.service.summary``) walks its batch as records.

The second half is the per-record budget, in the manner of
``test_endpoint_budget``: Python-level calls (``sys.setprofile`` ``call``
+ ``c_call``) of one all-section pass over a 26-week cbr archive, per
record.  The count is a pure function of the code and the archive, so a
regression shows as a number.  The week indexer has the same kind of
number: calls per record of one ``fold_pending`` of a 500-record week,
and the calls that fold adds per artifact the ledger already lists (a
fold pays for new work, not for spool history).

=======================  ===============  =======  ==================  ==============  =============  ============
all-section pass          record objects  columns  count-based series  derived column  batch counts  shared block
=======================  ===============  =======  ==================  ==============  =============  ============
calls per record                    66.3     43.9                43.2            28.6           18.0          16.8
calls per folded record                —        —                77.0            62.4           54.4          54.2
calls per listed artifact              —        —                   —               —           47.3           8.0
=======================  ===============  =======  ==================  ==============  =============  ============

The last test holds the folds to their memory contract: a fold's state
is counters, so it is as large after eight passes as after one.
"""

import ast
import pickle
from pathlib import Path

import pytest

from conftest import archive_week_label, count_calls, make_archive_week
from repro.analysis.engine import AnalysisEngine, build_record_folds
from repro.analysis.query import Eq, QueryStats, filter_batch
from repro.artifacts import cbr, open_query_source, open_record_batches
from repro.artifacts.cbr import write_records_cbr
from repro.cli import main
from repro.service import SpoolStore, WeekIndexer

WEEKS = 26
PER_WEEK = 300
CHUNK_RECORDS = 256

#: Calls per record of the all-section pass, as measured; the gate
#: allows +10 %.
CALLS_PER_RECORD_MEASURED = 16.8

#: Calls per record of folding one spooled week of ``FOLD_WEEK_RECORDS``
#: into a fresh index (decode, six folds, week file, ledger), likewise.
FOLD_WEEK_RECORDS = 500
CALLS_PER_FOLDED_RECORD_MEASURED = 54.2

#: Calls one ``fold_pending`` spends per spooled artifact the ledger
#: already lists (measured 8.0: a set lookup, and the ledger's own
#: rewrite); a fold that builds an entry per listed artifact costs ~47.
CALLS_PER_LISTED_ARTIFACT_GATE = 12


@pytest.fixture(scope="module")
def archive(tmp_path_factory):
    records = [r for week in range(WEEKS) for r in make_archive_week(week, PER_WEEK)]
    path = tmp_path_factory.mktemp("budget") / "archive.cbr"
    with open(path, "wb") as stream:
        write_records_cbr(records, stream, chunk_records=CHUNK_RECORDS)
    return path, records


def full_pass(path):
    engine = AnalysisEngine(build_record_folds("all"))
    with open_record_batches(
        str(path),
        want_edges_received=engine.needs_edges_received,
        want_edges_sorted=engine.needs_edges_sorted,
    ) as source:
        return engine.run(source.batches()), source.records_read


class TestOnePath:
    def test_analysis_never_builds_a_record(self, archive, monkeypatch, tmp_path, capsys):
        path, records = archive
        expected = AnalysisEngine(build_record_folds("all")).run([records])
        assert main(["analyze", str(path), "--where", "week == cw12-2023"]) == 0
        where_text = capsys.readouterr().out

        def refuse(self, rows):
            raise AssertionError("a record was built for analysis")

        monkeypatch.setattr(cbr._ChunkColumns, "records", refuse)
        results, read = full_pass(path)
        assert read == len(records)
        assert results == expected
        assert main(["analyze", str(path), "--where", "week == cw12-2023"]) == 0
        assert capsys.readouterr().out == where_text
        spool = SpoolStore(tmp_path / "spool")
        spool.submit_file(path)
        indexer = WeekIndexer(tmp_path / "index")
        assert len(indexer.fold_pending(spool)) == 1
        assert indexer.weeks() == [archive_week_label(week) for week in range(WEEKS)]
        assert indexer.load_combined().connections_total == len(records)
        with pytest.raises(AssertionError):
            with open_record_batches(str(path)) as source:
                next(source.records())

    def test_a_point_lookup_builds_only_the_rows_it_returns(self, archive, monkeypatch):
        path, records = archive
        wanted = records[len(records) // 2]
        built = []
        build = cbr._ChunkColumns.records

        def counting(self, rows):
            built.append(len(rows))
            return build(self, rows)

        monkeypatch.setattr(cbr._ChunkColumns, "records", counting)
        predicate = Eq("domain", wanted.domain)
        stats = QueryStats()
        with open_query_source(str(path), predicate, stats=stats) as source:
            matched = [
                record
                for batch in source.batches()
                for record in filter_batch(batch, predicate, stats)
            ]
        assert matched == [wanted]
        assert stats.records_scanned == CHUNK_RECORDS
        assert built == [1]

    def test_no_fold_walks_its_batch_as_records(self):
        """In every ``update_many``/``update`` that takes a batch, the
        batch parameter is only ever read through an attribute (a
        column), measured with ``len``, or handed to a fold."""
        src = Path(cbr.__file__).resolve().parents[1]
        modules = sorted((src / "analysis").glob("*.py")) + [
            src / "service" / "summary.py", src / "faults" / "taxonomy.py",
        ]
        checked = []
        for module in modules:
            for node in ast.walk(ast.parse(module.read_text(encoding="utf-8"))):
                if not isinstance(node, ast.FunctionDef) or node.name not in (
                    "update_many", "update"
                ):
                    continue
                params = [arg.arg for arg in node.args.args]
                if params[-1] != "batch":
                    continue
                checked.append(f"{module.name}:{node.lineno}")
                columns = {
                    id(sub.value) for sub in ast.walk(node) if isinstance(sub, ast.Attribute)
                }
                lengths = {
                    id(arg) for sub in ast.walk(node)
                    if isinstance(sub, ast.Call) and getattr(sub.func, "id", None) == "len"
                    for arg in sub.args
                }
                for sub in ast.walk(node):
                    if isinstance(sub, ast.Name) and sub.id == "batch":
                        assert id(sub) in columns | lengths or _is_fold_call(node, sub), (
                            f"{module}:{sub.lineno} uses the batch as records"
                        )
        # The six record folds, the ``RecordFold`` protocol and the week
        # summary.
        assert len(checked) == 8, checked


def _is_fold_call(function: ast.FunctionDef, name: ast.Name) -> bool:
    """``fold.update_many(batch)``: handing the batch on is not reading it."""
    for sub in ast.walk(function):
        if (
            isinstance(sub, ast.Call)
            and isinstance(sub.func, ast.Attribute)
            and sub.func.attr == "update_many"
            and name in sub.args
        ):
            return True
    return False


def calls_per_record(path):
    calls, (_, read) = count_calls(lambda: full_pass(path))
    return calls / read


def calls_per_folded_record(directory):
    """One ``fold_pending`` of one spooled week into a fresh index."""
    directory.mkdir()
    week = directory / "week.cbr"
    with open(week, "wb") as stream:
        write_records_cbr(
            make_archive_week(0, FOLD_WEEK_RECORDS), stream, chunk_records=CHUNK_RECORDS
        )
    spool = SpoolStore(directory / "spool")
    spool.submit_file(week)
    indexer = WeekIndexer(directory / "index")
    calls, folded = count_calls(lambda: indexer.fold_pending(spool))
    assert len(folded) == 1
    assert indexer.load_combined().connections_total == FOLD_WEEK_RECORDS
    return calls / FOLD_WEEK_RECORDS


def calls_of_a_fold_after(directory, folded):
    """One ``fold_pending`` of one ``FOLD_WEEK_RECORDS`` week into an
    index whose ledger already lists ``folded`` 20-record artifacts."""
    directory.mkdir()
    spool = SpoolStore(directory / "spool")
    indexer = WeekIndexer(directory / "index")
    artifact = directory / "artifact.cbr"
    for seed in range(folded):
        with open(artifact, "wb") as stream:
            write_records_cbr(make_archive_week(1, 20, seed=seed), stream)
        spool.submit_file(artifact)
    assert len(indexer.fold_pending(spool)) == folded
    with open(artifact, "wb") as stream:
        write_records_cbr(
            make_archive_week(0, FOLD_WEEK_RECORDS), stream, chunk_records=CHUNK_RECORDS
        )
    spool.submit_file(artifact)
    calls, done = count_calls(lambda: indexer.fold_pending(spool))
    assert len(done) == 1
    return calls


class TestWorkBudget:
    def test_all_section_pass_fits_the_budget(self, archive):
        path, records = archive
        full_pass(path)  # warm: the shared AS database, week-serial cache
        assert calls_per_record(path) <= CALLS_PER_RECORD_MEASURED * 1.10

    def test_the_count_repeats_exactly(self, archive):
        path, _ = archive
        full_pass(path)
        assert calls_per_record(path) == calls_per_record(path)

    def test_a_week_fold_fits_its_budget_and_repeats(self, tmp_path):
        calls_per_folded_record(tmp_path / "warm")  # the AS database, codecs
        first = calls_per_folded_record(tmp_path / "first")
        print(f"fold_pending: {first:.1f} calls per folded record")
        assert first <= CALLS_PER_FOLDED_RECORD_MEASURED * 1.10
        assert first == calls_per_folded_record(tmp_path / "second")

    def test_a_fold_pays_little_for_what_the_ledger_lists(self, tmp_path):
        calls_of_a_fold_after(tmp_path / "warm", 1)
        few = calls_of_a_fold_after(tmp_path / "few", 1)
        many = calls_of_a_fold_after(tmp_path / "many", 61)
        per_artifact = (many - few) / 60
        print(f"fold_pending: {per_artifact:.1f} calls per listed artifact")
        assert per_artifact <= CALLS_PER_LISTED_ARTIFACT_GATE


def _int_leaves(state) -> int:
    if isinstance(state, dict):
        state = list(state.values())
    if isinstance(state, (list, tuple)):
        return sum(map(_int_leaves, state))
    return isinstance(state, int)


class TestStateBudget:
    def test_fold_state_does_not_grow_with_connections(self, archive):
        """Eight passes leave each fold the size one pass did, but for
        the wider encoding of a larger counter (a pickled ``int`` takes
        one, two or four bytes)."""
        path, _ = archive
        folds = build_record_folds("all")

        def one_pass():
            with open_record_batches(
                str(path), want_edges_received=False, want_edges_sorted=False
            ) as source:
                for batch in source.batches():
                    for fold in folds:
                        fold.update_many(batch)

        one_pass()
        once = [len(pickle.dumps(fold)) for fold in folds]
        for _ in range(7):
            one_pass()
        for fold, size in zip(folds, once):
            growth = len(pickle.dumps(fold)) - size
            assert 0 <= growth <= 3 * _int_leaves(fold.state()), (fold.name, growth)
