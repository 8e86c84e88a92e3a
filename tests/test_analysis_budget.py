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
record.  The pass is counted twice: over an archive whose chunks share
their sorted edge block with the received one, and over one in which
every spinning connection's first two sorted edges are swapped, so every
chunk decodes both blocks (as most chunks of a real scan do).  The count is a pure function of the code and the archive, so a
regression shows as a number.  The week indexer has the same kind of
number: calls per record of one ``fold_pending`` of a 500-record week,
and the calls that fold adds per artifact the ledger already lists (a
fold pays for new work, not for spool history).  The read after it has
one too: what the first ``summary_body("all", ...)`` after folding a new
week spends per week the index holds (the merged view adds the new week
and merges no other week again, and a week file whose stat key did not
move is not read), held within 10 % from 5 weeks to the paper's 58.

=======================  ===============  =======  ==================  ==============  =============  ============  ==============  ===================  ==============
all-section pass          record objects  columns  count-based series  derived column  batch counts  shared block  compact ledger  compact week files  stat-keyed weeks
=======================  ===============  =======  ==================  ==============  =============  ============  ==============  ===================  ==============
calls per record                    66.3     43.9                43.2            28.6           18.0          16.8            16.8                 16.8            16.8
— unshared sorted block                —        —                   —               —              —             —            20.2                 20.2            20.2
calls per folded record                —        —                77.0            62.4           54.4          54.2            54.1                 27.2            27.2
calls per listed artifact              —        —                   —               —           47.3           8.0             3.0                  3.0             3.0
calls per indexed week                 —        —                   —               —              —             —          ~1150                 11.0             3.0
=======================  ===============  =======  ==================  ==============  =============  ============  ==============  ===================  ==============

The last test holds the folds to their memory contract: a fold's state
is counters, so it is as large after eight passes as after one.
"""

import ast
import dataclasses
import os
import pickle
from pathlib import Path

import pytest

from conftest import archive_week_label, count_calls, make_archive_week
from repro.analysis.engine import AnalysisEngine, build_record_folds
from repro.analysis.query import Eq, QueryStats, filter_batch
from repro.artifacts import cbr, open_query_source, open_record_batches
from repro.artifacts.cbr import write_records_cbr
from repro.core.observer import spin_rtts_from_edges
from repro.cli import main
from repro.service import ServiceState, SpoolStore, WeekIndexer
from repro.service.summary import WeekSummary

WEEKS = 26
PER_WEEK = 300
CHUNK_RECORDS = 256

#: Calls per record of the all-section pass, as measured; the gate
#: allows +10 %.
CALLS_PER_RECORD_MEASURED = 16.8
#: The same over the archive whose sorted edge blocks are not shared.
CALLS_PER_UNSHARED_RECORD_MEASURED = 20.2

#: Calls per record of folding one spooled week of ``FOLD_WEEK_RECORDS``
#: into a fresh index (decode, six folds, week file, ledger), likewise.
#: 54.1 while the week file was written with ``indent`` (the pure-Python
#: JSON encoder) through a merge into an empty summary.
FOLD_WEEK_RECORDS = 500
CALLS_PER_FOLDED_RECORD_MEASURED = 27.2

#: Calls one ``fold_pending`` spends per spooled artifact the ledger
#: already lists (measured 3.0: a set lookup, and the ledger's own
#: rewrite by the C encoder); an indented ledger, which takes the
#: pure-Python encoder, costs 8, and a fold that builds an entry per
#: listed artifact ~47.
CALLS_PER_LISTED_ARTIFACT_GATE = 5

#: Calls the first ``summary_body("all", ...)`` after a fold spends per
#: week the index holds (measured 3.0: a lookup, the check and its
#: ``os.stat``): every new index version stats each week file once, so
#: that a week rewritten by anyone shows, and reads only those whose
#: stat key moved; the merged view then adds only the new week.  Reading
#: and hashing each file cost 11.0 calls per week (gate 12); merging
#: every week again, as the view did before that, ~1150.
CALLS_PER_INDEXED_WEEK_GATE = 4
#: The weekly scans behind the paper's Fig. 2.
PAPER_WEEKS = 58
WEEK_NS = 7 * 86_400 * 10**9


def write_archive(directory, reorder=False):
    """The 26-week archive; with ``reorder``, every connection with two
    or more edges has its first two sorted edges swapped (and its sorted
    RTT series follows them, as the observer's would)."""
    records = [r for week in range(WEEKS) for r in make_archive_week(week, PER_WEEK)]
    if reorder:
        for record in records:
            observation = record.observation
            edges = observation.edges_sorted
            if len(edges) >= 2:
                edges[0], edges[1] = edges[1], edges[0]
                observation.rtts_sorted_ms = spin_rtts_from_edges(edges)
    path = directory / "archive.cbr"
    with open(path, "wb") as stream:
        write_records_cbr(records, stream, chunk_records=CHUNK_RECORDS)
    return path, records


@pytest.fixture(scope="module")
def archive(tmp_path_factory):
    return write_archive(tmp_path_factory.mktemp("budget"))


@pytest.fixture(scope="module")
def unshared_archive(tmp_path_factory):
    return write_archive(tmp_path_factory.mktemp("budget-unshared"), reorder=True)


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


def calls_of_the_first_all_read(directory, weeks):
    """The first ``summary_body("all", ...)`` after one new week is folded
    into an index of ``weeks`` weeks whose merged view was read before
    the fold.  Every week holds the same ``FOLD_WEEK_RECORDS`` domains, as
    a campaign's weekly scans of one population do, and the earlier
    weeks' files are a week older each, as weekly folds leave them.
    Returns the calls of that read and of a second ``all`` read and a
    one-week read after it (``summary_body`` as each request calls it);
    the body must equal a fresh server's (a full merge)."""
    directory.mkdir()
    spool = SpoolStore(directory / "spool")
    state = ServiceState(spool, WeekIndexer(directory / "index"))
    records = make_archive_week(0, FOLD_WEEK_RECORDS)
    artifact = directory / "artifact.cbr"

    def fold(offsets):
        with open(artifact, "wb") as stream:
            write_records_cbr(
                [
                    dataclasses.replace(record, week=archive_week_label(offset))
                    for offset in offsets
                    for record in records
                ],
                stream,
            )
        spool.submit_file(artifact)
        assert len(state.indexer.fold_pending(spool)) == 1

    fold(range(weeks))
    folded_ns = os.stat(state.indexer.directory / "ledger.json").st_mtime_ns
    for offset in range(weeks):
        age_ns = (weeks - offset) * WEEK_NS
        os.utime(
            state.indexer.week_path(archive_week_label(offset)),
            ns=(folded_ns - age_ns, folded_ns - age_ns),
        )
    state.summary_body("all", "adoption", WeekSummary.adoption)
    fold([weeks])
    read = lambda week: state.summary_body(week, "adoption", WeekSummary.adoption)  # noqa: E731
    calls, body = count_calls(lambda: read("all"))
    fresh = ServiceState(spool, WeekIndexer(directory / "index"))
    assert body == fresh.summary_body("all", "adoption", WeekSummary.adoption)
    week = archive_week_label(weeks // 2)
    read(week)
    steady_all, again = count_calls(lambda: read("all"))
    steady_week, _ = count_calls(lambda: read(week))
    assert again == body
    return calls, steady_all, steady_week


class TestWorkBudget:
    def test_all_section_pass_fits_the_budget(self, archive):
        path, records = archive
        full_pass(path)  # warm: the shared AS database, week-serial cache
        assert calls_per_record(path) <= CALLS_PER_RECORD_MEASURED * 1.10

    def test_an_unshared_pass_fits_its_budget(self, unshared_archive):
        path, records = unshared_archive
        with open_record_batches(str(path)) as source:
            batches = list(source.batches())
        assert not any(batch.rtts_sorted is batch.rtts_received for batch in batches)
        results, read = full_pass(path)
        assert read == len(records)
        assert results == AnalysisEngine(build_record_folds("all")).run([records])
        assert calls_per_record(path) <= CALLS_PER_UNSHARED_RECORD_MEASURED * 1.10

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

    def test_the_first_all_read_after_a_fold_adds_the_new_week(self, tmp_path):
        """The merged view's cost after a fold is the new week, not the
        index: 58 weeks, the paper's campaign, cost what 5 do but for a
        stat of each week file; a read under an unchanged index costs the
        same at any length."""
        calls_of_the_first_all_read(tmp_path / "warm", 2)
        few, few_all, few_week = calls_of_the_first_all_read(tmp_path / "few", 5)
        many, many_all, many_week = calls_of_the_first_all_read(
            tmp_path / "many", PAPER_WEEKS
        )
        per_week = (many - few) / (PAPER_WEEKS - 5)
        print(f"first all read: {few} / {many} calls at 5 / {PAPER_WEEKS} weeks, "
              f"{per_week:.1f} per indexed week; a read after it: "
              f"{few_all} / {many_all} (all), {few_week} / {many_week} (one week)")
        assert many <= few * 1.10
        assert per_week <= CALLS_PER_INDEXED_WEEK_GATE
        assert (many_all, many_week) == (few_all, few_week)


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
