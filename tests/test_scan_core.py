"""The one scan core: stream invariants and the gate that keeps it one.

``repro.web.parallel.shard_stream`` is the only route from targets to
results.  The property test drives it over streams of one to three
scans with a fake pool whose units complete in a Hypothesis-chosen order
(and a fake checkpoint per scan holding an arbitrary subset of its
shards), so the ordering, coverage, window and persistence invariants
are checked for schedules no real pool would produce on demand.  The AST gate fails when a second route appears.
"""

from __future__ import annotations

import ast
from concurrent.futures import ALL_COMPLETED
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.web.parallel as parallel_mod
from repro.faults.checkpoint import encode_domain_results
from repro.internet.population import PopulationConfig, build_population
from repro.telemetry import Telemetry
from repro.web.parallel import ParallelScanConfig, ShardedScan, shard_stream
from repro.web.scanner import Scanner

WEEK = "cw20-2023"
MAX_DOMAINS = 48


@pytest.fixture(scope="module")
def population():
    return build_population(
        PopulationConfig(toplist_domains=8, czds_domains=MAX_DOMAINS - 8, seed=5)
    )


@pytest.fixture(scope="module")
def truth(population):
    """Real results for every domain, scanned once; the fakes slice it."""
    return Scanner(population).scan(week_label=WEEK).results


def _unit_telemetry(scan: int, start: int) -> tuple:
    """A worker bundle whose one trace row names the unit's scan and start."""
    bundle = Telemetry()
    bundle.tracer.event("unit", scan=scan, start=start)
    return bundle.registry, bundle.tracer.records, bundle.tracer.diag_records


class FakeFuture:
    def __init__(self, value, harness):
        self._value = value
        self._harness = harness

    def result(self):
        return self._value

    def cancel(self):
        self._harness.cancelled.append(self)
        return True


class FakeCheckpoint:
    """One scan's checkpoint: an arbitrary subset of its shards on disk."""

    def __init__(self, harness, scan, preloaded):
        self.harness = harness
        self.scan = scan
        self.preloaded = preloaded
        self.loaded: list[int] = []
        self.saved: list[int] = []

    def load_shard(self, index, targets):
        if index not in self.preloaded:
            return None
        self.loaded.append(index)
        self.harness.dispatched(self.scan, targets)
        truth = self.harness.truth
        start = truth.index(next(r for r in truth if r.domain == targets[0]))
        return truth[start : start + len(targets)]

    def save_shard(self, index, shard):
        self.saved.append(index)


class Harness:
    """Fake pool + fake checkpoints + the bookkeeping the property reads.

    A scan's number travels as its probe, so every unit names its scan.
    ``events`` logs every dispatch and emission in stream order.
    """

    def __init__(self, truth, draw_done):
        self.truth = truth
        self.draw_done = draw_done
        #: (scan, start, count) of every scanned unit, in dispatch order
        self.submitted: list[tuple[int, int, int]] = []
        self.events: list[tuple[str, int, int]] = []
        self.cancelled: list[FakeFuture] = []
        self.emitted = 0
        self.peak_outstanding = 0

    def dispatched(self, scan, targets) -> None:
        start = next(i for i, r in enumerate(self.truth) if r.domain == targets[0])
        self.events.append(("dispatch", scan, start))
        outstanding = sum(kind == "dispatch" for kind, _, _ in self.events) - self.emitted
        self.peak_outstanding = max(self.peak_outstanding, outstanding)

    def emit(self, scan, shard) -> None:
        self.emitted += 1
        self.events.append(("emit", scan, self.truth.index(shard[0])))

    # -- the pool ------------------------------------------------------

    def submit(self, function, task):
        assert function is parallel_mod._scan_unit
        start, count, domains, _, _, scan = task
        self.submitted.append((scan, start, count))
        self.dispatched(scan, domains)
        return FakeFuture(
            (
                encode_domain_results(self.truth[start : start + count]),
                _unit_telemetry(scan, start),
            ),
            self,
        )

    def wait(self, inflight, return_when=ALL_COMPLETED):
        pending = sorted(inflight, key=lambda future: inflight[future])
        if return_when == ALL_COMPLETED:
            return set(pending), set()
        return set(self.draw_done(pending)), set()

    # -- the inline executor ---------------------------------------------

    def scan_shard(self, domains, week_label, ip_version, scan):
        start = next(i for i, r in enumerate(self.truth) if r.domain == domains[0])
        self.submitted.append((scan, start, len(domains)))
        self.dispatched(scan, domains)
        return self.truth[start : start + len(domains)], _unit_telemetry(scan, start)


def _stream(population, scans, workers, pool):
    """A scanner, and its stream of ``scans``: ``(n, chunk,
    checkpoint)`` each, over the first ``n`` domains."""
    scanner = Scanner(
        population,
        parallel=ParallelScanConfig(workers=workers if pool else 1, force_pool=pool),
        telemetry=Telemetry(),
    )
    sharded = [
        ShardedScan(WEEK, 4, number, n, chunk, population.domains[:n], store)
        for number, (n, chunk, store) in enumerate(scans)
    ]
    return scanner, shard_stream(scanner, sharded)


def _install(patch, harness, scanner) -> None:
    """Route the stream's pool, ``wait`` and inline executor to a harness."""
    patch.setattr(parallel_mod, "_pool_for", lambda *args: harness)
    patch.setattr(parallel_mod, "wait", harness.wait)
    patch.setattr(scanner, "scan_shard", harness.scan_shard)


class TestStreamProperty:
    @settings(max_examples=120, deadline=None)
    @given(
        scans=st.lists(
            st.tuples(st.integers(0, MAX_DOMAINS), st.integers(1, 20)),
            min_size=1,
            max_size=3,
        ),
        workers=st.integers(1, 4),
        pool=st.booleans(),
        data=st.data(),
    )
    def test_any_completion_order_any_checkpoint(
        self, population, truth, scans, workers, pool, data
    ):
        def draw_done(pending):
            return data.draw(
                st.lists(st.sampled_from(pending), min_size=1, unique=True),
                label="completed",
            )

        harness = Harness(truth, draw_done)
        stores = []
        for number, (n, chunk) in enumerate(scans):
            n_shards = -(-n // chunk)
            preloaded = data.draw(
                st.sets(st.integers(0, max(0, n_shards - 1))), label="preloaded"
            )
            stores.append(
                FakeCheckpoint(
                    harness, number, {index for index in preloaded if index < n_shards}
                )
            )
        scanner, stream = _stream(
            population,
            [(n, chunk, store) for (n, chunk), store in zip(scans, stores)],
            workers,
            pool,
        )
        emitted: list[list[list]] = [[] for _ in scans]
        with pytest.MonkeyPatch.context() as patch:
            _install(patch, harness, scanner)
            for number, shard in stream:
                # Saved (or loaded) strictly before it is yielded.
                ordinal = len(emitted[number])
                store = stores[number]
                assert (ordinal in store.saved) != (ordinal in store.preloaded)
                assert all(not later for later in emitted[number + 1 :])
                emitted[number].append(shard)
                harness.emit(number, shard)

        total_shards = 0
        absorbed = [
            (record.attrs["scan"], record.attrs["start"])
            for record in scanner.telemetry.tracer.records
            if record.path[-1] == "unit"
        ]
        for number, ((n, chunk), store) in enumerate(zip(scans, stores)):
            shards = emitted[number]
            n_shards = -(-n // chunk)
            total_shards += n_shards
            # Every ordinal exactly once, ascending: the concatenation is
            # the truth, shard sizes are the fixed plan's.
            assert len(shards) == n_shards
            assert [r for shard in shards for r in shard] == truth[:n]
            assert [len(shard) for shard in shards] == [
                min(chunk, n - start) for start in range(0, n, chunk)
            ]
            # Scanned ranges are disjoint and, with the loaded shards,
            # cover [0, n): no ordinal scanned twice, none scanned and
            # loaded.
            scanned = sorted(
                (start, count) for owner, start, count in harness.submitted
                if owner == number
            )
            assert scanned == [
                (index * chunk, min(chunk, n - index * chunk))
                for index in range(n_shards)
                if index not in store.preloaded
            ]
            assert sorted(store.loaded) == sorted(store.preloaded)
            # Each scanned shard saved exactly once, in emission order.
            assert store.saved == [start // chunk for start, _ in scanned]
        # Telemetry absorbed in (scan, ordinal) order, loaded shards silent.
        assert absorbed == sorted((scan, start) for scan, start, _ in harness.submitted)
        # The window bounds what is outstanding, by the stream's own
        # count and by the harness's.
        stats = scanner.last_scan_stats
        window = max(2, workers * 3) if stats["pool"] else 1
        assert stats["pool"] is (pool and total_shards > 0)
        assert stats["units"] == len(harness.submitted)
        assert harness.peak_outstanding <= stats["max_outstanding"] <= window
        # The queue is as deep as the window: before the first emission,
        # min(window, shards) units were dispatched.
        kinds = [kind for kind, _, _ in harness.events]
        if total_shards:
            assert kinds.index("emit") == min(window, total_shards)
        # A pool does not drain at a scan boundary: the next scan's first
        # shard is dispatched before the last shard of the scan before it
        # is emitted.
        if stats["pool"]:
            events = harness.events
            emissions = [event for event in events if event[0] == "emit"]
            for last, first in zip(emissions, emissions[1:]):
                if last[1] != first[1]:
                    assert events.index(("dispatch", *first[1:])) < events.index(last)


class TestStreamClose:
    def test_stopping_cancels_every_queued_shard_of_every_scan(
        self, population, truth, monkeypatch
    ):
        """A consumer that stops after one shard leaves nothing queued:
        the second scan's shards are cancelled with the first's."""
        harness = Harness(truth, lambda pending: pending[:1])
        scanner, stream = _stream(population, [(20, 5, None), (20, 5, None)], 2, True)
        _install(monkeypatch, harness, scanner)
        number, _ = next(stream)
        stream.close()
        assert number == 0
        window = max(2, 2 * 3)
        assert len(harness.submitted) == window
        assert {scan for scan, _, _ in harness.submitted} == {0, 1}
        assert len(harness.cancelled) == window - 1

    def test_streams_are_consumed_in_order(self, population):
        """A scan stream taken before the one ahead of it is done raises
        instead of handing it the other scan's shards."""
        scanner = Scanner(population, parallel=ParallelScanConfig(chunk_size=8))
        streams = scanner.scan_streams(
            [{"domains": population.domains[:16]}, {"domains": population.domains[:16]}]
        )
        first = next(streams)
        next(first)
        with pytest.raises(RuntimeError, match="in order"):
            list(next(streams))
        streams.close()


class TestOneRoute:
    """AST gate: the scan routes cannot grow back.

    Under ``src/repro/web`` there is one place that scans a domain, one
    that submits to a pool, one that absorbs shard telemetry, and one
    function that opens a ``scan:`` span.
    """

    @pytest.fixture(scope="class")
    def modules(self):
        web = Path(parallel_mod.__file__).resolve().parent
        return {
            module.name: ast.parse(module.read_text(encoding="utf-8"))
            for module in sorted(web.glob("*.py"))
        }

    @pytest.mark.parametrize("attribute", ("_scan_domain", "submit", "absorb_shard"))
    def test_single_call_site(self, modules, attribute):
        sites = [
            f"{name}:{call.lineno}"
            for name, tree in modules.items()
            for call in ast.walk(tree)
            if isinstance(call, ast.Call)
            and isinstance(call.func, ast.Attribute)
            and call.func.attr == attribute
        ]
        assert len(sites) == 1, f".{attribute}( called at {sites}"

    def test_only_scan_stream_opens_the_scan_span(self, modules):
        """No function but ``Scanner.scan_stream`` holds a ``scan:…``
        string (the span name is an f-string, so its literal head shows
        up as a constant), docstrings aside."""
        openers = set()
        for name, tree in modules.items():
            for function in ast.walk(tree):
                if not isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                docstring = ast.get_docstring(function, clean=False)
                for node in ast.walk(function):
                    if (
                        isinstance(node, ast.Constant)
                        and isinstance(node.value, str)
                        and node.value.startswith("scan:")
                        and node.value != docstring
                    ):
                        openers.add(f"{name}:{function.name}")
        assert openers == {"scanner.py:scan_stream"}
