"""The one scan core: stream invariants and the gate that keeps it one.

``repro.web.parallel.shard_stream`` is the only route from targets to
results.  The property test drives it with a fake pool whose units
complete in a Hypothesis-chosen order (and a fake checkpoint holding an
arbitrary subset of shards), so the ordering, coverage, window and
persistence invariants are checked for schedules no real pool would
produce on demand.  The AST gate fails when a second route appears.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.web.parallel as parallel_mod
from repro.faults.checkpoint import encode_domain_results
from repro.internet.population import PopulationConfig, build_population
from repro.telemetry import Telemetry
from repro.web.parallel import ParallelScanConfig, shard_stream
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


def _unit_telemetry(start: int) -> tuple:
    """A worker bundle whose one trace row names the unit's start."""
    bundle = Telemetry()
    bundle.tracer.event("unit", start=start)
    return bundle.registry, bundle.tracer.records, bundle.tracer.diag_records


class FakeFuture:
    def __init__(self, value):
        self._value = value

    def result(self):
        return self._value

    def cancel(self):
        return False


class Harness:
    """Fake pool + fake checkpoint + the bookkeeping the property reads."""

    def __init__(self, truth, preloaded, draw_done):
        self.truth = truth
        self.preloaded = preloaded
        self.draw_done = draw_done
        self.submitted: list[tuple[int, int]] = []
        self.loaded: list[int] = []
        self.saved: list[int] = []
        self.emitted = 0
        self.peak_outstanding = 0

    def _took_a_slot(self) -> None:
        outstanding = len(self.submitted) + len(self.loaded) - self.emitted
        self.peak_outstanding = max(self.peak_outstanding, outstanding)

    # -- the pool ------------------------------------------------------

    def submit(self, function, task):
        assert function is parallel_mod._scan_unit
        start, count = task[0], task[1]
        self.submitted.append((start, count))
        self._took_a_slot()
        return FakeFuture(
            (
                encode_domain_results(self.truth[start : start + count]),
                _unit_telemetry(start),
            )
        )

    def wait(self, inflight, return_when):
        pending = sorted(inflight, key=lambda future: inflight[future])
        return set(self.draw_done(pending)), set()

    # -- the checkpoint ------------------------------------------------

    def load_shard(self, index, targets):
        if index not in self.preloaded:
            return None
        self.loaded.append(index)
        self._took_a_slot()
        start = self.truth.index(
            next(r for r in self.truth if r.domain == targets[0])
        )
        return self.truth[start : start + len(targets)]

    def save_shard(self, index, shard):
        self.saved.append(index)

    # -- the inline executor ---------------------------------------------

    def scan_shard(self, domains, week_label, ip_version, probe):
        start = next(
            i for i, r in enumerate(self.truth) if r.domain == domains[0]
        )
        self.submitted.append((start, len(domains)))
        self._took_a_slot()
        return self.truth[start : start + len(domains)], _unit_telemetry(start)


class TestStreamProperty:
    @settings(max_examples=120, deadline=None)
    @given(
        n=st.integers(0, MAX_DOMAINS),
        chunk=st.integers(1, 20),
        workers=st.integers(1, 4),
        pool=st.booleans(),
        data=st.data(),
    )
    def test_any_completion_order_any_checkpoint(
        self, population, truth, n, chunk, workers, pool, data
    ):
        n_shards = -(-n // chunk)
        preloaded = data.draw(
            st.sets(st.integers(0, max(0, n_shards - 1))), label="preloaded"
        )
        preloaded = {index for index in preloaded if index < n_shards}

        def draw_done(pending):
            return data.draw(
                st.lists(
                    st.sampled_from(pending), min_size=1, unique=True
                ),
                label="completed",
            )

        harness = Harness(truth, preloaded, draw_done)
        telemetry = Telemetry()
        scanner = Scanner(
            population,
            parallel=ParallelScanConfig(
                workers=workers if pool else 1, force_pool=pool
            ),
            telemetry=telemetry,
        )
        domains = population.domains[:n]
        emitted: list[list] = []
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(parallel_mod, "_pool_for", lambda *args: harness)
            patch.setattr(parallel_mod, "wait", harness.wait)
            patch.setattr(scanner, "scan_shard", harness.scan_shard)
            for shard in shard_stream(scanner, domains, WEEK, 4, 0, chunk, harness):
                # Saved (or loaded) strictly before it is yielded.
                ordinal = len(emitted)
                assert (ordinal in harness.saved) != (ordinal in preloaded)
                emitted.append(shard)
                harness.emitted += 1

        # Every ordinal exactly once, ascending: the concatenation is the
        # truth, shard sizes are the fixed plan's.
        assert len(emitted) == n_shards
        assert [r for shard in emitted for r in shard] == truth[:n]
        assert [len(shard) for shard in emitted] == [
            min(chunk, n - start) for start in range(0, n, chunk)
        ]
        # Scanned ranges are disjoint and, with the loaded shards, cover
        # [0, n): no ordinal scanned twice, none scanned and loaded.
        scanned = sorted(harness.submitted)
        assert scanned == [
            (index * chunk, min(chunk, n - index * chunk))
            for index in range(n_shards)
            if index not in preloaded
        ]
        assert sorted(harness.loaded) == sorted(preloaded)
        # Each scanned shard saved exactly once, in emission order.
        assert harness.saved == [start // chunk for start, _ in scanned]
        # Telemetry absorbed in emission order, loaded shards silent.
        assert [
            record.attrs["start"]
            for record in telemetry.tracer.records
            if record.path[-1] == "unit"
        ] == [start for start, _ in scanned]
        # The window bounds what is outstanding, by the stream's own
        # count and by the harness's.
        stats = scanner.last_scan_stats
        window = max(2, workers * 3) if stats["pool"] else 1
        assert stats["pool"] is (pool and n > 0)
        assert stats["units"] == len(scanned)
        assert harness.peak_outstanding <= stats["max_outstanding"] <= window


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
