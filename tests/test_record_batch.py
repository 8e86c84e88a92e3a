"""Column bodies against the per-record bodies they replaced.

The six analysis folds, the week summary and every ``--where`` predicate
node read :class:`~repro.artifacts.cbr.RecordBatch` columns.  The loops
they ran over ``ConnectionRecord`` objects until 256dd08 live on here,
verbatim, as the naive references: random records must give equal fold
results, equal ``WeekSummary.to_json()`` bytes, equal ``QueryStats`` and
equal selected rows whichever way the batch came to be — columns taken
off a list (``from_records``), a chunk decoded from cbr bytes, or a
``take`` of some of a decoded chunk's rows.  The per-connection
counters the folds used until they counted a batch at a time
(``SeriesSummary.add``, ``FilterOutcome.add``) live here too, as the
oracle of ``add_many`` and ``Histogram.add_sorted``.
"""

from __future__ import annotations

import io
import json
from dataclasses import dataclass, field, fields, replace
from itertools import accumulate
from math import inf, nan, nextafter

import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from compliance_oracle import seen_flags
from conftest import count_calls, indented_week_json

from repro._util.stats import Histogram
from repro.analysis.accuracy import (
    ABS_DIFF_EDGES_MS,
    RATIO_EDGES,
    AccuracyFold,
    SeriesSummary,
)
from repro.analysis.asorg import OrgFold
from repro.analysis.compliance import FLAG_SPIN, FLAG_SUCCESS
from repro.analysis.engine import AnalysisEngine, build_record_folds
from repro.analysis.filter_study import FilterFold, FilterOutcome
from repro.analysis.query import (
    And,
    Between,
    Eq,
    In,
    Present,
    QueryError,
    QueryStats,
    filter_batch,
)
from repro.analysis.versions import VersionFold
from repro.analysis.webserver import WebserverFold
from repro.artifacts.cbr import CbrReader, RecordBatch, week_serial, write_records_cbr
from repro.core.classify import SpinBehaviour
from repro.core.heuristics import DynamicThresholdFilter
from repro.core.metrics import compare_means
from repro.core.observer import SpinEdge, SpinObservation, spin_rtts_from_edges
from repro.faults.taxonomy import FailureFold, FailureKind
from repro.internet.asdb import IpAddr, build_default_asdb
from repro.service.summary import WeekSummary
from repro.web.scanner import ConnectionRecord

ASDB = build_default_asdb()
SECTIONS = ("orgs", "webservers", "accuracy", "versions", "filters", "failures")

# ----------------------------------------------------------------------
# The naive references: the former per-record bodies, verbatim.  Each
# subclass keeps the fold's state, ``finish`` and ``state``/``merge``
# and swaps the column loop for the record loop it replaced.
# ----------------------------------------------------------------------


class NaiveOrgFold(OrgFold):
    def update_many(self, records):
        totals = self._totals
        spins = self._spins
        org_of = self._org_of
        lookup = self._asdb.lookup_value
        spin = SpinBehaviour.SPIN
        for connection in records:
            if not connection.success:
                continue
            ip = connection.ip
            org = org_of.get(ip)
            if org is None:
                entry = lookup(ip.value, ip.version)
                org = entry.org_name if entry is not None else "<unrouted>"
                org_of[ip] = org
            totals[org] = totals.get(org, 0) + 1
            if connection.behaviour is spin:
                spins[org] = spins.get(org, 0) + 1


class NaiveWebserverFold(WebserverFold):
    def update_many(self, records):
        counts = self._counts
        spinning_only = self._spinning_only
        spin = SpinBehaviour.SPIN
        for connection in records:
            if not connection.success:
                continue
            if spinning_only and connection.behaviour is not spin:
                continue
            header = connection.server_header or "<none>"
            counts[header] = counts.get(header, 0) + 1


def pair_add_series(series, absolute, ratio):
    """``SeriesSummary.add`` as it was: one connection's ``spin - QUIC``
    (ms) and mapped ratio, nine compares and two histogram bisects."""
    series.connections += 1
    if absolute > 0:
        series.overestimating += 1
    if absolute < 0:
        series.underestimating += 1
    if -25.0 <= absolute <= 25.0:
        series.within_25ms += 1
    if absolute > 200.0:
        series.over_200ms += 1
    if -1.25 <= ratio <= 1.25:
        series.within_25pct += 1
    if -2.0 <= ratio <= 2.0:
        series.within_factor2 += 1
    if ratio > 3.0:
        series.over_factor3 += 1
    series.abs_histogram.add(absolute)
    series.ratio_histogram.add(ratio)


def pair_add_outcome(outcome, absolute, ratio):
    """``FilterOutcome.add`` as it was."""
    outcome.connections += 1
    if -1.25 <= ratio <= 1.25:
        outcome.within_25pct += 1
    if absolute < 0:
        outcome.underestimating += 1


def naive_add(counter, absolute, ratio):
    """One connection counted the per-pair way in a series or a filter
    outcome (and recorded, when the counter records)."""
    seen = getattr(counter, "seen", None)
    if seen is not None:
        seen.append((absolute, ratio))
    if isinstance(counter, SeriesSummary):
        pair_add_series(counter, absolute, ratio)
    else:
        pair_add_outcome(counter, absolute, ratio)


def naive_accuracy(series, stack):
    """``compare_means`` of one connection as ``(absolute_ms, ratio)``,
    or ``None`` under the folds' one rule: a series that is empty or
    whose mean is not in ``(0, inf)`` — all-zero intervals, a sum that
    underflows to a zero mean, NaN or infinity — has no ratio (the
    record loops raised on the first and counted NaN for the last)."""
    for values in (series, stack):
        if not values or not 0.0 < sum(values) / len(values) < inf:
            return None
    result = compare_means(series, stack)
    return result.absolute_ms, result.ratio


class NaiveAccuracyFold(AccuracyFold):
    def update_many(self, records):
        study = self._study
        for connection in records:
            observation = connection.observation
            if len(observation.values_seen) != 2:
                continue
            stack_rtts = connection.stack_rtts_ms
            received = observation.rtts_received_ms
            sorted_series = observation.rtts_sorted_ms
            result_r = naive_accuracy(received, stack_rtts)
            result_s = naive_accuracy(sorted_series, stack_rtts)
            if result_r is None or result_s is None:
                continue
            if connection.behaviour.value == "grease":
                naive_add(study.grease_received, *result_r)
                naive_add(study.grease_sorted, *result_s)
            else:
                naive_add(study.spin_received, *result_r)
                naive_add(study.spin_sorted, *result_s)
                impact = study.reordering
                impact.connections_compared += 1
                delta = abs(result_r[0] - result_s[0])
                if received != sorted_series:
                    impact.connections_changed += 1
                    if delta < 1.0:
                        impact.changed_below_1ms += 1
                    if abs(result_s[0]) <= abs(result_r[0]):
                        impact.changed_improved += 1


class NaiveVersionFold(VersionFold):
    def update_many(self, records):
        counts = self._counts
        for record in records:
            version = record.negotiated_version
            if version is None or not record.success:
                continue
            counts[version] = counts.get(version, 0) + 1


def naive_filter_edges(self: DynamicThresholdFilter, edges):
    """``DynamicThresholdFilter.filter_edges`` as it walked edge objects."""
    accepted: list[SpinEdge] = []
    estimate_ms: float | None = None
    for edge in edges:
        if not accepted:
            accepted.append(edge)
            continue
        interval = edge.time_ms - accepted[-1].time_ms
        if estimate_ms is not None and interval < self.fraction * estimate_ms:
            continue
        accepted.append(edge)
        if len(accepted) >= 2:
            estimate_ms = interval
    return accepted


def _naive_append(outcome, series, stack) -> None:
    result = naive_accuracy(series, stack)
    if result is not None:
        naive_add(outcome, *result)
    else:
        outcome.connections_lost += 1


class NaiveFilterFold(FilterFold):
    def update_many(self, records):
        static_filter = self._static_filter
        hold_filter = self._hold_filter
        study = self._study
        for record in records:
            observation = record.observation
            if len(observation.values_seen) != 2:
                continue
            stack = record.stack_rtts_ms
            base = observation.rtts_received_ms
            raw = naive_accuracy(base, stack)
            if raw is None:
                continue
            naive_add(study.raw, *raw)

            static_series = static_filter.filter_rtts(base)
            _naive_append(study.static, static_series, stack)

            hold_series = spin_rtts_from_edges(
                naive_filter_edges(hold_filter, observation.edges_received)
            )
            _naive_append(study.hold_time, hold_series, stack)

            combined_series = static_filter.filter_rtts(hold_series)
            _naive_append(study.combined, combined_series, stack)


class NaiveFailureFold(FailureFold):
    def update_many(self, records):
        counts = self._counts
        total = 0
        succeeded = 0
        for record in records:
            total += 1
            if record.success:
                succeeded += 1
                continue
            kind = getattr(record, "failure", None)
            key = kind.value if kind is not None else "unclassified"
            counts[key] = counts.get(key, 0) + 1
        self._total += total
        self._succeeded += succeeded


def naive_folds():
    return [
        NaiveOrgFold(ASDB), NaiveWebserverFold(), NaiveAccuracyFold(),
        NaiveVersionFold(), NaiveFilterFold(), NaiveFailureFold(),
    ]


@dataclass
class RecordingSeries(SeriesSummary):
    """A series that also keeps every ``(absolute_ms, ratio)`` it was
    given, in order — by ``add_many`` or by :func:`naive_add`: two of
    them are equal only if they saw the same connections."""

    seen: list = field(default_factory=list)

    def add_many(self, absolutes, ratios):
        self.seen.extend(zip(absolutes, ratios))
        super().add_many(absolutes, ratios)


@dataclass
class RecordingOutcome(FilterOutcome):
    seen: list = field(default_factory=list)

    def add_many(self, absolutes, ratios, lost=0):
        self.seen.extend(zip(absolutes, ratios))
        super().add_many(absolutes, ratios, lost)


def recording(folds):
    """``folds``, their count-based series swapped for recording ones."""
    for fold in folds:
        study = getattr(fold, "_study", None)
        for spec in fields(study) if study is not None else ():
            series = getattr(study, spec.name)
            if isinstance(series, SeriesSummary):
                setattr(study, spec.name, RecordingSeries(series.label))
            elif isinstance(series, FilterOutcome):
                setattr(study, spec.name, RecordingOutcome(series.label))
    return folds


def naive_summarize(week, records) -> WeekSummary:
    """A ``WeekSummary`` whose folds and counters looped over records."""
    summary = WeekSummary(week, ASDB)
    summary.folds = naive_folds()
    for fold in summary.folds:
        fold.update_many(records)

    for record in records:
        flags = 0
        if record.success:
            flags |= FLAG_SUCCESS
            summary.connections_success += 1
        if record.shows_spin_activity:
            flags |= FLAG_SPIN
            summary.connections_spinning += 1
        flags |= seen_flags([record])
        summary.connections_total += 1
        if flags:
            summary.domains[record.domain] = (
                summary.domains.get(record.domain, 0) | flags
            )
        else:
            summary.domains.setdefault(record.domain, 0)
        key = record.behaviour.value
        summary.behaviours[key] = summary.behaviours.get(key, 0) + 1
    return summary


def _record_value(name, record):
    if name == "domain":
        return record.domain
    if name == "provider":
        return record.provider_name
    if name == "week":
        return week_serial(record.week)
    if name == "failure":
        return None if record.failure is None else record.failure.value
    if name == "behaviour":
        return record.behaviour.value
    if name == "edges":
        return len(record.observation.edges_received)
    if name == "status":
        return record.status
    if name == "version":
        return record.negotiated_version
    if name == "success":
        return record.success
    raise AssertionError(name)


def naive_matches(self, record) -> bool:
    """Every node's former ``matches(record)``, by node type."""
    if isinstance(self, Eq):
        if self.name == "t":
            return any(
                edge.time_ms == self.value
                for edge in record.observation.edges_received
            )
        if self.name == "week":
            serial = week_serial(self.value)
            return serial is not None and _record_value("week", record) == serial
        return _record_value(self.name, record) == self.value
    if isinstance(self, In):
        if self.name == "week":
            serials = {week_serial(v) for v in self.values} - {None}
            return _record_value("week", record) in serials
        return _record_value(self.name, record) in self.values
    if isinstance(self, Between):
        low, high = self._bounds()
        if low is None or high is None:  # unparseable week bound
            return False
        if self.name == "t":
            return any(
                low <= edge.time_ms <= high
                for edge in record.observation.edges_received
            )
        value = _record_value(self.name, record)
        return value is not None and low <= value <= high
    if isinstance(self, Present):
        return _record_value(self.name, record) is not None
    assert isinstance(self, And)
    return all(naive_matches(clause, record) for clause in self.clauses)


# ----------------------------------------------------------------------
# Random records.
# ----------------------------------------------------------------------

DOMAINS = [f"d{i}.example" for i in range(5)] + ["bücher.example", "例え.テスト"]
PROVIDER_NAMES = ["cloudflare", "google", "other-hosting", "nobody"]
HEADERS = [None, "", "LiteSpeed", "nginx"]
WEEK_LABELS = [None, "cw20-2023", "cw21-2023", "cw01-2024", "not-a-week"]
STATUSES = [None, 0, 200, 404, 70_000]
VERSIONS = [None, 0, 1, 0xFF00001D, 0x6B3343CF]
#: A few exactly representable values, so sums reach 0.0, series repeat
#: and samples fall on either side of the 1 ms static floor, beside
#: arbitrary finite floats and what a damaged column can hold: a sum
#: that overflows (1e308 twice) and a subnormal whose mean underflows
#: to zero.
MS = st.sampled_from([0.0, 0.5, 1.0, 25.0, 40.0]) | st.floats(
    -5.0, 4000.0, allow_nan=False
) | st.sampled_from([0.999, 5e-324, 1e308])
#: ... and infinity and NaN, for the folds alone: a record holding a NaN
#: (``inf - inf`` between two edges is one) is not equal to its own
#: decoded copy.
FOLD_MS = MS | st.sampled_from([inf, nan])
#: Spin-edge spacings: a steady 40 ms path, reordering stragglers inside
#: the hold time (``0.125 * 40``), sub-floor and zero intervals.
SPACINGS = st.sampled_from([40.0, 40.0, 40.0, 25.0, 3.0, 1.0, 0.5, 0.0])
#: Addresses inside, at the edge of and outside routed prefixes.
ROUTED = [
    (record.network + offset, record.version)
    for record in ASDB._records[::3]
    for offset in (0, 1, 257)
]
IPS = st.sampled_from(ROUTED) | st.tuples(
    st.integers(0, 2**32 - 1), st.just(4)
) | st.tuples(st.integers(0, 2**128 - 1), st.just(6))


@st.composite
def connection_records(draw, ms=MS):
    if draw(st.booleans()):
        times = list(accumulate(draw(st.lists(SPACINGS, max_size=6))))
    else:
        times = draw(st.lists(ms, max_size=6))
        if draw(st.booleans()):
            times.sort()
    edges_received = [
        SpinEdge(time_ms, draw(st.integers(0, 2**20)), draw(st.booleans()))
        for time_ms in times
    ]
    edges_sorted = (
        sorted(edges_received, key=lambda edge: edge.packet_number)
        if draw(st.booleans())
        else list(edges_received)
    )
    series = st.lists(ms, max_size=5)
    rtts_received = (
        spin_rtts_from_edges(edges_received) if draw(st.booleans()) else draw(series)
    )
    observation = SpinObservation(
        packets_seen=draw(st.integers(0, 300)),
        values_seen=set(
            draw(st.sampled_from([(), (False,), (True,), (False, True), (False, True)]))
        ),
        edges_received=edges_received,
        edges_sorted=edges_sorted,
        rtts_received_ms=rtts_received,
        rtts_sorted_ms=draw(
            st.sampled_from([list(rtts_received), spin_rtts_from_edges(edges_sorted)])
            | series
        ),
    )
    domain = draw(st.sampled_from(DOMAINS))
    value, version = draw(IPS)
    return ConnectionRecord(
        domain=domain,
        host=draw(st.sampled_from(["www." + domain, domain, "cdn.example"])),
        ip=IpAddr(value=value, version=version),
        ip_version=version,
        provider_name=draw(st.sampled_from(PROVIDER_NAMES)),
        server_header=draw(st.sampled_from(HEADERS)),
        status=draw(st.sampled_from(STATUSES)),
        success=draw(st.booleans()),
        behaviour=draw(st.sampled_from(list(SpinBehaviour))),
        observation=observation,
        stack_rtts_ms=draw(series),
        negotiated_version=draw(st.sampled_from(VERSIONS)),
        failure=draw(st.sampled_from([None, None, *FailureKind])),
        week=draw(st.sampled_from(WEEK_LABELS)),
    )


RECORD_LISTS = st.lists(connection_records(), max_size=12)
FOLD_RECORD_LISTS = st.lists(connection_records(FOLD_MS), max_size=12)


def encode(records, chunk_records=1024) -> bytes:
    buffer = io.BytesIO()
    write_records_cbr(records, buffer, chunk_records=chunk_records)
    return buffer.getvalue()


def decode_batches(payload, **want) -> list[RecordBatch]:
    return list(CbrReader(io.BytesIO(payload)).record_batches(**want))


def strip_edges(record, received, sorted_):
    """``record`` as a decode projecting edge lists away builds it."""
    observation = replace(
        record.observation,
        edges_received=record.observation.edges_received if received else [],
        edges_sorted=record.observation.edges_sorted if sorted_ else [],
    )
    return replace(record, observation=observation)


def three_ways(records, data):
    """``(how, batches, the records they stand for, the records they
    build)``, three ways; the last two differ by projected edge lists."""
    yield "from_records", [RecordBatch.from_records(records)], records, records
    received = data.draw(st.booleans(), label="want_edges_received")
    sorted_ = data.draw(st.booleans(), label="want_edges_sorted")
    want = {"want_edges_received": received, "want_edges_sorted": sorted_}
    payload = encode(records, chunk_records=5)
    yield "decoded", decode_batches(payload, **want), records, [
        strip_edges(record, received, sorted_) for record in records
    ]
    taken, kept = [], []
    for start, batch in zip(range(0, len(records), 5), decode_batches(payload, **want)):
        rows = data.draw(
            st.lists(st.integers(0, len(batch) - 1), unique=True), label="rows"
        )
        taken.append(batch.take(rows))
        kept.extend(records[start + row] for row in rows)
    yield "taken", taken, kept, [strip_edges(r, received, sorted_) for r in kept]


def run_naive(records):
    """``{section: result}`` and the summary bytes of the record loops."""
    results = {}
    for fold in recording(naive_folds()):
        fold.update_many(records)
        results[fold.name] = fold.finish()
    return results, naive_summarize("cw20-2023", records).to_json()


def assert_folds_equal_record_loops(how, batches, stood_for):
    """The six column folds and the week summary over ``batches`` against
    the record loops over the records they stand for — every
    ``(absolute_ms, ratio)`` handed to every series, in order."""
    expected, expected_json = run_naive(stood_for)
    folds = recording(build_record_folds("all", asdb=ASDB))
    results = AnalysisEngine(folds).run(batches)
    assert list(results) == list(SECTIONS)
    for section in SECTIONS:
        assert results[section] == expected[section], (how, section)
    summary = WeekSummary("cw20-2023", ASDB)
    for batch in batches:
        summary.update(batch)
    assert summary.to_json() == expected_json, how
    return results


class TestFoldsAgainstRecordLoops:
    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
    @given(FOLD_RECORD_LISTS, st.data())
    def test_six_folds_and_summary_three_ways(self, records, data):
        for how, batches, stood_for, _ in three_ways(records, data):
            assert_folds_equal_record_loops(how, batches, stood_for)

    def test_zero_sum_series_are_skipped_not_raised(self):
        """Where the record loop's ``compare_means`` raised, the folds
        have a rule."""
        edges = [SpinEdge(5.0, 1, False), SpinEdge(5.0, 2, True), SpinEdge(5.0, 3, False)]
        degenerate = _spinning(edges, stack=[20.0])
        zero_stack = _spinning(_edges(0.0, 40.0, 80.0), stack=[0.0])
        held = _spinning(_edges(0.0, 40.0, 40.0, 80.0), stack=[20.0])
        backwards = _spinning(_edges(100.0, 50.0, 0.0), stack=[20.0])
        backwards.observation.rtts_received_ms = [30.0]
        backwards_held = spin_rtts_from_edges(
            naive_filter_edges(DynamicThresholdFilter(), backwards.observation.edges_received)
        )
        for series, stack in (
            (degenerate.observation.rtts_received_ms, degenerate.stack_rtts_ms),
            (zero_stack.observation.rtts_received_ms, zero_stack.stack_rtts_ms),
            (backwards_held, backwards.stack_rtts_ms),
        ):
            with pytest.raises(ValueError):
                compare_means(series, stack)
        records = [degenerate, zero_stack, held, backwards]
        fold = FilterFold()
        fold.update_many(RecordBatch.from_records(records))
        study = fold.finish()
        assert [o.connections for o in study.outcomes()] == [2, 2, 1, 1]
        assert [o.connections_lost for o in study.outcomes()] == [0, 0, 1, 1]
        naive = NaiveFilterFold()
        naive.update_many(records)
        assert naive.finish() == study

    def test_accuracy_skips_each_zero_sum_series(self):
        """One series summing to exactly zero — received, sorted or the
        stack — excludes the connection, whichever it is."""
        still = [SpinEdge(5.0, 1, False), SpinEdge(5.0, 2, True)]
        moving = _edges(0.0, 40.0)
        cases = []
        for received, sorted_, stack in [
            (still, moving, [20.0]), (moving, still, [20.0]), (moving, moving, [0.0, 0.0]),
            (moving, moving, [20.0]),
        ]:
            record = _spinning(received, stack=stack)
            record.observation.edges_sorted = sorted_
            record.observation.rtts_sorted_ms = spin_rtts_from_edges(sorted_)
            cases.append(record)
        naive = NaiveAccuracyFold()
        naive.update_many(cases)
        for batches in ([RecordBatch.from_records(cases)], decode_batches(encode(cases))):
            fold = AccuracyFold()
            for batch in batches:
                fold.update_many(batch)
            assert fold.finish() == naive.finish()
            assert fold.finish().spin_received.connections == 1

    def test_each_shortcut_and_the_path_it_skips(self):
        """One hand-made connection per way through the two folds: a
        filter that drops nothing reuses the result it started from,
        and gives what re-deriving it would."""
        def explicit(record, received, sorted_=None):
            record.observation.rtts_received_ms = list(received)
            record.observation.rtts_sorted_ms = list(received if sorted_ is None else sorted_)
            return record

        clean = _spinning(_edges(0.0, 40.0, 80.0, 120.0), stack=[39.0])
        below_floor = explicit(_spinning(_edges(0.0, 40.0, 80.0), [39.0]), [0.5, 40.0, 40.0])
        straggler = _spinning(_edges(0.0, 40.0, 41.0, 80.0, 120.0), stack=[39.0])
        held_below_floor = _spinning(_edges(0.0, 0.5, 40.5, 80.5), stack=[39.0])
        reordered = explicit(_spinning(_edges(0.0, 40.0, 80.0), [39.0]), [40.0, 40.0], [39.5, 40.0])
        swapped = explicit(_spinning(_edges(0.0, 40.0, 80.0), [39.0]), [25.0, 40.0], [40.0, 25.0])
        sorted_still = explicit(_spinning(_edges(0.0, 40.0, 80.0), [39.0]), [40.0, 40.0], [0.0, 0.0])
        underflow = explicit(_spinning(_edges(0.0, 40.0, 80.0), [39.0]), [5e-324, 0.0])
        underflow_stack = _spinning(_edges(0.0, 40.0, 80.0), stack=[5e-324, 0.0])
        # ``min`` of the held series is 40.0, whatever the NaN behind it.
        nan_behind = explicit(_spinning(_edges(0.0, 40.0, nan), [39.0]), [40.0, 40.0])
        overflow = explicit(_spinning(_edges(0.0, 40.0, 80.0), [39.0]), [1e308, 1e308])
        grease = replace(clean, behaviour=SpinBehaviour.GREASE)
        records = [
            clean, below_floor, straggler, held_below_floor, reordered, swapped, sorted_still,
            underflow, underflow_stack, nan_behind, overflow, grease,
        ]
        filter_ = DynamicThresholdFilter()
        assert filter_.accepted_intervals([0.0, 40.0, 41.0, 80.0, 120.0]) == [40.0, 40.0, 40.0]
        assert filter_.accepted_intervals([0.0, 0.5, 40.5, 80.5]) == [0.5, 40.0, 40.0]
        payload = encode(records, chunk_records=4)
        for how, batches in (
            ("from_records", [RecordBatch.from_records(records)]),
            ("decoded", decode_batches(payload)),
            ("taken", [batch.take(range(len(batch))[::-1]) for batch in decode_batches(payload)]),
        ):
            stood_for = records if how != "taken" else [
                record for start in range(0, len(records), 4)
                for record in records[start : start + 4][::-1]
            ]
            results = assert_folds_equal_record_loops(how, batches, stood_for)
            accuracy, filters = results["accuracy"], results["filters"]
            # underflow, underflow_stack and overflow are nobody's; the
            # accuracy study also refuses the still sorted series.
            assert filters.raw.connections == 9
            assert accuracy.spin_received.connections == 7
            assert accuracy.grease_sorted.connections == 1
            # ``swapped`` changes the series and not its mean: no worse.
            assert accuracy.reordering.connections_changed == 2
            assert accuracy.reordering.changed_improved == 2
            assert accuracy.spin_sorted.seen != accuracy.spin_received.seen
            assert filters.static.seen != filters.raw.seen
            assert filters.hold_time.seen != filters.raw.seen
            assert filters.combined.seen != filters.hold_time.seen
            assert [o.connections_lost for o in filters.outcomes()] == [0, 0, 1, 0]

    def test_comparable_is_one_column_however_the_batch_was_made(self):
        """The same rows give the same derived column from a decoded
        chunk, from its records, and from a ``take`` — and a batch
        derives it once: the second fold sums nothing."""
        records = [
            _spinning(_edges(0.0, 30.0 + i, 70.0), stack=[25.0]) for i in range(6)
        ]
        records[1].observation.values_seen = {True}
        records[2].stack_rtts_ms = []
        records[3] = replace(records[3], behaviour=SpinBehaviour.GREASE)
        records[4].stack_rtts_ms = [5e-324, 0.0]
        (decoded,) = decode_batches(encode(records))
        listed = RecordBatch.from_records(list(decoded))
        assert [tuple(map(_plain, entry)) for entry in listed.comparable] == [
            tuple(map(_plain, entry)) for entry in decoded.comparable
        ]
        assert [entry[3] for entry in decoded.comparable] == [
            (30.0, 40.0), (33.0, 37.0), (35.0, 35.0),
        ]
        assert decoded.comparable[0][:3] == (35.0 - 25.0, 35.0 / 25.0, 25.0)
        assert decoded.comparable[1][6] is SpinBehaviour.GREASE
        rows = [5, 3, 1, 0]
        taken = decoded.take(rows)
        assert taken.comparable == [decoded.comparable[i] for i in (2, 1, 0)]
        assert decoded.take(range(6)).comparable is decoded.comparable

        for batch in (decode_batches(encode(records))[0], RecordBatch.from_records(records)):
            sums = []
            for fold in (AccuracyFold(), AccuracyFold()):
                sums.append(count_calls(lambda: fold.update_many(batch), only=sum)[0])
            assert sums[0] > 0 and sums[1] == 0
            assert batch.comparable is batch.comparable

    def test_more_than_255_strings_in_a_chunk(self):
        """Index columns wider than a byte resolve to the same strings."""
        records = [
            replace(_spinning(_edges(0.0, 30.0 + i, 70.0), stack=[25.0]),
                    domain=f"wide{i:03d}.example", host=f"h{i}.wide.example",
                    server_header=f"server/{i}")
            for i in range(300)
        ]
        (batch,) = decode_batches(encode(records))
        assert batch.domains == [r.domain for r in records]
        assert batch.headers == [r.server_header for r in records]
        assert list(batch) == records
        expected, expected_json = run_naive(records)
        folds = recording(build_record_folds("all", asdb=ASDB))
        assert AnalysisEngine(folds).run([batch]) == expected
        summary = WeekSummary("cw20-2023", ASDB)
        summary.update(batch)
        assert summary.to_json() == expected_json


#: Every threshold and bin edge a series or an outcome compares with,
#: the floats either side of each, signed zeros and infinities — beside
#: arbitrary floats.  No NaN: ``add_many``'s columns never hold one.
THRESHOLDS = {
    *ABS_DIFF_EDGES_MS, *RATIO_EDGES, 0.0, 25.0, -25.0, 200.0, 1.25, -1.25, 2.0, -2.0, 3.0,
}
ON_EDGES = sorted(
    {nextafter(t, d) for t in THRESHOLDS for d in (-inf, inf)} | THRESHOLDS
) + [-0.0, inf, -inf]
COUNTED = st.sampled_from(ON_EDGES) | st.floats(allow_nan=False)


class TestCountsAgainstPairLoops:
    """``add_many`` / ``add_sorted`` against the per-pair loops they
    replaced: equal state for any columns, counted in any split."""

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(COUNTED, COUNTED), max_size=40), st.integers(0, 40),
           st.integers(0, 3))
    @example([], 0, 0)
    @example([(value, value) for value in ON_EDGES], len(ON_EDGES) // 2, 1)
    def test_add_many_is_the_pair_loop(self, pairs, cut, lost):
        for make, pair_add in (
            (lambda: SeriesSummary("s"), pair_add_series),
            (lambda: FilterOutcome("f"), pair_add_outcome),
        ):
            expected = make()
            for absolute, ratio in pairs:
                pair_add(expected, absolute, ratio)
            counted = make()
            for part in (pairs[:cut], pairs[cut:]):
                counted.add_many([a for a, _ in part], [r for _, r in part])
            assert counted.state() == expected.state(), pair_add.__name__
        outcome = FilterOutcome("f")
        outcome.add_many([], [], lost)
        assert (outcome.connections, outcome.connections_lost) == (0, lost)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(COUNTED, max_size=40), st.sampled_from([ABS_DIFF_EDGES_MS, RATIO_EDGES]))
    @example([], ABS_DIFF_EDGES_MS)
    @example(ON_EDGES, ABS_DIFF_EDGES_MS)
    @example(ON_EDGES, RATIO_EDGES)
    def test_add_sorted_is_the_add_loop(self, values, edges):
        expected = Histogram(edges=edges)
        for value in values:
            expected.add(value)
        counted = Histogram(edges=edges)
        counted.add_sorted(sorted(values))
        assert counted.as_dict() == expected.as_dict()


def folded(records):
    """The six folds after one batch of ``records``."""
    folds = build_record_folds("all", asdb=ASDB)
    batch = RecordBatch.from_records(records)
    for fold in folds:
        fold.update_many(batch)
    return folds


def as_stored(state):
    """``state`` as a week file hands it back."""
    return json.loads(json.dumps(state))


class TestFoldState:
    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
    @given(RECORD_LISTS, RECORD_LISTS)
    def test_merged_state_is_the_fold_of_the_union(self, first, second):
        for a, b in ((first, second), (second, first)):
            for merged, other, union, loaded in zip(
                folded(a), folded(b), folded(a + b), folded([])
            ):
                merged.merge(as_stored(other.state()))
                assert merged.finish() == union.finish(), merged.name
                assert merged.state() == union.state(), merged.name
                loaded.merge(as_stored(union.state()))
                assert loaded.state() == union.state(), merged.name
                assert loaded.finish() == union.finish(), merged.name
        summary, other, both = (
            WeekSummary("cw20-2023", ASDB) for _ in range(3)
        )
        for target, records in ((summary, first), (other, second), (both, first + second)):
            target.update(RecordBatch.from_records(records))
        assert WeekSummary.from_json(summary.to_json()).to_json() == summary.to_json()
        summary.merge(WeekSummary.from_json(other.to_json()).state())
        assert summary.to_json() == both.to_json()


class TestWeekFileEncoding:
    """The week file is compact canonical JSON: it parses to what the
    indented encoding it replaced parsed to, and a new week's file is
    its delta as it is — the bytes merging the delta into an empty
    summary gave."""

    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
    @given(RECORD_LISTS, RECORD_LISTS, st.lists(st.text("0123456789abcdef", min_size=16,
                                                        max_size=16), max_size=4, unique=True))
    def test_compact_json_parses_as_the_indented_oracle(self, first, second, names):
        summary = WeekSummary("cw20-2023", ASDB)
        summary.artifacts.extend(names)
        summary.update(RecordBatch.from_records(first))
        other = WeekSummary("cw20-2023", ASDB)
        other.update(RecordBatch.from_records(second))
        summary.merge(other.state())
        compact = summary.to_json()
        assert compact.endswith("}\n") and "\n" not in compact[:-1]
        assert json.loads(compact) == json.loads(indented_week_json(summary))
        assert WeekSummary.from_json(indented_week_json(summary)).to_json() == compact
        empty = WeekSummary("cw20-2023")
        empty.merge(summary.state())
        assert empty.to_json() == compact


def _plain(value):
    """A float-series column entry as a tuple, whichever it was."""
    return tuple(value) if isinstance(value, list) else value


def _edges(*times):
    return [SpinEdge(t, 2 * i + 1, bool(i % 2)) for i, t in enumerate(times)]


def _spinning(edges, stack):
    return ConnectionRecord(
        domain="spin.example", host="www.spin.example",
        ip=IpAddr(value=0x0A000001, version=4), ip_version=4,
        provider_name="other-hosting", server_header="LiteSpeed", status=200,
        success=True, behaviour=SpinBehaviour.SPIN,
        observation=SpinObservation(
            packets_seen=12, values_seen={False, True}, edges_received=edges,
            edges_sorted=list(edges), rtts_received_ms=spin_rtts_from_edges(edges),
            rtts_sorted_ms=spin_rtts_from_edges(edges),
        ),
        stack_rtts_ms=stack, negotiated_version=1, week="cw20-2023",
    )


# ----------------------------------------------------------------------
# Predicates.
# ----------------------------------------------------------------------

FIELD_VALUES = {
    "domain": st.sampled_from(DOMAINS + ["absent.example"]),
    "provider": st.sampled_from(PROVIDER_NAMES),
    "week": st.sampled_from(WEEK_LABELS[1:] + ["cw52-2022"]),
    "failure": st.sampled_from([kind.value for kind in FailureKind]),
    "behaviour": st.sampled_from([b.value for b in SpinBehaviour]),
    "edges": st.integers(0, 7),
    "status": st.sampled_from(STATUSES[1:]),
    "version": st.sampled_from(VERSIONS[1:]),
    "success": st.booleans(),
    "t": MS,
}
RANGE_FIELDS = ("week", "t", "edges", "status")
SCALAR_FIELDS = tuple(name for name in FIELD_VALUES if name != "t")


@st.composite
def leaf_predicates(draw):
    kind = draw(st.sampled_from(["eq", "in", "between", "present"]))
    if kind == "eq":
        name = draw(st.sampled_from(list(FIELD_VALUES)))
        return Eq(name, draw(FIELD_VALUES[name]))
    if kind == "in":
        name = draw(st.sampled_from(SCALAR_FIELDS))
        return In(name, draw(st.lists(FIELD_VALUES[name], max_size=3)))
    if kind == "between":
        name = draw(st.sampled_from(RANGE_FIELDS))
        return Between(name, draw(FIELD_VALUES[name]), draw(FIELD_VALUES[name]))
    return Present(draw(st.sampled_from(SCALAR_FIELDS)))


PREDICATES = leaf_predicates() | st.lists(leaf_predicates(), min_size=1, max_size=3).map(And)


class TestPredicatesAgainstMatches:
    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
    @given(RECORD_LISTS, PREDICATES, st.data())
    def test_select_is_the_rows_matches_accepts(self, records, predicate, data):
        for how, batches, stood_for, built in three_ways(records, data):
            hits = [naive_matches(predicate, record) for record in stood_for]
            expected = [record for record, hit in zip(stood_for, hits) if hit]
            stats = QueryStats()
            selected = []
            for batch in batches:
                rows = predicate.select(batch, range(len(batch)))
                assert rows == sorted(rows)
                matched = filter_batch(batch, predicate, stats)
                assert len(matched) == len(rows)
                selected.extend(matched)
            assert selected == [r for r, hit in zip(built, hits) if hit], (how, predicate)
            assert (stats.records_scanned, stats.records_matched) == (
                len(stood_for), len(expected)
            ), (how, predicate)
            engine_stats = QueryStats()
            results = AnalysisEngine(build_record_folds("failures")).run(
                batches, predicate=predicate, stats=engine_stats
            )
            assert engine_stats == stats
            naive = NaiveFailureFold()
            naive.update_many(expected)
            assert results == {"failures": naive.finish()}

    @given(connection_records(), PREDICATES)
    def test_matches_is_select_over_one_row(self, record, predicate):
        one_row = RecordBatch.from_records([record])
        assert bool(predicate.select(one_row, (0,))) == naive_matches(predicate, record)

    @pytest.mark.parametrize("build", [
        lambda: In("t", [1.0]), lambda: Present("t"), lambda: In("time", [1.0]),
    ])
    def test_t_is_a_series_not_a_scalar(self, build):
        """``in`` and ``present`` compare one scalar per record; ``t``
        never had one (its ``matches`` hit an assertion)."""
        with pytest.raises(QueryError):
            build()


# ----------------------------------------------------------------------
# The batch as a sequence of records.
# ----------------------------------------------------------------------


class TestSequenceOfRecords:
    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
    @given(RECORD_LISTS, st.booleans(), st.booleans())
    def test_reencoding_a_batch_reproduces_its_source_bytes(
        self, records, received, sorted_
    ):
        assume(records)
        payload = encode(records, chunk_records=5)
        batches = decode_batches(
            payload, want_edges_received=received, want_edges_sorted=sorted_
        )
        shown = [strip_edges(r, received, sorted_) for r in records]
        assert encode([r for batch in batches for r in batch], 5) == encode(shown, 5)
        for start, batch in zip(range(0, len(records), 5), batches):
            assert len(batch) == len(shown[start : start + 5])
            assert batch == shown[start : start + 5]
            assert shown[start : start + 5] == batch
            assert batch[0] == shown[start] and batch[-1] == batch[len(batch) - 1]
            assert encode(list(batch)) == encode(shown[start : start + 5])
        if received and sorted_:
            assert encode([r for batch in batches for r in batch], 5) == payload

    @given(RECORD_LISTS, st.data())
    def test_take_is_the_rows_in_the_order_given(self, records, data):
        (batch,) = decode_batches(encode(records)) or [RecordBatch.from_records([])]
        rows = data.draw(st.lists(st.integers(0, max(0, len(records) - 1)), unique=True)
                         if records else st.just([]))
        taken = batch.take(rows)
        again = taken.take(range(len(rows))[::-1])
        assert list(taken) == [records[row] for row in rows]
        assert list(again) == [records[row] for row in rows[::-1]]
        assert taken.weeks == [records[row].week for row in rows]
        from_list = RecordBatch.from_records(records).take(rows)
        assert [a is b for a, b in zip(from_list, (records[row] for row in rows))] == (
            [True] * len(rows)
        )

    def test_a_batch_is_built_once_and_compares_like_a_list(self):
        records = [_spinning(_edges(0.0, 30.0, 70.0), stack=[25.0]) for _ in range(3)]
        (batch,) = decode_batches(encode(records))
        assert batch == records and records == batch and batch == batch.take([0, 1, 2])
        assert batch != records[:2] and batch != object()
        assert batch[1] is batch[1] and list(batch)[2] is batch[2]
        assert batch[:2] == records[:2]
        assert records[0] in batch
        assert RecordBatch.coerce(batch) is batch
        assert RecordBatch.coerce(iter(records)) == records


# ----------------------------------------------------------------------
# The shared sorted block: a chunk whose sorted edge block (and RTT
# column) is a byte copy of the received one decodes it once.
# ----------------------------------------------------------------------

#: Edge times without a negative zero, so ``==`` on a series is equality
#: of its encoded bytes.
UNSIGNED_MS = MS.map(lambda value: value + 0.0)


@st.composite
def reordered_records(draw, reordered: bool):
    """A record whose sorted series equal its received ones — or, when
    ``reordered``, differ: two of its edges swapped, or the same edges
    under an explicit sorted RTT series of their own."""
    record = draw(connection_records())
    count = draw(st.integers(2 if reordered else 0, 6))
    numbers = draw(st.lists(st.integers(0, 2**20), min_size=count, max_size=count,
                            unique=True))
    edges = [
        SpinEdge(draw(UNSIGNED_MS), number, draw(st.booleans())) for number in numbers
    ]
    series = st.lists(UNSIGNED_MS, max_size=5)
    received = spin_rtts_from_edges(edges) if draw(st.booleans()) else draw(series)
    edges_sorted, sorted_series = list(edges), list(received)
    if reordered and draw(st.booleans()):
        i, j = sorted(draw(st.lists(st.integers(0, count - 1), min_size=2, max_size=2,
                                    unique=True)))
        edges_sorted[i], edges_sorted[j] = edges_sorted[j], edges_sorted[i]
        sorted_series = (
            spin_rtts_from_edges(edges_sorted) if draw(st.booleans()) else draw(series)
        )
    elif reordered:
        sorted_series = received + [draw(UNSIGNED_MS)]
    observation = replace(
        record.observation, edges_received=edges, edges_sorted=edges_sorted,
        rtts_received_ms=received, rtts_sorted_ms=sorted_series,
    )
    return replace(record, observation=observation)


@st.composite
def reordered_chunks(draw):
    """Records reordered in none of them, in all of them, or at random
    positions."""
    size = draw(st.integers(0, 12))
    where = draw(st.sampled_from(["none", "all", "random"]))
    flags = {
        "none": [False] * size,
        "all": [True] * size,
        "random": draw(st.lists(st.booleans(), min_size=size, max_size=size)),
    }[where]
    return [draw(reordered_records(flag)) for flag in flags]


def differs(record) -> bool:
    observation = record.observation
    return (observation.edges_sorted, observation.rtts_sorted_ms) != (
        observation.edges_received, observation.rtts_received_ms
    )


class TestSharedSortedBlock:
    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
    @given(reordered_chunks(), st.integers(1, 6), st.booleans(), st.booleans())
    def test_a_shared_block_decodes_what_two_blocks_did(
        self, records, chunk_records, received, sorted_
    ):
        batches = decode_batches(
            encode(records, chunk_records),
            want_edges_received=received, want_edges_sorted=sorted_,
        )
        shown = [strip_edges(r, received, sorted_) for r in records]
        assert [r for batch in batches for r in batch] == shown
        for start, batch in zip(range(0, len(records), chunk_records), batches):
            chunk = records[start : start + chunk_records]
            assert (batch.rtts_sorted is batch.rtts_received) == (
                not any(map(differs, chunk))
            )
        expected = AnalysisEngine(build_record_folds("all", asdb=ASDB)).run(
            [RecordBatch.from_records(records)]
        )
        assert AnalysisEngine(build_record_folds("all", asdb=ASDB)).run(batches) == expected

    def test_a_reordered_record_unshares_only_its_chunk(self):
        records = [_spinning(_edges(0.0, 30.0 + i, 70.0), stack=[25.0]) for i in range(4)]
        swapped = records[3].observation
        swapped.edges_sorted = swapped.edges_sorted[::-1]
        swapped.rtts_sorted_ms = spin_rtts_from_edges(swapped.edges_sorted)
        clean, reordered = decode_batches(encode(records, chunk_records=2))
        assert clean.rtts_sorted is clean.rtts_received
        assert clean._chunk.times_sorted is clean.times_received
        assert clean._chunk.edges_sorted is clean._chunk.edges_received
        assert reordered.rtts_sorted is not reordered.rtts_received
        assert reordered._chunk.times_sorted is not reordered.times_received
        assert list(clean) + list(reordered) == records
