"""The RFC 9312 filter study over connection records."""

from dataclasses import replace

from conftest import make_connection_record
from repro.analysis.filter_study import run_filter_study
from repro.core.classify import SpinBehaviour
from repro.core.heuristics import DynamicThresholdFilter, StaticThresholdFilter
from repro.core.metrics import compare_means


def records_with_reordering_noise():
    """Two clean connections plus one with a spurious ultra-short cycle."""
    clean = make_connection_record(
        packets=[(i * 40.0, i, i % 2 == 1) for i in range(6)],
        stack_rtts=[39.0],
    )
    clean2 = make_connection_record(
        packets=[(i * 50.0, i, i % 2 == 1) for i in range(6)],
        stack_rtts=[49.0],
    )
    noisy = make_connection_record(
        packets=[
            (0.0, 0, False),
            (40.0, 2, True),
            (40.4, 1, False),  # straggler: two spurious edges
            (41.0, 3, True),
            (80.0, 4, False),
            (120.0, 5, True),
        ],
        stack_rtts=[39.0],
        behaviour=SpinBehaviour.SPIN,
    )
    return [clean, clean2, noisy]


class TestFilterStudy:
    def test_raw_outcome_counts_all_candidates(self):
        study = run_filter_study(records_with_reordering_noise())
        assert study.raw.connections == 3
        assert study.raw.connections_lost == 0

    def test_static_filter_removes_subthreshold_samples(self):
        records = records_with_reordering_noise()
        study = run_filter_study(records, static_floor_ms=5.0)
        noisy = records[-1]
        base = noisy.observation.rtts_received_ms
        noisy_raw = compare_means(base, noisy.stack_rtts_ms)
        noisy_static = compare_means(
            StaticThresholdFilter(min_rtt_ms=5.0).filter_rtts(base), noisy.stack_rtts_ms
        )
        # The 0.4/0.6 ms spurious samples vanish: accuracy improves.
        assert abs(noisy_static.absolute_ms) < abs(noisy_raw.absolute_ms) + 1e-9
        assert study.static.within_25pct_share >= study.raw.within_25pct_share
        # The study's rows are these results, counted.
        alone = run_filter_study([noisy], static_floor_ms=5.0)
        assert alone.raw.within_25pct == (abs(noisy_raw.ratio) <= 1.25)
        assert alone.static.within_25pct == (abs(noisy_static.ratio) <= 1.25)

    def test_hold_time_filter_improves_noisy_connection(self):
        study = run_filter_study(records_with_reordering_noise())
        assert study.hold_time.within_25pct_share >= study.raw.within_25pct_share

    def test_clean_connections_untouched(self):
        for record in records_with_reordering_noise()[:2]:
            study = run_filter_study([record])
            assert study.raw.connections == 1
            for outcome in (study.static, study.hold_time, study.combined):
                assert replace(outcome, label="raw") == study.raw
            # No filter drops a sample or an edge of a clean connection.
            base = record.observation.rtts_received_ms
            times = [edge.time_ms for edge in record.observation.edges_received]
            assert StaticThresholdFilter(min_rtt_ms=1.0).filter_rtts(base) == base
            assert DynamicThresholdFilter(fraction=0.125).accepted_intervals(times) == base

    def test_connections_lost_counted(self):
        # A connection whose only samples are sub-threshold disappears
        # under the static filter.
        tiny = make_connection_record(
            packets=[(0.0, 0, False), (0.3, 1, True), (0.6, 2, False)],
            stack_rtts=[40.0],
        )
        study = run_filter_study([tiny], static_floor_ms=1.0)
        assert study.raw.connections == 1
        assert study.static.connections == 0
        assert study.static.connections_lost == 1

    def test_non_spinning_records_ignored(self):
        zero = make_connection_record(
            spin_rtts=[], stack_rtts=[30.0], behaviour=SpinBehaviour.ALL_ZERO
        )
        zero.observation.values_seen = {False}
        study = run_filter_study([zero])
        assert study.raw.connections == 0

    def test_outcome_summaries(self):
        study = run_filter_study(records_with_reordering_noise())
        for outcome in study.outcomes():
            assert 0.0 <= outcome.within_25pct_share <= 1.0
