"""Additional property tests: qlog determinism, filters, schedules."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.compliance import rfc_reference_shares
from repro.campaign.schedule import CalendarWeek, Campaign
from repro.core.heuristics import DynamicThresholdFilter, StaticThresholdFilter
from repro.qlog.reader import qlog_to_recorder
from repro.qlog.recorder import TraceRecorder
from repro.qlog.writer import recorder_to_qlog


@given(
    events=st.lists(
        st.tuples(
            st.floats(min_value=0, max_value=1e6),
            st.sampled_from(["initial", "handshake", "1RTT"]),
            st.integers(min_value=0, max_value=10_000),
            st.booleans(),
            st.integers(min_value=0, max_value=2_000),
        ),
        max_size=40,
    )
)
@settings(max_examples=50)
def test_qlog_roundtrip_property(events):
    """Any recorded trace survives writer → JSON → reader unchanged."""
    recorder = TraceRecorder(odcid_hex="ab")
    for time_ms, packet_type, pn, spin, size in sorted(events):
        spin_value = spin if packet_type == "1RTT" else None
        recorder.on_packet_received(time_ms, packet_type, pn, spin_value, size)
    document = json.loads(json.dumps(recorder_to_qlog(recorder)))
    recovered = qlog_to_recorder(document)
    assert recovered.received == recorder.received


@given(
    samples=st.lists(st.floats(min_value=0.0, max_value=1e4), max_size=50),
    floor=st.floats(min_value=0.0, max_value=100.0),
)
def test_static_filter_properties(samples, floor):
    """The static filter is idempotent, order-preserving, and exact."""
    filt = StaticThresholdFilter(min_rtt_ms=floor)
    once = filt.filter_rtts(samples)
    assert filt.filter_rtts(once) == once  # idempotent
    assert all(sample >= floor for sample in once)
    assert once == [sample for sample in samples if sample >= floor]


@given(
    times=st.lists(
        st.floats(min_value=0.0, max_value=1e5), min_size=0, max_size=40
    ).map(sorted),
    fraction=st.floats(min_value=0.05, max_value=0.9),
)
def test_hold_time_filter_properties(times, fraction):
    """The hold-time filter never adds edges, keeps the first one and
    the first interval, and its intervals tile the accepted span."""
    intervals = DynamicThresholdFilter(fraction=fraction).accepted_intervals(times)
    assert len(intervals) <= max(len(times) - 1, 0)
    if len(times) >= 2:
        assert intervals[0] == times[1] - times[0]
    assert all(interval >= 0 for interval in intervals)
    assert sum(intervals) <= (times[-1] - times[0] if times else 0.0) + 1e-6


@given(
    n=st.integers(min_value=2, max_value=20),
    disable=st.sampled_from([4, 8, 16, 32]),
)
def test_rfc_reference_shares_property(n, disable):
    shares = rfc_reference_shares(n, disable)
    assert len(shares) == n
    assert sum(shares) == pytest.approx(1.0)
    assert all(share >= 0 for share in shares)
    # More aggressive disabling shifts mass away from "all weeks".
    if disable >= 8:
        assert shares[-1] >= rfc_reference_shares(n, disable // 2)[-1]


@given(
    start_week=st.integers(min_value=1, max_value=50),
    length=st.integers(min_value=1, max_value=80),
    n=st.integers(min_value=2, max_value=12),
)
def test_campaign_week_selection_property(start_week, length, n):
    first = CalendarWeek(2022, start_week)
    last = first
    for _ in range(length):
        last = last.next()
    campaign = Campaign(first=first, last=last)
    weeks = campaign.weeks()
    assert weeks[0] == first and weeks[-1] == last
    assert all(a < b for a, b in zip(weeks, weeks[1:]))
    if n <= len(weeks):
        selected = campaign.select_spread_weeks(n)
        assert len(selected) == n
        assert selected[0] == first and selected[-1] == last
        assert all(a < b for a, b in zip(selected, selected[1:]))
        # Labels roundtrip for every selected week.
        for week in selected:
            assert CalendarWeek.from_label(week.label) == week
