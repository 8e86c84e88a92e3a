"""Cross-cutting property tests over the measurement pipeline."""

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_connection_record
from jsonl_reader import record_from_dict
from repro.analysis.accuracy import accuracy_study
from repro.analysis.artifacts import record_to_dict
from repro.core.classify import SpinBehaviour, classify_connection
from repro.core.grease_filter import is_greasing
from repro.core.observer import SpinObserver
from repro.quic.packet import VersionNegotiationHeader, parse_header
from repro.quic.connection_id import ConnectionId


# --- strategy helpers -------------------------------------------------

packet_stream = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=1e5),
        st.integers(min_value=0, max_value=2_000),
        st.booleans(),
    ),
    max_size=80,
).map(lambda items: sorted(items, key=lambda p: p[0]))

stack_series = st.lists(
    st.floats(min_value=0.01, max_value=5_000.0), min_size=0, max_size=12
)


@given(packets=packet_stream, stack=stack_series)
def test_pipeline_never_crashes_and_classifies_consistently(packets, stack):
    """Observer → classification → grease filter agree on any stream."""
    observer = SpinObserver()
    for time_ms, pn, spin in packets:
        observer.on_packet(time_ms, pn, spin)
    observation = observer.observation()
    behaviour = classify_connection(observation, stack)

    if behaviour is SpinBehaviour.NO_PACKETS:
        assert not packets
    if behaviour in (SpinBehaviour.ALL_ZERO, SpinBehaviour.ALL_ONE):
        assert len(observation.values_seen) == 1
    if behaviour is SpinBehaviour.GREASE:
        assert observation.spins
        assert is_greasing(observation.rtts_received_ms, stack)
    if behaviour is SpinBehaviour.SPIN:
        assert observation.spins
        assert not is_greasing(observation.rtts_received_ms, stack)


@given(packets=packet_stream, stack=stack_series)
@settings(max_examples=60)
def test_artifact_roundtrip_preserves_behaviour(packets, stack):
    """Export → JSON → import keeps the record analytically identical."""
    record = make_connection_record(packets=packets, stack_rtts=stack)
    record.behaviour = classify_connection(record.observation, stack)
    payload = json.loads(json.dumps(record_to_dict(record)))
    clone = record_from_dict(payload)
    assert clone.behaviour == record.behaviour
    assert clone.observation.rtts_received_ms == record.observation.rtts_received_ms
    assert clone.observation.rtts_sorted_ms == record.observation.rtts_sorted_ms
    assert clone.observation.spins == record.observation.spins


@given(packets=packet_stream, stack=stack_series)
@settings(max_examples=60)
def test_accuracy_study_totals_partition(packets, stack):
    """Every record lands in exactly one accuracy series (or none)."""
    record = make_connection_record(packets=packets, stack_rtts=stack)
    record.behaviour = classify_connection(record.observation, stack)
    study = accuracy_study([record])
    total = study.spin_received.connections + study.grease_received.connections
    comparable = bool(
        record.observation.spins
        and record.observation.rtts_received_ms
        and record.observation.rtts_sorted_ms
        and stack
        and sum(record.observation.rtts_received_ms) > 0
        and sum(record.observation.rtts_sorted_ms) > 0
        and sum(stack) > 0
    )
    assert total == (1 if comparable else 0)


@given(
    versions=st.lists(
        st.integers(min_value=1, max_value=2**32 - 1), min_size=1, max_size=12
    ),
    dcid_len=st.integers(min_value=0, max_value=20),
    scid_len=st.integers(min_value=0, max_value=20),
)
def test_version_negotiation_roundtrip_property(versions, dcid_len, scid_len):
    header = VersionNegotiationHeader(
        destination_cid=ConnectionId(bytes(dcid_len)),
        source_cid=ConnectionId(bytes(range(scid_len))),
        supported_versions=tuple(versions),
    )
    parsed, offset = parse_header(header.encode(), short_dcid_length=8)
    assert isinstance(parsed, VersionNegotiationHeader)
    assert parsed.supported_versions == tuple(versions)
    assert parsed.source_cid == header.source_cid
    assert offset == len(header.encode())
