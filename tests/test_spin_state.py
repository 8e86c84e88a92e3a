"""Spin-bit state machines and deployment policies (RFC 9000 17.4)."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro._util.rng import derive_rng
from repro.core.spin import (
    EndpointRole,
    SpinBitState,
    SpinDeploymentConfig,
    SpinPolicy,
    resolve_connection_policy,
)


class TestClientSpinning:
    def test_starts_at_zero(self):
        state = SpinBitState(EndpointRole.CLIENT, SpinPolicy.SPIN)
        assert state.outgoing_value() is False

    def test_inverts_received_value(self):
        state = SpinBitState(EndpointRole.CLIENT, SpinPolicy.SPIN)
        state.on_packet_received(0, False)
        assert state.outgoing_value() is True
        state.on_packet_received(1, True)
        assert state.outgoing_value() is False


class TestServerReflection:
    def test_reflects_received_value(self):
        state = SpinBitState(EndpointRole.SERVER, SpinPolicy.SPIN)
        state.on_packet_received(0, True)
        assert state.outgoing_value() is True
        state.on_packet_received(1, False)
        assert state.outgoing_value() is False


class TestHighestPacketNumberRule:
    def test_reordered_packet_ignored(self):
        """A late packet with a lower pn must not move the state (Fig 1b
        only corrupts observers, not endpoints)."""
        state = SpinBitState(EndpointRole.SERVER, SpinPolicy.SPIN)
        state.on_packet_received(5, True)
        state.on_packet_received(3, False)  # reordered straggler
        assert state.outgoing_value() is True
        state.on_packet_received(6, False)  # the next pn above the high mark
        assert state.outgoing_value() is False

    def test_duplicate_pn_ignored(self):
        state = SpinBitState(EndpointRole.CLIENT, SpinPolicy.SPIN)
        state.on_packet_received(2, True)
        state.on_packet_received(2, False)
        assert state.outgoing_value() is False  # still inverting the pn-2 value


class TestDisablingPolicies:
    def test_always_zero(self):
        state = SpinBitState(EndpointRole.SERVER, SpinPolicy.ALWAYS_ZERO)
        state.on_packet_received(0, True)
        assert state.outgoing_value() is False

    def test_always_one(self):
        state = SpinBitState(EndpointRole.SERVER, SpinPolicy.ALWAYS_ONE)
        assert state.outgoing_value() is True

    def test_grease_per_connection_is_constant(self):
        state = SpinBitState(
            EndpointRole.SERVER, SpinPolicy.GREASE_PER_CONNECTION, derive_rng(3, "g")
        )
        values = {state.outgoing_value() for _ in range(20)}
        assert len(values) == 1

    def test_grease_per_packet_varies(self):
        state = SpinBitState(
            EndpointRole.SERVER, SpinPolicy.GREASE_PER_PACKET, derive_rng(4, "g")
        )
        values = {state.outgoing_value() for _ in range(64)}
        assert values == {False, True}

    def test_grease_requires_rng(self):
        with pytest.raises(ValueError):
            SpinBitState(EndpointRole.SERVER, SpinPolicy.GREASE_PER_PACKET)


class TestDeploymentConfig:
    def test_expected_spin_share(self):
        config = SpinDeploymentConfig(SpinPolicy.SPIN, disable_one_in_n=16)
        assert config.expected_spin_share() == pytest.approx(15 / 16)
        assert config.ever_spins

    def test_non_spinning_share_is_zero(self):
        config = SpinDeploymentConfig(SpinPolicy.ALWAYS_ZERO)
        assert config.expected_spin_share() == 0.0
        assert not config.ever_spins

    def test_disabled_policy_must_not_participate(self):
        with pytest.raises(ValueError):
            SpinDeploymentConfig(SpinPolicy.SPIN, disabled_policy=SpinPolicy.SPIN)

    def test_resolve_policy_respects_one_in_n(self):
        """Over many connections roughly 1/16 must be disabled (RFC 9000
        'MUST ... at least one in every 16')."""
        config = SpinDeploymentConfig(SpinPolicy.SPIN, disable_one_in_n=16)
        rng = derive_rng(77, "resolve")
        n = 8000
        disabled = sum(
            1
            for _ in range(n)
            if resolve_connection_policy(config, rng) is SpinPolicy.ALWAYS_ZERO
        )
        assert n / 16 * 0.7 < disabled < n / 16 * 1.35

    def test_resolve_policy_without_disable(self):
        config = SpinDeploymentConfig(SpinPolicy.SPIN, disable_one_in_n=None)
        rng = derive_rng(78, "resolve")
        assert all(
            resolve_connection_policy(config, rng) is SpinPolicy.SPIN
            for _ in range(100)
        )

    def test_non_participating_policy_always_returned(self):
        config = SpinDeploymentConfig(SpinPolicy.GREASE_PER_CONNECTION)
        rng = derive_rng(79, "resolve")
        assert resolve_connection_policy(config, rng) is SpinPolicy.GREASE_PER_CONNECTION


@given(
    packets=st.lists(
        st.tuples(st.integers(min_value=0, max_value=1000), st.booleans()),
        min_size=1,
        max_size=50,
    ),
    role=st.sampled_from([EndpointRole.CLIENT, EndpointRole.SERVER]),
)
def test_state_depends_only_on_highest_pn_property(packets, role):
    """The outgoing value is a function of the highest-pn packet alone,
    regardless of arrival order of the others."""
    state = SpinBitState(role, SpinPolicy.SPIN)
    for pn, spin in packets:
        state.on_packet_received(pn, spin)

    best_pn, best_spin = max(
        ((pn, spin) for pn, spin in packets), key=lambda item: item[0]
    )
    # First occurrence wins among duplicates of the highest pn.
    for pn, spin in packets:
        if pn == best_pn:
            best_spin = spin
            break
    expected = (not best_spin) if role is EndpointRole.CLIENT else best_spin
    assert state.outgoing_value() == expected
