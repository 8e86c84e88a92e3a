"""Spin-behaviour classification (Table 3 semantics)."""

from conftest import make_observation
from repro.core.classify import SpinBehaviour, classify_connection, classify_domain


class TestConnectionClassification:
    def test_all_zero(self):
        obs = make_observation([(0.0, 0, False), (10.0, 1, False)])
        assert classify_connection(obs, [30.0]) is SpinBehaviour.ALL_ZERO

    def test_all_one(self):
        obs = make_observation([(0.0, 0, True), (10.0, 1, True)])
        assert classify_connection(obs, [30.0]) is SpinBehaviour.ALL_ONE

    def test_spin(self):
        obs = make_observation(
            [(0.0, 0, False), (40.0, 1, True), (80.0, 2, False), (120.0, 3, True)]
        )
        assert classify_connection(obs, [38.0]) is SpinBehaviour.SPIN

    def test_grease_when_samples_undercut_stack(self):
        obs = make_observation(
            [(0.0, 0, False), (2.0, 1, True), (4.0, 2, False), (6.0, 3, True)]
        )
        assert classify_connection(obs, [38.0]) is SpinBehaviour.GREASE

    def test_no_packets(self):
        obs = make_observation([])
        assert classify_connection(obs, []) is SpinBehaviour.NO_PACKETS


class TestDomainClassification:
    def test_any_spin_connection_makes_domain_spin(self):
        behaviours = [SpinBehaviour.ALL_ZERO, SpinBehaviour.SPIN]
        assert classify_domain(behaviours) is SpinBehaviour.SPIN

    def test_all_filtered_makes_domain_grease(self):
        behaviours = [SpinBehaviour.GREASE, SpinBehaviour.ALL_ZERO]
        assert classify_domain(behaviours) is SpinBehaviour.GREASE

    def test_uniform_constants(self):
        assert classify_domain([SpinBehaviour.ALL_ZERO] * 3) is SpinBehaviour.ALL_ZERO
        assert classify_domain([SpinBehaviour.ALL_ONE] * 2) is SpinBehaviour.ALL_ONE

    def test_mixed_constants_marked_grease(self):
        """Different fixed values across connections is per-connection
        greasing in disguise."""
        behaviours = [SpinBehaviour.ALL_ZERO, SpinBehaviour.ALL_ONE]
        assert classify_domain(behaviours) is SpinBehaviour.GREASE

    def test_no_usable_connections(self):
        assert classify_domain([]) is SpinBehaviour.NO_PACKETS
        assert classify_domain([SpinBehaviour.NO_PACKETS]) is SpinBehaviour.NO_PACKETS
