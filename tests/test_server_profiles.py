"""Webserver stack catalog invariants and plan sampling."""

import pytest

from repro._util.rng import derive_rng
from repro.core.spin import SpinPolicy
from repro.web.server_profiles import STACKS, ServerStackProfile, stack_by_name


class TestCatalog:
    def test_expected_stacks_present(self):
        for name in (
            "litespeed",
            "imunify360",
            "cloudflare",
            "gws",
            "fastly",
            "nginx",
            "caddy-spin",
            "allone-appliance",
            "grease-packet",
            "grease-connection",
        ):
            assert name in STACKS

    def test_hyperscalers_do_not_spin(self):
        """The paper's headline finding: Cloudflare, Google's default
        stack, and Fastly leave the spin bit at zero."""
        for name in ("cloudflare", "gws", "fastly", "nginx"):
            assert not STACKS[name].spin_config.ever_spins
            assert STACKS[name].spin_config.base_policy is SpinPolicy.ALWAYS_ZERO

    def test_litespeed_spins_with_rfc_disable(self):
        config = STACKS["litespeed"].spin_config
        assert config.ever_spins
        assert config.disable_one_in_n == 16

    def test_allone_stack(self):
        assert STACKS["allone-appliance"].spin_config.base_policy is SpinPolicy.ALWAYS_ONE

    def test_grease_stacks(self):
        assert (
            STACKS["grease-packet"].spin_config.base_policy
            is SpinPolicy.GREASE_PER_PACKET
        )
        assert (
            STACKS["grease-connection"].spin_config.base_policy
            is SpinPolicy.GREASE_PER_CONNECTION
        )

    def test_lookup_error_lists_known(self):
        with pytest.raises(KeyError, match="litespeed"):
            stack_by_name("apache")


class TestPlanSampling:
    def test_deterministic_per_rng(self):
        stack = STACKS["litespeed"]
        a = stack.sample_plan(derive_rng(4, "p"), None)
        b = stack.sample_plan(derive_rng(4, "p"), None)
        assert a == b

    def test_page_size_bounds_respected(self):
        stack = STACKS["litespeed"]
        for seed in range(60):
            plan = stack.sample_plan(derive_rng(seed, "bounds"), None)
            total = sum(plan.write_sizes)
            assert stack.min_page_bytes <= total <= stack.max_page_bytes

    def test_redirects_only_with_target(self):
        stack = STACKS["cloudflare"]  # 8 % redirect probability
        saw_redirect = False
        for seed in range(200):
            plan = stack.sample_plan(derive_rng(seed, "r"), "https://t/")
            saw_redirect = saw_redirect or plan.redirect_location is not None
            assert stack.sample_plan(derive_rng(seed, "r"), None).redirect_location is None
        assert saw_redirect

    def test_dynamic_plans_have_gaps(self):
        stack = STACKS["imunify360"]  # high dynamic fraction
        gapped = 0
        for seed in range(80):
            plan = stack.sample_plan(derive_rng(seed, "d"), None)
            if len(plan.write_sizes) > 1:
                gapped += 1
                assert len(plan.write_gaps_ms) == len(plan.write_sizes)
                assert plan.write_gaps_ms[0] == 0.0
                assert sum(plan.write_sizes) >= stack.min_page_bytes
        assert gapped > 20

    def test_static_stacks_write_once(self):
        stack = STACKS["cloudflare"]
        for seed in range(30):
            plan = stack.sample_plan(derive_rng(seed, "s"), None)
            assert len(plan.write_sizes) == 1

    def test_server_header_carried(self):
        plan = STACKS["imunify360"].sample_plan(derive_rng(1, "h"), None)
        assert plan.server_header.startswith("imunify360")


class TestProfileValidation:
    def test_dynamic_fraction_bounds(self):
        from repro.core.spin import SpinDeploymentConfig

        with pytest.raises(ValueError):
            ServerStackProfile(
                name="x",
                server_header="x",
                spin_config=SpinDeploymentConfig(SpinPolicy.ALWAYS_ZERO),
                dynamic_fraction=1.5,
            )

    def test_page_bounds_validated(self):
        from repro.core.spin import SpinDeploymentConfig

        with pytest.raises(ValueError):
            ServerStackProfile(
                name="x",
                server_header="x",
                spin_config=SpinDeploymentConfig(SpinPolicy.ALWAYS_ZERO),
                min_page_bytes=100,
                max_page_bytes=50,
            )
