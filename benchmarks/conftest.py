"""The harness population, shared by the ``test_perf_*`` overhead gates."""

from __future__ import annotations

import pytest

from repro.internet.population import PopulationConfig, build_population
from studies import HARNESS


@pytest.fixture(scope="session")
def population():
    return build_population(PopulationConfig(**HARNESS))
