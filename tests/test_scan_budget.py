"""A fixed per-domain work budget for the scanner, in each configuration
whose overhead matters.

The same counter as ``test_monitor_budget``: Python-level calls
(``conftest.count_calls``) of one inline scan of ``TARGETS`` domains,
divided by the domains, counted after a warm-up scan of the same
targets.  The count is a pure function of the code and the population,
so it repeats exactly and a regression shows as a number.

Five configurations, each against the plain scan (no telemetry, no
faults):

* ``live``: a live telemetry bundle, gated at + 10 % of the plain scan;
* ``profiled``: a live bundle whose phase profiler reads a counting
  clock, gated at + 10 % of ``live``;
* ``resilience``: timeouts, retries and a breaker configured, no fault
  drawn; and ``zero_faults``: a fault plan whose one spec has
  probability 0.  Each is gated at + 5 % of the plain scan, and each
  scan's dataset must equal the plain one.

The relative gates are the limits the wall-clock overhead benchmarks
held, restated as counts; the absolute budgets below them catch one
more call per domain in any configuration.

Calls per domain (100 + 700 domains, seed 20230520, the first 200):

==============  =============  ==========  ================  ============
configuration   with charges   no charges  no sample list    path fixed
==============  =============  ==========  ================  ============
off                  1300.42      1300.07           1295.16       1294.46
live                 1348.18      1348.00           1343.09       1342.14
profiled             1364.96      1363.27           1358.35       1357.40
resilience           1303.62      1303.27           1298.36       1297.66
zero_faults          1301.76      1301.41           1296.50       1295.80
==============  =============  ==========  ================  ============

The first column is the scan while the profiler still had a simulated
mode: each exchange charged its simulated time (``Telemetry.charge``, a
call per exchange in every state), and each closed phase accounted its
self time through a method of its own.  The profiled arm read the same
counting clock in both.  The third is the scan once the endpoints' RTT
estimators appended each sample to no list and the endpoints let go of
their paths and applications when they closed (after the client had
stopped copying response bodies: 0.70 lower in every arm).  The last is
the scan once the path model was module constants: the jitter and
reorder-delay objects are built once, not per connection (0.70 lower in
every arm), and a histogram's bin count is a constant, not a ``len``
per observation (another 0.25 where a live bundle observes each
exchange).
"""

import itertools

import pytest

from conftest import count_calls
from repro.faults import (
    BreakerPolicy,
    FaultKind,
    FaultPlan,
    FaultSpec,
    ResilienceConfig,
    RetryPolicy,
)
from repro.internet.population import PopulationConfig, build_population
from repro.obs import PhaseProfiler
from repro.telemetry import Telemetry
from repro.web.scanner import ScanConfig, Scanner

POPULATION = PopulationConfig(toplist_domains=100, czds_domains=700, seed=20230520)
TARGETS = 200

#: Calls per domain as measured, rounded up; a change may not exceed them.
BUDGET = {
    "off": 1294.46,
    "live": 1342.14,
    "profiled": 1357.40,
    "resilience": 1297.66,
    "zero_faults": 1295.80,
}

#: Budgets nothing in the scan reaches: the scan pays for the
#: bookkeeping, not for a retry or a trip.
RESILIENCE = ResilienceConfig(
    connect_timeout_ms=120_000.0,
    domain_budget_ms=600_000.0,
    retry=RetryPolicy(max_attempts=3),
    breaker=BreakerPolicy(failure_threshold=50, cooldown_attempts=10),
)


def _no_telemetry():
    return None


def _profiled():
    telemetry = Telemetry()
    telemetry.profiler = PhaseProfiler(clock=itertools.count().__next__)
    return telemetry


#: configuration -> (scan config, a fresh ``telemetry=`` per scan).
ARMS = {
    "off": (ScanConfig(), _no_telemetry),
    "live": (ScanConfig(), Telemetry),
    "profiled": (ScanConfig(), _profiled),
    "resilience": (ScanConfig(resilience=RESILIENCE), _no_telemetry),
    "zero_faults": (
        ScanConfig(faults=FaultPlan((FaultSpec(FaultKind.LOSS_BURST, 0.0),))),
        _no_telemetry,
    ),
}


@pytest.fixture(scope="module")
def scans():
    """configuration -> a function that scans the targets once."""
    population = build_population(POPULATION)
    domains = population.domains[:TARGETS]

    def scanner_of(config, telemetry):
        return lambda: Scanner(population, config, telemetry=telemetry()).scan(
            week_label="cw20-2023", ip_version=4, domains=domains
        )

    return {name: scanner_of(*arm) for name, arm in ARMS.items()}


@pytest.fixture(scope="module")
def counted(scans):
    """configuration -> (calls per domain, dataset), counted warm."""
    out = {}
    for name, scan in scans.items():
        scan()
        calls, dataset = count_calls(scan)
        assert len(dataset.results) == TARGETS
        out[name] = (calls / TARGETS, dataset)
    return out


class TestScanBudget:
    def test_every_count_repeats_exactly(self, scans, counted):
        again = {name: count_calls(scan)[0] / TARGETS for name, scan in scans.items()}
        assert again == {name: calls for name, (calls, _) in counted.items()}

    def test_every_configuration_fits_its_budget(self, counted):
        over = {
            name: calls for name, (calls, _) in counted.items() if calls > BUDGET[name]
        }
        assert over == {}

    def test_a_live_bundle_adds_under_ten_percent(self, counted):
        assert counted["live"][0] <= 1.10 * counted["off"][0]

    def test_the_profiler_adds_under_ten_percent_to_a_live_scan(self, counted):
        assert counted["profiled"][0] <= 1.10 * counted["live"][0]

    @pytest.mark.parametrize("name", ["resilience", "zero_faults"])
    def test_resilience_at_rest_adds_under_five_percent_and_changes_nothing(
        self, counted, name
    ):
        calls, dataset = counted[name]
        plain_calls, plain = counted["off"]
        assert calls <= 1.05 * plain_calls
        assert dataset == plain
