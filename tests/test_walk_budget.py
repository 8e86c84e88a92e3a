"""A fixed population-walk budget for a campaign tick.

A daemon tick asks the population for its targets in two ways: the
shards it scans (one materialization each) and the scan fingerprints
that name each week's checkpoint directory and spool entry (a digest of
every target name).  The fingerprints used to walk the whole population
per week, twice — once to find the pending weeks, once more inside the
scan — while the pool sat idle.  Wall-clock time is too noisy for a
tier-1 gate, so this counts block draws (``Population._draw_block``
calls) instead: a pure function of the code and the configuration.

Measured when the budget was set (CONFIG: 180 domains, 3 blocks):

=====================================  ======  ===========
walks                                  before  this change
=====================================  ======  ===========
two-week tick, fingerprints                 4            1
two-week tick, shards (one per week)        2            2
``pending_weeks()``, 58-week campaign      58            1
=====================================  ======  ===========
"""

import dataclasses

import pytest

from repro.internet.population import BLOCK_SIZE, Population
from repro.service import CampaignDaemon, ServiceConfig

CONFIG = ServiceConfig(
    seed=77,
    czds_domains=140,
    toplist_domains=40,
    first_week="cw19-2023",
    last_week="cw20-2023",
)
#: The paper's campaign: CW15/2022 to CW20/2023.
PAPER_WEEKS = dataclasses.replace(CONFIG, first_week="cw15-2022")
BLOCKS = -(-(CONFIG.czds_domains + CONFIG.toplist_domains) // BLOCK_SIZE)


@pytest.fixture
def draws(monkeypatch):
    """The running count of block draws, in this process."""
    counted = [0]
    draw = Population._draw_block

    def counting(population, block):
        counted[0] += 1
        return draw(population, block)

    monkeypatch.setattr(Population, "_draw_block", counting)
    return counted


class TestWalkBudget:
    def test_a_two_week_tick_walks_once_for_its_fingerprints(self, tmp_path, draws):
        """One walk names both weeks; each week's one shard (180 domains
        under the checkpoint chunk of 256) draws its blocks once more."""
        with CampaignDaemon(tmp_path / "svc", CONFIG) as daemon:
            status = daemon.run_once()
        assert status["scanned_weeks"] == ["cw19-2023", "cw20-2023"]
        assert draws[0] == (1 + 2) * BLOCKS

    def test_pending_weeks_of_a_paper_length_campaign_walk_once(self, tmp_path, draws):
        daemon = CampaignDaemon(tmp_path / "svc", PAPER_WEEKS)
        assert len(daemon.pending_weeks()) == 58
        assert draws[0] == BLOCKS
        daemon.pending_weeks()
        assert draws[0] == BLOCKS
