"""Timeline rendering and list-driven population building."""

import pytest

from repro.analysis.timeline import render_spin_timeline
from repro.internet.population import (
    ListGroup,
    PopulationConfig,
    build_population_from_names,
)
from repro.qlog.recorder import TraceRecorder


def recorder_with_signal():
    recorder = TraceRecorder()
    values = [False, False, True, True, False]
    for pn, value in enumerate(values):
        recorder.on_packet_received(pn * 30.0, "1RTT", pn, value, 100)
    return recorder


class TestTimeline:
    def test_renders_edges_and_samples(self):
        text = render_spin_timeline(recorder_with_signal())
        assert "edges: 2" in text
        assert text.count("<- edge") == 2
        assert "sample 60.0 ms" in text
        assert "mean spin RTT estimate: 60.0 ms" in text

    def test_truncation_marks_gap(self):
        recorder = TraceRecorder()
        for pn in range(100):
            recorder.on_packet_received(pn * 1.0, "1RTT", pn, pn % 7 == 0, 100)
        text = render_spin_timeline(recorder, max_packets=20)
        assert "..." in text
        assert text.count("t=") <= 21

    def test_empty_connection(self):
        text = render_spin_timeline(TraceRecorder())
        assert "received 1-RTT packets: 0" in text


class TestPopulationFromNames:
    def test_names_and_groups_preserved(self):
        czds = [f"zone{i}.com" for i in range(40)] + [f"zone{i}.xyz" for i in range(10)]
        toplist = [f"top{i}.org" for i in range(20)]
        population = build_population_from_names(czds, toplist)

        assert len(population.domains) == 70
        assert {d.name for d in population.domains if ListGroup.TOPLISTS.holds(d)} == set(
            toplist
        )
        cno = [d for d in population.domains if ListGroup.COM_NET_ORG.holds(d)]
        assert all(d.zone == "com" for d in cno)
        assert len(cno) == 40

    def test_scannable(self):
        population = build_population_from_names(
            [f"d{i}.com" for i in range(120)], config=PopulationConfig(seed=3)
        )
        from repro.web.scanner import Scanner

        dataset = Scanner(population).scan()
        resolved = sum(r.resolved for r in dataset.results)
        assert 0 < resolved <= 120
        for result in dataset.results:
            if result.connections:
                assert result.connections[0].domain.startswith("d")

    def test_deterministic(self):
        names = [f"d{i}.net" for i in range(30)]
        a = build_population_from_names(names, config=PopulationConfig(seed=9))
        b = build_population_from_names(names, config=PopulationConfig(seed=9))
        assert [d.provider_name for d in a.domains] == [
            d.provider_name for d in b.domains
        ]

    def test_zone_derived_from_tld(self):
        population = build_population_from_names(["a.shop", "b.com"])
        zones = {d.name: d.zone for d in population.domains}
        assert zones == {"a.shop": "shop", "b.com": "com"}
