"""Every number the band table judges, measured at the harness population.

:func:`measure_all` runs :func:`generate_paper_report` once over the
harness population (ratios of the paper's lists preserved; see DESIGN.md)
and each Section 6 extension study below, and returns one
``{metric: value}`` dict.  ``bands.json`` holds the band each value must
fall in, ``test_paper_bands.py`` judges them and
``scripts/render_experiments.py`` writes them into EXPERIMENTS.md.
"""

from __future__ import annotations

import json
from pathlib import Path
from statistics import median_high

from repro._util.rng import derive_rng, fork_rng
from repro.analysis.compliance import ComplianceFold, scan_flags
from repro.analysis.filter_study import run_filter_study
from repro.analysis.longform import per_sample_deviation_profile, windowed_accuracy
from repro.analysis.paper_report import generate_paper_report
from repro.core.grease_filter import GreaseFilterVariant
from repro.core.heuristics import DynamicThresholdFilter, PacketNumberFilter
from repro.core.observer import SpinObserver, observe_recorder
from repro.core.spin import SpinPolicy
from repro.core.tomography import SpinTomographyObserver
from repro.core.vec import VecObserver
from repro.internet.population import PopulationConfig, build_population
from repro.netsim.delays import UniformDelay
from repro.netsim.events import Simulator
from repro.netsim.path import PathProfile
from repro.quic.connection import ConnectionConfig
from repro.web.http3 import ResponsePlan, build_exchange, run_exchange, run_session
from repro.web.scanner import ScanConfig, Scanner

BANDS = Path(__file__).with_name("bands.json")
RESULTS = Path(__file__).with_name("results.json")

#: The harness population: 1/6400 of the paper's CZDS population and
#: ~1/100 of its toplists, with all rates preserved.
HARNESS = {"toplist_domains": 4_000, "czds_domains": 34_000, "seed": 20230520}

#: QUIC domains of the Figure 2 study: twelve weekly scans of the whole
#: population would dominate the run, so it follows the first 1 500.
LONGITUDINAL_DOMAINS = 1_500


def load_bands() -> list[dict]:
    """The rows of ``bands.json``."""
    return json.loads(BANDS.read_text())


def holds(row: dict, value: float) -> bool:
    """Whether ``low <= value <= high``; a ``null`` side is unbounded."""
    return (row["low"] is None or row["low"] <= value) and (
        row["high"] is None or value <= row["high"]
    )


def detection_probe() -> dict[str, float]:
    """Spin-active domains with and without the scanner's closing probe.

    A client that tears down right after a one-flight response never
    sees the server reflect its last toggle; the two-PING probe closes
    that gap, and can only widen detection on the same deployments.
    """
    population = build_population(
        PopulationConfig(toplist_domains=0, czds_domains=9_000, seed=77)
    )
    detected = {}
    for probe in (True, False):
        dataset = Scanner(population, ScanConfig(final_probe=probe)).scan()
        detected[probe] = sum(1 for r in dataset.results if r.shows_spin_activity)
    return {
        "probe.detected_with": detected[True],
        "probe.gap_share": (detected[True] - detected[False]) / detected[True],
    }


def grease_variants(records) -> dict[str, float]:
    """Connections the grease filter flags, against design variants.

    The paper flags a connection when a spin RTT sample undercuts the
    minimum stack RTT (Section 5.2 suspects false positives); slack,
    vote and baseline variants must move the count monotonically.
    """
    variants = {
        "paper": GreaseFilterVariant(),
        "lenient": GreaseFilterVariant(slack=0.9),
        "strict": GreaseFilterVariant(slack=1.1),
        "mean": GreaseFilterVariant(baseline="mean"),
        "two_votes": GreaseFilterVariant(min_votes=2),
    }
    flags = dict.fromkeys(variants, 0)
    candidates = 0
    for record in records:
        spin, stack = record.observation.rtts_received_ms, record.stack_rtts_ms
        if not record.observation.spins or not spin or not stack:
            continue
        candidates += 1
        for name, variant in variants.items():
            flags[name] += variant.is_greasing(spin, stack)
    paper = flags["paper"]
    return {
        "grease.paper_flag_share": paper / candidates,
        "grease.lenient_minus_paper": flags["lenient"] - paper,
        "grease.strict_minus_paper": flags["strict"] - paper,
        "grease.mean_minus_paper": flags["mean"] - paper,
        "grease.two_votes_minus_paper": flags["two_votes"] - paper,
    }


def rtt_filters(records) -> dict[str, float]:
    """RFC 9312's static-floor and hold-time filters on the scan data.

    At a clean vantage point they must not distort the accuracy picture
    and may only shrink the underestimation share.
    """
    study = run_filter_study(records)
    raw, variants = study.raw, (study.static, study.hold_time, study.combined)
    return {
        "filters.raw.connections": raw.connections,
        "filters.max_kept_plus_lost_minus_raw": max(
            abs(v.connections + v.connections_lost - raw.connections) for v in variants
        ),
        "filters.max_lost_share": max(v.connections_lost for v in variants)
        / raw.connections,
        "filters.max_within_25pct_delta": max(
            abs(v.within_25pct_share - raw.within_25pct_share) for v in variants
        ),
        "filters.static.underestimate_minus_raw": study.static.underestimate_share
        - raw.underestimate_share,
        "filters.combined.underestimate_minus_raw": study.combined.underestimate_share
        - raw.underestimate_share,
    }


def induced_reordering() -> dict[str, float]:
    """Spurious spin samples under RTT-scale reordering, per countermeasure.

    Large transfers over a 40 ms path whose reordered packets are held
    20-60 ms cross spin-phase boundaries and fabricate edges; a sample
    below half the true RTT is spurious.
    """
    rtt_ms = 40.0
    plan = ResponsePlan("LiteSpeed", think_time_ms=20.0, write_sizes=(220_000,))
    profile = PathProfile(
        propagation_delay_ms=rtt_ms / 2,
        jitter=UniformDelay(0.0, 0.5),
        reorder_probability=0.03,
        reorder_extra_delay=UniformDelay(20.0, 60.0),
    )
    config = ConnectionConfig(enable_vec=True)
    samples = {"raw": [], "pn_filter": [], "hold_time": [], "vec": []}
    hold = DynamicThresholdFilter(fraction=0.25)
    for seed in range(120):
        result = run_exchange(
            "www.ablation.test", plan, SpinPolicy.SPIN, SpinPolicy.SPIN,
            profile, profile,
            fork_rng(derive_rng(seed, "reorder-ablation"), "exchange"),
            client_config=config, server_config=config,
        )
        if not result.success:
            continue
        received = result.recorder.received_short_header_packets()
        packets = [(e.time_ms, e.packet_number, bool(e.spin_bit)) for e in received]
        raw, filtered, vec = SpinObserver(), SpinObserver(), VecObserver(threshold=3)
        for packet in packets:
            raw.on_packet(*packet)
        for packet in PacketNumberFilter().filter_packets(packets):
            filtered.on_packet(*packet)
        for event in received:
            vec.on_packet(event.time_ms, event.vec)
        observation = raw.observation()
        samples["raw"] += observation.rtts_received_ms
        samples["hold_time"] += hold.filter_rtts_from_edges(observation.edges_received)
        samples["pn_filter"] += filtered.observation().rtts_received_ms
        samples["vec"] += vec.rtts_ms()
    spurious = {
        name: sum(1 for s in values if s < rtt_ms / 2) / len(values) if values else 0.0
        for name, values in samples.items()
    }
    metrics = {
        "reorder.raw.spurious_share": spurious["raw"],
        "reorder.pn_filter.spurious_share": spurious["pn_filter"],
    }
    for name in ("pn_filter", "hold_time", "vec"):
        metrics[f"reorder.{name}.over_raw"] = spurious[name] / spurious["raw"]
    return metrics


def followup(population, spin_domains) -> dict[str, float]:
    """Section 6's two-phase compliance design: the report's CW 20 scan
    picked the spin-active domains, and 260 of them are probed 16 times
    in-week, which measures the per-connection disable rate (RFC 9000:
    1/16)."""
    candidates = spin_domains[:260]
    probes = [("cw20-2023", probe) for probe in range(1, 17)]
    fold = ComplianceFold(len(probes))
    fold.update_many(scan_flags(Scanner(population), candidates, probes))
    result = fold.finish()
    rate = result.disable_rate
    observed = result.observed_shares
    return {
        "followup.domains_probed": len(candidates),
        "followup.active_domains": result.considered_domains,
        "followup.disable_rate": rate,
        "followup.rfc9000_minus_rfc9312_distance": abs(rate - 1 / 16)
        - abs(rate - 1 / 8),
        "followup.top_two_share": observed[14] + observed[15],
    }


def long_connections() -> dict[str, float]:
    """Spin samples over a sustained download and a browsing session.

    End-host delays dominate at connection start (the paper's one-shot
    fetch); a sustained transfer settles at ~1x the RTT, while idle gaps
    between requests ride on the spin period and re-inflate samples.
    """
    profile = PathProfile(propagation_delay_ms=20.0, jitter=UniformDelay(0.0, 0.5))
    download = ResponsePlan("LiteSpeed", think_time_ms=120.0, write_sizes=(420_000,))
    page = ResponsePlan("LiteSpeed", think_time_ms=60.0, write_sizes=(30_000,))
    workloads = {
        "sustained": ([download], None),
        "browsing": ([page] * 4, [350.0] * 3),
    }
    pairs = {}
    for kind, (plans, gaps) in workloads.items():
        pairs[kind] = []
        for seed in range(60):
            result = run_session(
                "www.longform.test", plans, SpinPolicy.SPIN, SpinPolicy.SPIN,
                profile, profile, derive_rng(seed, "longform", kind),
                think_gaps_ms=gaps,
            )
            observation = observe_recorder(result.recorder)
            pairs[kind].append(
                (observation.rtts_received_ms, result.recorder.stack_rtts_ms())
            )
    sustained = per_sample_deviation_profile(pairs["sustained"], max_position=10)
    browsing = per_sample_deviation_profile(pairs["browsing"], max_position=10)
    full, windowed = windowed_accuracy(pairs["sustained"], skip_first=2)

    def within_25pct(results):
        return sum(1 for r in results if abs(r.ratio) <= 1.25) / len(results)

    return {
        "longform.sustained.stabilizes": float(
            sustained.stabilizes(warmup=2, tolerance=1.5)
        ),
        "longform.sustained.last_median": sustained.medians[-1],
        "longform.browsing.max_steady_median": max(browsing.medians[2:]),
        "longform.sustained.windowed_minus_full": within_25pct(windowed)
        - within_25pct(full),
    }


def tomography() -> dict[str, float]:
    """Spin-period decomposition at three on-path observer positions.

    RFC 9312's two-direction observation splits each period into
    upstream (observer -> server -> observer) and downstream; their sum
    is the period, and the split follows the observer's position.
    """
    one_way_ms = 35.0
    profile = PathProfile(
        propagation_delay_ms=one_way_ms, jitter=UniformDelay(0.0, 0.4)
    )
    plan = ResponsePlan("x", think_time_ms=20.0, write_sizes=(200_000,))
    counts, slack, up_errors, down_errors, upstream = [], [], [], [], []
    for position in (0.2, 0.5, 0.8):
        samples = []
        for seed in range(40):
            simulator = Simulator()
            observer = SpinTomographyObserver(short_dcid_length=8)
            handle = build_exchange(
                simulator, "www.tomo.bench", [plan], SpinPolicy.SPIN, SpinPolicy.SPIN,
                profile, profile, derive_rng(seed, "tomo-bench", position),
                start_ms=0.0,
            )
            # connect() waits for start_ms, so the taps see the first packet
            handle.uplink.install_tap(observer.on_client_datagram, position=position)
            handle.downlink.install_tap(
                observer.on_server_datagram, position=1.0 - position
            )
            simulator.run()
            samples += observer.samples[1:]  # steady state
        up = median_high(s.upstream_ms for s in samples)
        down = median_high(s.downstream_ms for s in samples)
        counts.append(len(samples))
        slack.append(min(s.total_ms for s in samples) - 2 * one_way_ms)
        up_errors.append(abs(up - 2 * (1.0 - position) * one_way_ms))
        down_errors.append(abs(down - 2 * position * one_way_ms))
        upstream.append(up)
    return {
        "tomography.min_samples": min(counts),
        "tomography.min_total_minus_rtt_ms": min(slack),
        "tomography.max_upstream_error_ms": max(up_errors),
        "tomography.max_downstream_error_ms": max(down_errors),
        "tomography.min_upstream_step_ms": min(
            upstream[0] - upstream[1], upstream[1] - upstream[2]
        ),
    }


def measure_all() -> dict[str, float]:
    """Every metric of ``bands.json``, measured at the harness population."""
    population = build_population(PopulationConfig(**HARNESS))
    report = generate_paper_report(
        population, longitudinal_domain_cap=LONGITUDINAL_DOMAINS
    )
    return {
        **report.metrics(),
        **grease_variants(report.records),
        **rtt_filters(report.records),
        **followup(population, report.spin_domains),
        **detection_probe(),
        **induced_reordering(),
        **long_connections(),
        **tomography(),
    }
