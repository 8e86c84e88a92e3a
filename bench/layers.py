"""Per-layer numbers of a traced run: micro-corpora and direct timings.

``Scanner.scan`` hides ``netsim``, ``quic``, ``qlog`` and the ``faults``
IPC codec behind one call (its ``exchange`` phase is ~90 % of a scan), and
``MonitorPipeline.process`` hides ``core``.  Each function here captures a
small corpus from the workload's own data once — tap datagrams, sampled
qlog documents, one shard of ``DomainScanResult``s, a record batch — and
times the layer's public functions directly on it.  Every timing goes
through the run's :class:`~bench.harness.Meter`, so it is reported at
reference host speed like the end-to-end numbers.
"""

from __future__ import annotations

import io
import shutil
import tempfile
import time

from bench.harness import Meter, Tracer, median, rate

from repro.analysis import AnalysisEngine, build_record_folds
from repro.analysis.query import parse_where, plan_chunks
from repro.artifacts import open_record_batches
from repro.artifacts.cbr import (
    CbrIndexedReader,
    CbrReader,
    concat_frames,
    read_footer,
    write_records_cbr,
)
from repro.core.flow_resolver import FlowKeyResolver
from repro.core.flow_table import SpinFlowTable
from repro.core.observer import StreamingSpinObserver
from repro.faults import encode_domain_results, results_from_cbr_payload
from repro.internet.streaming import StreamingPopulation
from repro.monitor import TrafficConfig, TrafficMux, WindowAggregator
from repro.netsim.events import Simulator
from repro.obs import PhaseProfiler
from repro.qlog import read_qlog_jsonl, write_qlog_jsonl
from repro.quic.datagram import QuicPacket, decode_datagram, encode_datagram
from repro.quic.packet import ShortHeader
from repro.telemetry import Telemetry
from repro.web.parallel import ParallelScanConfig
from repro.web.scanner import Scanner
from repro.web.shardplan import ShardCostModel, plan_shards

SECTIONS = ("orgs", "webservers", "accuracy", "versions", "filters", "failures")


def measure(meter: Meter, fn, budget_s: float, min_reps: int = 2) -> list[float]:
    """Call ``fn`` until the budget is spent; reference seconds per call."""
    samples = []
    deadline = time.perf_counter() + budget_s
    while len(samples) < min_reps or time.perf_counter() < deadline:
        with meter.round() as timing:
            fn()
        samples.append(timing.ref_s)
    return samples


def per_second(meter: Meter, count: float, fn, budget_s: float) -> float:
    """``count`` items per median call of ``fn``, at reference speed."""
    return rate(count, median(measure(meter, fn, budget_s)))


def self_seconds(tracer: Tracer, name: str) -> list[float]:
    """Self time of every span called ``name``."""
    own = tracer.self_times()
    return [own[i] for i, span in enumerate(tracer.spans) if span[0] == name]


def counter_sum(telemetry: Telemetry, name: str) -> int:
    counters = telemetry.registry.snapshot()["counters"]
    return sum(v for k, v in counters.items() if k.split("{")[0] == name)


def phase_ms(profiler: PhaseProfiler, leaf: str) -> float:
    """Self milliseconds of every stack ending in ``leaf``."""
    return sum(ms for path, ms in profiler.self_ms.items() if path[-1] == leaf)


# ----------------------------------------------------------------------
# quic, netsim: what a scan and the monitor both sit on.
# ----------------------------------------------------------------------


def quic_metrics(datagrams: list[bytes], meter: Meter, budget_s: float,
                 short_dcid_length: int = 8) -> dict[str, float]:
    """Decode and re-encode the captured tap datagrams."""
    packets = []
    for data in datagrams:
        try:
            packets.append(decode_datagram(data, short_dcid_length))
        except (ValueError, IndexError):
            continue  # TCP segments and corrupted datagrams are not QUIC
    encodable = [
        [QuicPacket(header=p.header, frames=p.frames) for p in parsed]
        for parsed in packets
        if all(isinstance(p.header, ShortHeader) for p in parsed)
    ]

    def decode() -> None:
        for data in datagrams:
            try:
                decode_datagram(data, short_dcid_length)
            except (ValueError, IndexError):
                pass

    def encode() -> None:
        for datagram in encodable:
            encode_datagram(datagram)

    return {
        "quic.decode_datagrams_per_s": per_second(meter, len(datagrams), decode, budget_s / 2),
        "quic.encode_datagrams_per_s": per_second(meter, len(encodable), encode, budget_s / 2),
    }


def netsim_events_per_s(meter: Meter, budget_s: float, events: int = 50_000) -> float:
    """``Simulator.schedule`` + ``run`` over no-op events."""

    def noop() -> None:
        pass

    def cascade() -> None:
        simulator = Simulator()
        for index in range(events):
            simulator.schedule(float(index % 997), noop)
        simulator.run()

    return per_second(meter, events, cascade, budget_s)


def tap_corpus(seed: int, flows: int = 24) -> list[bytes]:
    return [
        tap.data
        for tap in TrafficMux(
            TrafficConfig(flows=flows, seed=seed, arrival_window_ms=1_500.0)
        ).stream()
    ]


# ----------------------------------------------------------------------
# The scan side (campaign workloads).
# ----------------------------------------------------------------------


class ScanCorpus:
    """Four scans of one domain subset, then the layers underneath them.

    Plain inline, pool, inline with a checkpoint directory, and inline
    with telemetry and the wall-clock phase profiler: the pairs give the
    pool speed-up and the checkpoint cost, the last one the counters
    (events, packets, connections, retries) and the scan's own phases.
    """

    def __init__(self, population, config, week: str, workers: int,
                 qlog_documents: list[dict], meter: Meter, tracer: Tracer,
                 workdir, budget_s: float) -> None:
        self.population = population
        self.qlog_documents = qlog_documents
        self.config = config
        self.week = week
        self.workers = workers
        self.meter = meter
        self.tracer = tracer
        self.workdir = workdir
        self.budget_s = budget_s
        self.domains = population.domains[: max(64, min(len(population.domains), 320))]

    def _scan(self, parallel: ParallelScanConfig, telemetry=None, checkpoint_dir=None):
        with Scanner(self.population, self.config, parallel, telemetry=telemetry) as scanner:
            with self.meter.round() as timing:
                dataset = scanner.scan(
                    week_label=self.week, domains=self.domains,
                    checkpoint_dir=checkpoint_dir,
                )
            return dataset, timing.ref_s, getattr(scanner, "last_scan_stats", {})

    def metrics(self) -> dict[str, float]:
        meter, n = self.meter, len(self.domains)
        inline = ParallelScanConfig(workers=1)
        self._scan(inline)  # warm this subset's providers and stacks
        _, inline_s, _ = self._scan(inline)
        _, pool_s, pool_stats = self._scan(
            ParallelScanConfig(workers=self.workers, chunk_size=64)
        )
        scratch = tempfile.mkdtemp(dir=self.workdir)
        try:
            _, checkpoint_s, _ = self._scan(
                ParallelScanConfig(workers=1, chunk_size=64), checkpoint_dir=scratch
            )
        finally:
            shutil.rmtree(scratch, ignore_errors=True)
        telemetry = Telemetry()
        telemetry.profiler = profiler = PhaseProfiler(clock=time.perf_counter)
        dataset, profiled_s, _ = self._scan(inline, telemetry=telemetry)
        speed = self.meter.rounds[-1]["speed"]
        exchange_s = phase_ms(profiler, "exchange") / 1e3 * speed
        events = counter_sum(telemetry, "netsim.events_dispatched")
        sent = counter_sum(telemetry, "quic.packets_sent")
        received = counter_sum(telemetry, "quic.packets_received")
        connections = counter_sum(telemetry, "scan.connections")
        metrics = {
            "web.inline_domains_per_s": rate(n, inline_s),
            "web.pool_speedup": rate(inline_s, pool_s),
            "web.units": pool_stats.get("units", 0),
            "web.splits": pool_stats.get("splits", 0),
            "web.phase.exchange_s": exchange_s,
            "web.phase.domain_self_s": phase_ms(profiler, "scan.domain") / 1e3 * speed,
            "web.phase.classify_s": phase_ms(profiler, "classify") / 1e3 * speed,
            "web.phase.qlog_s": phase_ms(profiler, "qlog") / 1e3 * speed,
            "web.profile_coverage": profiler.coverage(profiled_s / speed * 1e3),
            "web.connections_per_kdomain": rate(connections * 1e3, n),
            "web.retries": counter_sum(telemetry, "scan.retries"),
            "netsim.events_per_domain": rate(events, n),
            "quic.packets_per_domain": rate(sent + received, n),
            "faults.checkpoint_save_wait_s": checkpoint_s - inline_s,
            "faults.failed_connections": counter_sum(telemetry, "scan.failures"),
            "faults.breaker_skips": counter_sum(telemetry, "scan.breaker_skipped"),
        }
        slice_s = self.budget_s / 12
        metrics.update(self._planning(slice_s))
        metrics["netsim.events_per_s"] = netsim_events_per_s(meter, slice_s)
        metrics["netsim.est_share"] = rate(
            rate(events, metrics["netsim.events_per_s"]), exchange_s
        )
        metrics.update(
            quic_metrics(tap_corpus(self.population.config.seed), meter, slice_s * 2)
        )
        metrics["quic.est_share"] = rate(
            rate(received, metrics["quic.decode_datagrams_per_s"])
            + rate(sent, metrics["quic.encode_datagrams_per_s"]),
            exchange_s,
        )
        metrics.update(self._ipc(dataset.results, slice_s * 2))
        metrics.update(self._qlog(slice_s * 2))
        metrics.update(
            codec_metrics(dataset.connection_records(), meter, slice_s * 2)
        )
        return metrics

    def per_repetition(self, name: str) -> list[float]:
        """Seconds under spans called ``name``, summed per repetition."""
        totals: dict[int, float] = {}
        for span in self.tracer.spans:
            if span[0] == name:
                totals[span[4]] = totals.get(span[4], 0.0) + span[2] - span[1]
        return list(totals.values())

    def _planning(self, budget_s: float) -> dict[str, float]:
        domains = self.population.domains

        def plan() -> None:
            model = ShardCostModel(self.population, self.config, self.week, 4, 0)
            costs = [model.domain_cost(domain) for domain in domains]
            plan_shards(len(domains), 128, cost_of=costs.__getitem__)

        config = self.population.config
        count = min(2_000, config.toplist_domains + config.czds_domains)

        def materialize() -> None:
            StreamingPopulation(config).materialize_range(0, count)

        return {
            "web.plan_shards_ms": median(measure(self.meter, plan, budget_s / 2)) * 1e3,
            "internet.materialize_domains_per_s": per_second(
                self.meter, count, materialize, budget_s / 2
            ),
        }

    def _ipc(self, results, budget_s: float) -> dict[str, float]:
        targets = [result.domain for result in results]
        payload = encode_domain_results(results)

        def decode() -> None:
            results_from_cbr_payload(payload, targets, strict=True)

        return {
            "faults.ipc_encode_results_per_s": per_second(
                self.meter, len(results), lambda: encode_domain_results(results), budget_s / 2
            ),
            "faults.ipc_decode_results_per_s": per_second(
                self.meter, len(results), decode, budget_s / 2
            ),
        }

    def _qlog(self, budget_s: float) -> dict[str, float]:
        documents = self.qlog_documents
        if not documents:
            return {}
        events = sum(len(doc["traces"][0]["events"]) for doc in documents)
        buffer = io.StringIO()
        write_qlog_jsonl(documents, buffer)
        text = buffer.getvalue()
        corrupt = read_qlog_jsonl(io.StringIO(text)).corrupt_records
        return {
            "qlog.write_events_per_s": per_second(
                self.meter, events,
                lambda: write_qlog_jsonl(documents, io.StringIO()), budget_s / 2,
            ),
            "qlog.read_events_per_s": per_second(
                self.meter, events, lambda: read_qlog_jsonl(io.StringIO(text)), budget_s / 2
            ),
            "qlog.corrupt_records": corrupt,
        }


# ----------------------------------------------------------------------
# artifacts, analysis, service.
# ----------------------------------------------------------------------


def codec_metrics(records, meter: Meter, budget_s: float) -> dict[str, float]:
    """cbr encode, full decode, projected decode, frame concat on a batch."""
    if not records:
        return {}
    buffer = io.BytesIO()
    write_records_cbr(records, buffer)
    payload = buffer.getvalue()
    n = len(records)

    def decode(**want) -> None:
        for _ in CbrReader(io.BytesIO(payload)).record_batches(**want):
            pass

    def concat() -> None:
        concat_frames([io.BytesIO(payload) for _ in range(copies)], io.BytesIO())

    slice_s = budget_s / 4
    copies = 4
    return {
        "artifacts.cbr_encode_records_per_s": per_second(
            meter, n, lambda: write_records_cbr(records, io.BytesIO()), slice_s
        ),
        "artifacts.cbr_decode_records_per_s": per_second(meter, n, decode, slice_s),
        "artifacts.cbr_decode_projected_records_per_s": per_second(
            meter, n,
            lambda: decode(want_edges_received=False, want_edges_sorted=False), slice_s,
        ),
        "artifacts.concat_frames_mb_per_s": per_second(
            meter, copies * len(payload) / 1e6, concat, slice_s
        ),
    }


def artifact_metrics(records, path: str, names: list[str], meter: Meter,
                     budget_s: float) -> dict[str, float]:
    """Codecs on one batch, plus footer and domain-index reads of ``path``."""
    metrics = codec_metrics(records, meter, budget_s * 0.7)
    with open(path, "rb") as stream:
        footer = read_footer(stream)
        metrics["artifacts.chunks_total"] = len(footer.get("chunks") or ())
        reader = CbrIndexedReader(stream)
        reader.domain_index_lookup(names[0])  # loads the index once

        def footers() -> None:
            for _ in range(20):
                read_footer(stream)

        def lookups() -> None:
            for _ in range(20):
                for name in names:
                    reader.domain_index_lookup(name)

        metrics["artifacts.footer_load_ms"] = 1e3 / per_second(
            meter, 20, footers, budget_s * 0.15
        )
        metrics["artifacts.index_lookup_us"] = 1e6 / per_second(
            meter, 20 * len(names), lookups, budget_s * 0.15
        )
    return metrics


def analysis_metrics(path: str, weeks: list[str], meter: Meter,
                     budget_s: float) -> dict[str, float]:
    """Per-section fold time from a profiled pass; the planner alone."""
    telemetry = Telemetry()
    telemetry.profiler = profiler = PhaseProfiler(clock=time.perf_counter)
    engine = AnalysisEngine(build_record_folds("all"), telemetry=telemetry)
    with meter.round() as timing:
        with open_record_batches(path) as source:
            engine.run(source.batches())
    metrics = {
        f"analysis.fold_s.{section}": timing.ref(
            phase_ms(profiler, f"fold:{section}") / 1e3
        )
        for section in SECTIONS
    }
    predicates = [parse_where(f"week == {week}") for week in weeks]
    with open(path, "rb") as stream:
        reader = CbrIndexedReader(stream)

        def plan() -> None:
            for predicate in predicates:
                plan_chunks(reader.footer, predicate, reader.domain_index_lookup)

        metrics["analysis.plan_chunks_ms"] = 1e3 / per_second(
            meter, len(predicates), plan, budget_s
        )
    return metrics


def summary_load_ms(indexer, meter: Meter, budget_s: float) -> float:
    """``WeekIndexer.load_combined`` — what the first read after a fold pays."""
    return median(measure(meter, indexer.load_combined, budget_s)) * 1e3


# ----------------------------------------------------------------------
# core + monitor: the pieces of one MonitorPipeline pass.
# ----------------------------------------------------------------------


def monitor_metrics(stream, config, pass_s: float, meter: Meter,
                    budget_s: float) -> dict[str, float]:
    slice_s = budget_s / 6
    datagrams = [tap.data for tap in stream]

    def table_pass(on_sample=None, trail=None):
        resolver = (
            FlowKeyResolver(cid_linkage=config.cid_linkage)
            if config.track_migration else None
        )
        table = SpinFlowTable(
            short_dcid_length=config.short_dcid_length,
            max_flows=config.max_flows,
            idle_timeout_ms=config.idle_timeout_ms,
            overflow_policy=config.overflow_policy,
            retain_retired=False,
            observer_factory=lambda key: StreamingSpinObserver(on_sample=on_sample),
            on_packet=trail,
            resolver=resolver,
        )
        feed = table.on_server_datagram
        for tap in stream:
            feed(tap.time_ms, tap.data, tap.tuple4)

    table_s = median(measure(meter, table_pass, slice_s))
    metrics = {
        "core.flow_table_datagrams_per_s": rate(len(stream), table_s),
        "monitor.pipeline_self_s": pass_s - table_s,
    }

    # What the table handed its observers and the aggregator, replayed alone.
    samples: list[tuple[float, float]] = []
    packets: list[tuple[str, float]] = []
    table_pass(
        on_sample=lambda time_ms, rtt: samples.append((time_ms, rtt)),
        trail=lambda flow, time_ms: packets.append((flow.flow_key, time_ms)),
    )

    def observe() -> None:
        observers: dict[str, StreamingSpinObserver] = {}
        for number, (key, time_ms) in enumerate(packets):
            observer = observers.get(key)
            if observer is None:
                observer = observers[key] = StreamingSpinObserver()
            observer.on_packet(time_ms, number, bool(number >> 3 & 1))

    def aggregate() -> None:
        aggregator = WindowAggregator(config.window)
        for time_ms, rtt in samples:
            aggregator.roll(time_ms, {})
            aggregator.record_sample(time_ms, rtt)
        aggregator.flush({})

    metrics["core.observer_packets_per_s"] = per_second(
        meter, len(packets), observe, slice_s
    )
    metrics["monitor.aggregate_samples_per_s"] = per_second(
        meter, len(samples), aggregate, slice_s
    )
    if config.track_migration:
        identities = []
        for tap in stream:
            try:
                parsed = decode_datagram(tap.data, config.short_dcid_length)
            except (ValueError, IndexError):
                continue
            for packet in parsed:
                if isinstance(packet.header, ShortHeader):
                    identities.append((packet.header.destination_cid.hex, tap.tuple4))

        def resolve() -> None:
            resolver = FlowKeyResolver(cid_linkage=config.cid_linkage)
            for cid_hex, tuple4 in identities:
                resolver.resolve(cid_hex, tuple4)

        metrics["core.resolver_resolves_per_s"] = per_second(
            meter, len(identities), resolve, slice_s
        )
    metrics.update(quic_metrics(datagrams, meter, slice_s * 2, config.short_dcid_length))
    return metrics
