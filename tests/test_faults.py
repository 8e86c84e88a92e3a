"""Fault injection, resilience, and failure taxonomy (repro.faults).

Unit tests for the plan/spec parser, the deterministic fault draws, the
retry backoff schedules, the circuit breaker, and the exchange
classifier — plus integration tests asserting the PR's robustness
guarantees: a faulted scan completes, every failed exchange carries a
:class:`FailureKind`, and the taxonomy is byte-identical at any worker
count.
"""

from __future__ import annotations

import io
import json
from types import SimpleNamespace

import pytest

from repro._util.rng import derive_rng
from repro.analysis.artifacts import record_to_dict
from repro.faults import (
    BreakerPass,
    BreakerPolicy,
    BurstLossImpairment,
    CircuitBreaker,
    DrawnFaults,
    FailureKind,
    FaultKind,
    FaultPlan,
    FaultSpec,
    ResilienceConfig,
    RetryPolicy,
    classify_exchange,
    corrupt_datagram_stream,
    parse_fault_plan,
    render_failure_table,
    truncate_jsonl_line,
)
from repro.faults.taxonomy import FailureFold
from repro.monitor.snapshots import run_monitor
from repro.monitor.traffic import TrafficConfig
from repro.qlog import read_qlog_jsonl, write_qlog_jsonl
from repro.web.parallel import ParallelScanConfig
from repro.web.scanner import DomainScanResult, ScanConfig, Scanner

from conftest import make_connection_record


class TestFaultPlanParsing:
    def test_single_spec(self):
        plan = parse_fault_plan("blackhole:0.25")
        assert plan.specs == (FaultSpec(FaultKind.BLACKHOLE, 0.25),)
        assert not plan.is_empty

    def test_magnitude_and_multiple_kinds(self):
        plan = parse_fault_plan("loss-burst:0.2:0.95,reset:0.1:4")
        assert plan.spec(FaultKind.LOSS_BURST).magnitude == 0.95
        assert plan.spec(FaultKind.RESET).probability == 0.1
        assert plan.spec(FaultKind.BLACKHOLE) is None

    def test_default_magnitudes(self):
        plan = parse_fault_plan("slow-server:1.0")
        assert plan.spec(FaultKind.SLOW_SERVER).effective_magnitude == 20_000.0

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown fault kind 'bogus'"):
            parse_fault_plan("bogus:0.5")

    def test_bad_shape(self):
        with pytest.raises(ValueError, match="expected kind:probability"):
            parse_fault_plan("blackhole")
        with pytest.raises(ValueError, match="expected kind:probability"):
            parse_fault_plan("blackhole:0.5:1:2")

    def test_non_numeric(self):
        with pytest.raises(ValueError, match="non-numeric field"):
            parse_fault_plan("blackhole:often")

    def test_empty_plan(self):
        with pytest.raises(ValueError, match="empty fault plan"):
            parse_fault_plan(" , ")

    def test_probability_out_of_range(self):
        with pytest.raises(ValueError, match="must be in \\[0, 1\\]"):
            parse_fault_plan("blackhole:1.5")

    def test_magnitude_must_be_positive(self):
        with pytest.raises(ValueError, match="must be positive"):
            parse_fault_plan("reset:0.5:0")

    def test_duplicate_kind_rejected(self):
        with pytest.raises(ValueError, match="duplicate fault kind"):
            parse_fault_plan("reset:0.5,reset:0.2")

    def test_zero_probability_plan_is_empty(self):
        assert parse_fault_plan("blackhole:0").is_empty
        assert FaultPlan().is_empty


class TestFaultDraws:
    PLAN = parse_fault_plan(
        "blackhole:0.3,handshake-stall:0.4,vn-failure:0.3,"
        "reset:0.4,slow-server:0.4,loss-burst:0.4"
    )

    def test_same_seed_same_draw(self):
        for label in ("a.example", "b.example", "c.example"):
            first = self.PLAN.draw(derive_rng(42, label, "faults"))
            again = self.PLAN.draw(derive_rng(42, label, "faults"))
            assert first == again

    def test_spelling_order_does_not_matter(self):
        forward = parse_fault_plan("blackhole:0.5,reset:0.5")
        reverse = parse_fault_plan("reset:0.5,blackhole:0.5")
        for seed in range(30):
            rng_a = derive_rng(seed, "draw")
            rng_b = derive_rng(seed, "draw")
            assert forward.draw(rng_a) == reverse.draw(rng_b)

    def test_empty_plan_draws_nothing(self):
        drawn = FaultPlan().draw(derive_rng(1, "x"))
        assert drawn == DrawnFaults()
        assert not drawn.any_active

    def test_export_side_kinds_consume_no_randomness(self):
        # qlog-truncate / corrupt-datagram apply outside the exchange;
        # their presence must not shift the scan-side draw stream.
        with_export = parse_fault_plan("qlog-truncate:1.0,reset:0.5")
        without = parse_fault_plan("reset:0.5")
        for seed in range(30):
            assert with_export.draw(derive_rng(seed, "d")) == without.draw(
                derive_rng(seed, "d")
            )

    def test_drawn_faults_eventually_cover_all_kinds(self):
        seen_reset = seen_blackhole = seen_vn = False
        for seed in range(200):
            drawn = self.PLAN.draw(derive_rng(seed, "coverage"))
            seen_reset = seen_reset or drawn.reset_after_packets is not None
            seen_blackhole = seen_blackhole or drawn.blackhole
            seen_vn = seen_vn or drawn.vn_failure
        assert seen_reset and seen_blackhole and seen_vn

    def test_burst_loss_window(self):
        burst = BurstLossImpairment(
            start_ms=100.0, duration_ms=50.0, loss_probability=1.0
        )
        rng = derive_rng(7, "burst")
        before = rng.getstate()
        assert not burst(99.9, rng)
        assert not burst(150.0, rng)
        # Outside the window no RNG draw happens (fault-free packets
        # stay on their usual random stream).
        assert rng.getstate() == before
        assert burst(100.0, rng)
        assert rng.getstate() != before


def backoff_schedule(policy: RetryPolicy, rng) -> list[float]:
    """The backoff before each retry of a maximally retrying exchange."""
    return [policy.delay_ms(index, rng) for index in range(policy.max_attempts - 1)]


def run_breaker(results, policy, key_of):
    """A :class:`BreakerPass` over ``results``, replaced in place; the
    per-key breakers."""
    run = BreakerPass(policy, key_of)
    results[:] = [run.step(result) for result in results]
    return run.breakers


def fold_failures(records) -> dict:
    """The ``--section failures`` summary of ``records``."""
    records = list(records)
    fold = FailureFold()
    fold.update_columns([r.success for r in records], [r.failure for r in records])
    return fold.finish()


def cut_lines(lines, plan, seed):
    """An export's lines as qlog-truncate leaves them, and how many it cut."""
    out = [truncate_jsonl_line(line, index, plan, seed) for index, line in enumerate(lines)]
    return out, sum(len(cut) < len(line) for cut, line in zip(out, lines))


class TestRetryPolicy:
    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(multiplier=0.5)
        with pytest.raises(ValueError):
            RetryPolicy(jitter_fraction=1.5)
        with pytest.raises(ValueError):
            RetryPolicy(base_delay_ms=-1.0)

    def test_exponential_growth_and_cap(self):
        policy = RetryPolicy(
            max_attempts=6,
            base_delay_ms=100.0,
            multiplier=2.0,
            max_delay_ms=500.0,
            jitter_fraction=0.0,
        )
        schedule = backoff_schedule(policy, derive_rng(1, "unused"))
        assert schedule == [100.0, 200.0, 400.0, 500.0, 500.0]

    def test_jitter_bounded(self):
        policy = RetryPolicy(base_delay_ms=100.0, jitter_fraction=0.25)
        for seed in range(50):
            delay = policy.delay_ms(0, derive_rng(seed, "jitter"))
            assert 100.0 <= delay <= 125.0

    def test_schedule_is_a_pure_function_of_the_seed(self):
        # Satellite property test: same seed => identical retry
        # schedules, across policies and repeated evaluation.
        policy = RetryPolicy(max_attempts=5)
        for seed in range(25):
            first = backoff_schedule(policy, derive_rng(seed, "retry"))
            again = backoff_schedule(policy, derive_rng(seed, "retry"))
            assert first == again
            assert len(first) == 4


class TestCircuitBreaker:
    def test_policy_validation(self):
        with pytest.raises(ValueError):
            BreakerPolicy(failure_threshold=0)
        with pytest.raises(ValueError):
            BreakerPolicy(cooldown_attempts=0)

    def test_stays_closed_below_threshold(self):
        breaker = CircuitBreaker(BreakerPolicy(failure_threshold=3))
        for _ in range(2):
            assert breaker.allows()
            breaker.record(False)
        assert breaker.trips == 0
        assert breaker.allows()

    def test_success_resets_the_failure_streak(self):
        breaker = CircuitBreaker(BreakerPolicy(failure_threshold=3))
        for outcome in (False, False, True, False, False):
            assert breaker.allows()
            breaker.record(outcome)
        assert breaker.trips == 0
        assert breaker.allows()

    def test_trips_and_skips_cooldown(self):
        breaker = CircuitBreaker(
            BreakerPolicy(failure_threshold=2, cooldown_attempts=3)
        )
        for _ in range(2):
            assert breaker.allows()
            breaker.record(False)
        assert breaker.trips == 1
        for _ in range(3):
            assert not breaker.allows()
        assert breaker.skipped == 3

    def test_half_open_probe_success_closes(self):
        breaker = CircuitBreaker(
            BreakerPolicy(failure_threshold=2, cooldown_attempts=1)
        )
        breaker.record(False)
        breaker.record(False)
        assert not breaker.allows()  # the one cooldown skip
        assert breaker.allows()  # half-open probe goes through
        breaker.record(True)
        assert breaker.allows()
        # Closed again: a single failure does not re-trip.
        breaker.record(False)
        assert breaker.allows()
        assert breaker.trips == 1

    def test_half_open_probe_failure_reopens(self):
        breaker = CircuitBreaker(
            BreakerPolicy(failure_threshold=2, cooldown_attempts=2)
        )
        breaker.record(False)
        breaker.record(False)
        assert not breaker.allows()
        assert not breaker.allows()
        assert breaker.allows()  # half-open probe
        breaker.record(False)  # probe fails: straight back to open
        assert breaker.trips == 2
        assert not breaker.allows()


class TestApplyCircuitBreaker:
    @staticmethod
    def _result(domain, success: bool) -> DomainScanResult:
        record = make_connection_record(
            spin_rtts=[20.0], stack_rtts=[20.0], domain=domain.name
        )
        record.success = success
        if not success:
            record.failure = FailureKind.UNREACHABLE
        return DomainScanResult(
            domain=domain,
            resolved=True,
            quic_support=success,
            connections=[record],
        )

    def test_short_circuits_after_threshold(self, tiny_population):
        domains = tiny_population.domains[:8]
        policy = BreakerPolicy(failure_threshold=2, cooldown_attempts=3)
        results = [self._result(d, success=False) for d in domains]
        breakers = run_breaker(results, policy, key_of=lambda r: "p")
        # Results 0-1 trip the breaker, 2-4 are skipped, 5 is the
        # half-open probe (fails, re-opens), 6-7 are skipped again.
        assert breakers["p"].trips == 2
        skipped = [r for r in results if r.failure is FailureKind.CIRCUIT_OPEN]
        assert [results.index(r) for r in skipped] == [2, 3, 4, 6, 7]
        for result in skipped:
            assert len(result.connections) == 1
            assert not result.quic_support
            record = result.connections[0]
            assert not record.success
            assert record.failure is FailureKind.CIRCUIT_OPEN
            assert record.domain == result.domain.name

    def test_connectionless_results_carry_no_signal(self, tiny_population):
        domains = tiny_population.domains[:6]
        policy = BreakerPolicy(failure_threshold=2, cooldown_attempts=2)
        results = []
        for index, domain in enumerate(domains):
            if index % 2 == 0:
                results.append(self._result(domain, success=False))
            else:
                results.append(
                    DomainScanResult(domain=domain, resolved=False, quic_support=False)
                )
        run_breaker(results, policy, key_of=lambda r: "p")
        for result in results:
            if not result.connections:
                assert result.failure is None

    def test_keys_are_independent(self, tiny_population):
        domains = tiny_population.domains[:6]
        policy = BreakerPolicy(failure_threshold=3, cooldown_attempts=2)
        results = [self._result(d, success=False) for d in domains]
        keys = ["a", "b", "a", "b", "a", "b"]
        breakers = run_breaker(
            results, policy, key_of=lambda r: keys[results.index(r)]
        )
        # Each key saw only 3 failures: exactly at threshold, no skips yet.
        assert breakers["a"].trips == 1 and breakers["a"].skipped == 0
        assert breakers["b"].trips == 1 and breakers["b"].skipped == 0


def _exchange(
    success=False,
    failure_reason="",
    peer_close_error_code=0,
    handshake_complete=True,
    received=5,
    timed_out=False,
):
    return SimpleNamespace(
        success=success,
        failure_reason=failure_reason,
        client=SimpleNamespace(
            peer_close_error_code=peer_close_error_code,
            handshake_complete=handshake_complete,
        ),
        recorder=SimpleNamespace(received=list(range(received))),
        timed_out=timed_out,
    )


class TestClassifyExchange:
    def test_success_is_unclassified(self):
        assert classify_exchange(_exchange(success=True)) is None

    def test_version_negotiation(self):
        exchange = _exchange(failure_reason="version negotiation failed: no common version")
        assert classify_exchange(exchange) is FailureKind.VERSION_NEGOTIATION

    def test_connection_reset(self):
        exchange = _exchange(peer_close_error_code=0x6)
        assert classify_exchange(exchange) is FailureKind.CONNECTION_RESET

    def test_timeout_after_handshake_is_stalled(self):
        exchange = _exchange(timed_out=True, handshake_complete=True)
        assert classify_exchange(exchange) is FailureKind.STALLED

    def test_timeout_with_silence_is_unreachable(self):
        exchange = _exchange(timed_out=True, handshake_complete=False, received=0)
        assert classify_exchange(exchange) is FailureKind.UNREACHABLE

    def test_timeout_mid_handshake(self):
        exchange = _exchange(timed_out=True, handshake_complete=False, received=3)
        assert classify_exchange(exchange) is FailureKind.HANDSHAKE_TIMEOUT

    def test_pto_exhausted_variants(self):
        application = _exchange(failure_reason="pto exhausted (application)")
        assert classify_exchange(application) is FailureKind.PTO_EXHAUSTED
        silent = _exchange(failure_reason="pto exhausted (handshake)", received=0)
        assert classify_exchange(silent) is FailureKind.UNREACHABLE
        mid = _exchange(failure_reason="pto exhausted (handshake)", received=2)
        assert classify_exchange(mid) is FailureKind.HANDSHAKE_TIMEOUT

    def test_fallback_is_incomplete(self):
        assert classify_exchange(_exchange()) is FailureKind.INCOMPLETE


class TestFailureSummary:
    def test_counts_in_enum_order(self):
        records = [
            SimpleNamespace(success=True, failure=None),
            SimpleNamespace(success=False, failure=FailureKind.INCOMPLETE),
            SimpleNamespace(success=False, failure=FailureKind.UNREACHABLE),
            SimpleNamespace(success=False, failure=FailureKind.UNREACHABLE),
            SimpleNamespace(success=False, failure=None),
        ]
        summary = fold_failures(records)
        assert summary["total"] == 5
        assert summary["succeeded"] == 1
        assert summary["failed"] == 4
        assert list(summary["kinds"]) == ["unreachable", "incomplete", "unclassified"]
        assert summary["kinds"]["unreachable"] == 2

    def test_render_table(self):
        summary = fold_failures(
            [SimpleNamespace(success=False, failure=FailureKind.STALLED)]
        )
        table = render_failure_table(summary)
        assert "failed" in table
        assert "stalled" in table
        assert "100.0 %" in table


# A plan aggressive enough that a few-hundred-domain scan exercises
# several kinds, plus retries/timeouts/breaker on the absorbing side.
CHAOS_PLAN = parse_fault_plan(
    "blackhole:0.04,handshake-stall:0.06,vn-failure:0.04,"
    "reset:0.06,slow-server:0.05,loss-burst:0.05"
)
CHAOS_RESILIENCE = ResilienceConfig(
    connect_timeout_ms=20_000.0,
    domain_budget_ms=120_000.0,
    retry=RetryPolicy(max_attempts=2),
    breaker=BreakerPolicy(failure_threshold=4, cooldown_attempts=6),
)


@pytest.fixture(scope="module")
def chaos_scans(tiny_population):
    """The same faulted scan at --workers 1 and --workers 4."""
    config = ScanConfig(faults=CHAOS_PLAN, resilience=CHAOS_RESILIENCE)
    domains = tiny_population.domains[:400]
    sequential = Scanner(tiny_population, config).scan(domains=domains)
    sharded = Scanner(
        tiny_population, config, parallel=ParallelScanConfig(workers=4)
    ).scan(domains=domains)
    return domains, sequential, sharded


class TestFaultedScan:
    def test_completes_with_nonzero_fault_plan(self, chaos_scans):
        domains, sequential, _ = chaos_scans
        assert len(sequential.results) == len(domains)

    def test_every_failed_exchange_is_classified(self, chaos_scans):
        _, sequential, _ = chaos_scans
        for record in sequential.connection_records():
            if record.success:
                assert record.failure is None
            else:
                assert isinstance(record.failure, FailureKind)

    def test_multiple_kinds_observed(self, chaos_scans):
        _, sequential, _ = chaos_scans
        kinds = {
            r.failure for r in sequential.connection_records() if r.failure is not None
        }
        assert len(kinds) >= 3

    def test_domain_failure_mirrors_last_connection(self, chaos_scans):
        _, sequential, _ = chaos_scans
        for result in sequential.results:
            if result.connections and not result.quic_support:
                assert result.failure == result.connections[-1].failure

    def test_dataset_identical_across_worker_counts(self, chaos_scans):
        _, sequential, sharded = chaos_scans
        a = [record_to_dict(r) for r in sequential.connection_records()]
        b = [record_to_dict(r) for r in sharded.connection_records()]
        assert a == b

    def test_taxonomy_identical_across_worker_counts(self, chaos_scans):
        _, sequential, sharded = chaos_scans
        summary_1 = fold_failures(sequential.connection_records())
        summary_4 = fold_failures(sharded.connection_records())
        assert summary_1 == summary_4
        assert render_failure_table(summary_1) == render_failure_table(summary_4)
        assert summary_1["failed"] > 0


class TestFaultsDisabledIdentity:
    def test_zero_probability_plan_equals_plain_scan(self, tiny_population):
        domains = tiny_population.domains[:150]
        plain = Scanner(tiny_population, ScanConfig()).scan(domains=domains)
        armed_off = Scanner(
            tiny_population,
            ScanConfig(faults=parse_fault_plan("blackhole:0,reset:0")),
        ).scan(domains=domains)
        a = [record_to_dict(r) for r in plain.connection_records()]
        b = [record_to_dict(r) for r in armed_off.connection_records()]
        assert a == b

    def test_no_failure_key_without_faults(self, tiny_population):
        domains = tiny_population.domains[:60]
        dataset = Scanner(tiny_population, ScanConfig()).scan(domains=domains)
        for record in dataset.connection_records():
            assert record.failure is None
            assert "failure" not in record_to_dict(record)

    def test_faults_active_property(self):
        assert not ScanConfig().faults_active
        assert not ScanConfig(faults=parse_fault_plan("reset:0")).faults_active
        assert ScanConfig(faults=parse_fault_plan("reset:0.1")).faults_active
        assert ScanConfig(resilience=ResilienceConfig()).faults_active


@pytest.fixture(scope="module")
def qlog_documents(tiny_population):
    """A handful of real qlog documents from a sampled scan."""
    dataset = Scanner(tiny_population, ScanConfig(qlog_sample_rate=1.0)).scan(
        domains=tiny_population.domains[:40]
    )
    documents = [
        r.qlog for r in dataset.connection_records() if r.qlog is not None
    ]
    assert documents
    return documents


class TestQlogJsonlTolerance:
    def test_round_trip(self, qlog_documents):
        out = io.StringIO()
        count = write_qlog_jsonl(qlog_documents, out)
        assert count == len(qlog_documents)
        result = read_qlog_jsonl(io.StringIO(out.getvalue()))
        assert result.corrupt_records == 0
        assert len(result.recorders) == len(qlog_documents)

    def test_hand_truncated_final_line_is_counted(self, qlog_documents):
        # Satellite regression test: a crash-mid-write qlog file (last
        # line cut in half) must be read tolerantly, not crash the
        # reader, and the damage must be counted.
        out = io.StringIO()
        write_qlog_jsonl(qlog_documents, out)
        lines = out.getvalue().splitlines()
        lines[-1] = lines[-1][: len(lines[-1]) // 2]
        result = read_qlog_jsonl(io.StringIO("\n".join(lines) + "\n"))
        assert result.corrupt_records == 1
        assert len(result.recorders) == len(qlog_documents) - 1

    def test_non_object_lines_are_corrupt(self):
        stream = io.StringIO('[1,2,3]\n"text"\n\n')
        result = read_qlog_jsonl(stream)
        assert result.recorders == []
        assert result.corrupt_records == 2  # blank lines are skipped

    def test_truncate_jsonl_lines_deterministic(self, qlog_documents):
        lines = [json.dumps(doc, separators=(",", ":")) for doc in qlog_documents]
        plan = parse_fault_plan("qlog-truncate:0.5")
        first, count_first = cut_lines(lines, plan, seed=99)
        again, count_again = cut_lines(lines, plan, seed=99)
        assert first == again and count_first == count_again
        assert count_first > 0
        certain, count_all = cut_lines(
            lines, parse_fault_plan("qlog-truncate:1.0"), seed=99
        )
        assert count_all == len(lines)
        for cut, original in zip(certain, lines):
            assert len(cut) < len(original)

    def test_truncate_noop_without_spec(self, qlog_documents):
        lines = [json.dumps(doc) for doc in qlog_documents]
        assert cut_lines(lines, None, seed=1) == (lines, 0)
        plan = parse_fault_plan("reset:0.5")
        assert cut_lines(lines, plan, seed=1) == (lines, 0)


class TestMonitorFaults:
    TRAFFIC = TrafficConfig(flows=40, seed=7, arrival_window_ms=1_500.0)

    def test_corrupt_datagrams_counted_not_fatal(self):
        plan = parse_fault_plan("corrupt-datagram:0.08")
        summary = run_monitor(self.TRAFFIC, faults=plan)
        assert summary.parse_errors > 0
        assert summary.flows_created > 0

    def test_corrupt_datagrams_deterministic(self):
        plan = parse_fault_plan("corrupt-datagram:0.08")
        first = run_monitor(self.TRAFFIC, faults=plan)
        again = run_monitor(self.TRAFFIC, faults=plan)
        assert first.as_dict() == again.as_dict()

    def test_empty_plan_changes_nothing(self):
        clean = run_monitor(self.TRAFFIC)
        gated = run_monitor(self.TRAFFIC, faults=parse_fault_plan("corrupt-datagram:0"))
        assert clean.as_dict() == gated.as_dict()

    def test_corrupt_stream_preserves_timing(self):
        from repro.monitor.traffic import TrafficMux

        stream = list(TrafficMux(self.TRAFFIC).stream())
        rng = derive_rng(7, "monitor", "faults")
        mangled = list(corrupt_datagram_stream(iter(stream), 0.2, rng))
        assert len(mangled) == len(stream)
        shorter = 0
        for out, original in zip(mangled, stream):
            assert out.time_ms == original.time_ms
            if len(out.data) < len(original.data):
                shorter += 1
                assert len(out.data) <= 8
        assert shorter > 0


class TestCliHardening:
    """Config errors exit nonzero with one clean stderr line."""

    @staticmethod
    def _error_of(argv) -> str:
        from repro.cli import main

        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        message = str(excinfo.value)
        assert message.startswith("repro: error: ")
        assert "\n" not in message
        assert "Traceback" not in message
        return message

    # Every error below fires during config validation, before any
    # output file is opened, so /dev/null never actually receives data.
    SMALL = ["--toplist", "50", "--czds", "200", "--out", "/dev/null"]

    def test_bad_fault_kind(self):
        message = self._error_of(["scan", *self.SMALL, "--fault", "gremlins:0.5"])
        assert "unknown fault kind" in message

    def test_fault_probability_out_of_range(self):
        message = self._error_of(["scan", *self.SMALL, "--fault", "blackhole:2.0"])
        assert "must be in [0, 1]" in message

    def test_bad_workers(self):
        message = self._error_of(["scan", *self.SMALL, "--workers", "-2"])
        assert "workers" in message

    def test_bad_qlog_sample_rate(self):
        message = self._error_of(["scan", *self.SMALL, "--qlog-sample-rate", "2.0"])
        assert "qlog_sample_rate" in message

    def test_negative_retries(self):
        message = self._error_of(["scan", *self.SMALL, "--retries", "-1"])
        assert "max_attempts" in message

    def test_bad_connect_timeout(self):
        message = self._error_of(
            ["scan", *self.SMALL, "--connect-timeout-ms", "-5"]
        )
        assert "connect_timeout_ms" in message

    def test_unreadable_analyze_input(self, tmp_path):
        missing = tmp_path / "nope.jsonl"
        message = self._error_of(["analyze", str(missing)])
        assert "cannot read" in message

    def test_monitor_bad_fault(self):
        message = self._error_of(
            [
                "monitor", "--flows", "5", "--out", "/dev/null",
                "--fault", "blackhole:nan",
            ]
        )
        assert "must be in [0, 1]" in message
