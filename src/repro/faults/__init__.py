"""repro.faults: deterministic fault injection + resilience machinery.

Two symmetric halves:

* the *injecting* side (:mod:`repro.faults.spec`): composable
  :class:`FaultSpec` plans drawn per domain from a dedicated RNG stream
  — loss bursts, blackholes, handshake stalls, version-negotiation
  failures, mid-exchange resets, slow servers, truncated qlog records,
  corrupted monitor datagrams;
* the *absorbing* side: timeout budgets and bounded retries with
  deterministic backoff (:mod:`repro.faults.retry`,
  :mod:`repro.faults.resilience`), a per-provider circuit breaker fed
  results in population order (:mod:`repro.faults.breaker`),
  the :class:`FailureKind` taxonomy recorded on every failed exchange
  (:mod:`repro.faults.taxonomy`), and crash-safe campaign resume from
  per-shard checkpoints (:mod:`repro.faults.checkpoint`).

DESIGN.md Section "Robustness & fault injection" documents why fault
draws come from the scan RNG and how every piece stays byte-identical
across worker counts.
"""

from repro.faults.breaker import (
    BreakerPass,
    BreakerPolicy,
    CircuitBreaker,
    apply_circuit_breaker,
)
from repro.faults.checkpoint import (
    CheckpointError,
    CheckpointStore,
    encode_domain_results,
    results_from_cbr_payload,
    scan_fingerprint,
)
from repro.faults.resilience import ResilienceConfig
from repro.faults.shardwriter import AsyncCheckpointWriter
from repro.faults.retry import RetryPolicy
from repro.faults.spec import (
    BlackholeImpairment,
    BurstLossImpairment,
    DrawnFaults,
    FaultKind,
    FaultPlan,
    FaultSpec,
    VN_FAULT_VERSION,
    corrupt_datagram_stream,
    parse_fault_plan,
    truncate_jsonl_line,
    truncate_jsonl_lines,
)
from repro.faults.taxonomy import (
    RETRYABLE_KINDS,
    FailureFold,
    FailureKind,
    classify_exchange,
    failure_summary,
    render_failure_table,
)

__all__ = [
    "AsyncCheckpointWriter",
    "BlackholeImpairment",
    "BreakerPass",
    "BreakerPolicy",
    "BurstLossImpairment",
    "CheckpointError",
    "CheckpointStore",
    "CircuitBreaker",
    "DrawnFaults",
    "FailureFold",
    "FailureKind",
    "FaultKind",
    "FaultPlan",
    "FaultSpec",
    "RETRYABLE_KINDS",
    "ResilienceConfig",
    "RetryPolicy",
    "VN_FAULT_VERSION",
    "apply_circuit_breaker",
    "classify_exchange",
    "corrupt_datagram_stream",
    "encode_domain_results",
    "failure_summary",
    "parse_fault_plan",
    "render_failure_table",
    "results_from_cbr_payload",
    "scan_fingerprint",
    "truncate_jsonl_line",
    "truncate_jsonl_lines",
]
