"""Structured failure taxonomy for scan exchanges.

The paper's adoption tables only make sense because failed exchanges
are *classified* rather than dropped on the floor (cf. "A First Look at
QUIC in the Wild", which treats the scan failure taxonomy as a
first-class result).  :func:`classify_exchange` reduces a failed
:class:`repro.web.http3.ExchangeResult` to one :class:`FailureKind`;
the scanner records it on every failed
:class:`~repro.web.scanner.ConnectionRecord`, the artifact export
carries it (only when present, keeping fault-free datasets
byte-identical to earlier schema emissions), and ``repro analyze``
renders the per-kind summary.
"""

from __future__ import annotations

from enum import Enum
from typing import Iterable, Mapping, Sequence

from repro._util.stats import add_counts

__all__ = [
    "RETRYABLE_KINDS",
    "FailureFold",
    "FailureKind",
    "classify_exchange",
    "failure_summary",
    "render_failure_table",
]


class FailureKind(Enum):
    """Why one exchange produced no (complete) response."""

    #: No packet ever came back — blackholed or filtered endpoint.
    UNREACHABLE = "unreachable"
    #: Packets flowed but the handshake never completed in time.
    HANDSHAKE_TIMEOUT = "handshake_timeout"
    #: No wire version in common (server answered VN only).
    VERSION_NEGOTIATION = "version_negotiation"
    #: The peer closed with a nonzero transport error mid-exchange.
    CONNECTION_RESET = "connection_reset"
    #: Handshake succeeded, then the response outlived the time budget.
    STALLED = "stalled"
    #: Application-space probe timeout exhausted its retries.
    PTO_EXHAUSTED = "pto_exhausted"
    #: The exchange drained without a complete response (catch-all).
    INCOMPLETE = "incomplete"
    #: Not attempted: the provider's circuit breaker was open.
    CIRCUIT_OPEN = "circuit_open"


#: Kinds a retry can plausibly fix.  A version mismatch is a protocol
#: property of the server (retrying re-fails identically) and an open
#: breaker is the *absence* of an attempt.
RETRYABLE_KINDS = frozenset(
    {
        FailureKind.UNREACHABLE,
        FailureKind.HANDSHAKE_TIMEOUT,
        FailureKind.CONNECTION_RESET,
        FailureKind.STALLED,
        FailureKind.PTO_EXHAUSTED,
        FailureKind.INCOMPLETE,
    }
)

_KIND_ORDER = {kind.value: index for index, kind in enumerate(FailureKind)}


def classify_exchange(exchange) -> FailureKind | None:
    """Map one :class:`ExchangeResult` to a kind; ``None`` on success."""
    if exchange.success:
        return None
    client = exchange.client
    reason = exchange.failure_reason or ""
    if reason.startswith("version negotiation failed"):
        return FailureKind.VERSION_NEGOTIATION
    if client is not None and client.peer_close_error_code:
        return FailureKind.CONNECTION_RESET
    received = len(exchange.recorder.received) if exchange.recorder else 0
    handshake_complete = client.handshake_complete if client is not None else False
    if getattr(exchange, "timed_out", False):
        if handshake_complete:
            return FailureKind.STALLED
        if received == 0:
            return FailureKind.UNREACHABLE
        return FailureKind.HANDSHAKE_TIMEOUT
    if "pto exhausted" in reason:
        if "application" in reason:
            return FailureKind.PTO_EXHAUSTED
        if received == 0:
            return FailureKind.UNREACHABLE
        return FailureKind.HANDSHAKE_TIMEOUT
    return FailureKind.INCOMPLETE


class FailureFold:
    """Streaming accumulator behind :func:`failure_summary`.

    Failed records without a recorded kind (pre-taxonomy datasets)
    count as ``unclassified``.
    """

    name = "failures"
    needs_edges_received = False
    needs_edges_sorted = False

    def __init__(self) -> None:
        self._counts: dict[str, int] = {}
        self._total = 0
        self._succeeded = 0

    def update_many(self, batch) -> None:
        """Absorb one :class:`~repro.artifacts.cbr.RecordBatch`."""
        self.update_columns(batch.successes, batch.failures)

    def update_columns(
        self, successes: Sequence[bool], failures: Sequence[FailureKind | None]
    ) -> None:
        """Absorb connections given as their two parallel outcome columns."""
        counts = self._counts
        succeeded = successes.count(True)
        self._total += len(successes)
        self._succeeded += succeeded
        if succeeded == len(successes):
            return
        for success, kind in zip(successes, failures):
            if not success:
                key = kind.value if kind is not None else "unclassified"
                counts[key] = counts.get(key, 0) + 1

    def state(self) -> dict:
        return {
            "failures_total": self._total,
            "failures_succeeded": self._succeeded,
            "failure_kinds": dict(self._counts),
        }

    def merge(self, state: Mapping) -> None:
        self._total += int(state.get("failures_total", 0))
        self._succeeded += int(state.get("failures_succeeded", 0))
        add_counts(self._counts, state.get("failure_kinds"))

    def finish(self) -> dict:
        """The :func:`failure_summary` dict, kinds in stable enum order."""
        ordered = dict(
            sorted(
                self._counts.items(),
                key=lambda item: _KIND_ORDER.get(item[0], len(_KIND_ORDER)),
            )
        )
        return {
            "total": self._total,
            "succeeded": self._succeeded,
            "failed": self._total - self._succeeded,
            "kinds": ordered,
        }


def failure_summary(records: Iterable) -> dict:
    """Count connection outcomes by kind, in stable enum order.

    ``records`` are :class:`~repro.web.scanner.ConnectionRecord` objects
    (live or loaded from an artifact).
    """
    records = list(records)
    fold = FailureFold()
    fold.update_columns(
        [record.success for record in records],
        [getattr(record, "failure", None) for record in records],
    )
    return fold.finish()


def render_failure_table(summary: dict) -> str:
    """Human-readable failure-taxonomy block (``repro analyze``)."""
    total = summary["total"]
    lines = [
        f"  connections            {total:6d}",
        f"  succeeded              {summary['succeeded']:6d}",
        f"  failed                 {summary['failed']:6d}",
    ]
    for key, count in summary["kinds"].items():
        share = count / total * 100.0 if total else 0.0
        lines.append(f"    {key:20s} {count:6d} {share:5.1f} %")
    return "\n".join(lines)
