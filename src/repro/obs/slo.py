"""Declarative SLOs with burn-rate evaluation over exported telemetry.

The operator question the service plane could not answer before this
module is not "what are the counters?" but "is the campaign *healthy*?"
— a judgement that needs objectives, not numbers.  An :class:`SLOSpec`
declares the objective; the :class:`HealthEngine` evaluates every spec
against a metrics snapshot (the exact dict `MetricsRegistry.snapshot`
produces and ``/v1/metrics`` serves) and renders a structured
:class:`HealthReport` with per-SLO verdicts and an overall one.

Evaluation is *pure*: snapshot in, report out.  No scanning, no
clock reads, no network — which is what lets ``repro status`` run the
same engine over the one snapshot :mod:`repro.obs.snapshot` loads, from
a live server's ``/v1/metrics`` or from a directory on disk.

Verdicts come from the **burn rate** — how fast the measured value
consumes its objective (``actual / objective``, inverted for
lower-bound objectives so burn > 1 always means "worse than target"):

======== =============================
burn     verdict
======== =============================
<= warn  ``ok``
<= fail  ``degraded``
>  fail  ``failing``
missing  ``no_data`` (never degrades)
======== =============================

Spec kinds:

* ``max_value`` / ``min_value`` — gauge (or counter) bound.
* ``max_ratio`` — numerator/denominator counters (e.g. error rate).
* ``quantile_max`` — histogram percentile bound (p50/p90/p99) using
  the log-histogram summary quantiles.
"""

from __future__ import annotations

import json
from typing import NamedTuple, Sequence

__all__ = [
    "HealthEngine",
    "HealthReport",
    "SLOResult",
    "SLOSpec",
    "default_service_slos",
    "parse_slo_specs",
    "with_service_gauges",
]

VERDICT_ORDER = ("ok", "no_data", "degraded", "failing")

_KINDS = ("max_value", "min_value", "max_ratio", "quantile_max")


class SLOSpec(NamedTuple):
    """One declarative objective over a telemetry series."""

    name: str
    kind: str
    metric: str
    objective: float
    #: Denominator series for ``max_ratio``.
    total: str | None = None
    #: Quantile key for ``quantile_max`` (50, 90, or 99).
    quantile: int | None = None
    warn_burn: float = 1.0
    fail_burn: float = 2.0
    description: str = ""


class SLOResult(NamedTuple):
    spec: SLOSpec
    verdict: str
    actual: float | None
    burn: float | None

    def to_dict(self) -> dict:
        return {
            "name": self.spec.name,
            "kind": self.spec.kind,
            "metric": self.spec.metric,
            "objective": self.spec.objective,
            "actual": self.actual,
            "burn": None if self.burn is None else round(self.burn, 4),
            "verdict": self.verdict,
            "description": self.spec.description,
        }


class HealthReport(NamedTuple):
    overall: str
    results: tuple[SLOResult, ...]

    def to_dict(self) -> dict:
        return {
            "overall": self.overall,
            "slos": [result.to_dict() for result in self.results],
        }

    def render(self) -> str:
        lines = [f"health: {self.overall}"]
        for result in self.results:
            actual = "n/a" if result.actual is None else f"{result.actual:g}"
            burn = "-" if result.burn is None else f"{result.burn:.2f}"
            lines.append(
                f"  [{result.verdict:8s}] {result.spec.name:18s}"
                f" {result.spec.metric} = {actual}"
                f" (objective {result.spec.objective:g}, burn {burn})"
            )
        return "\n".join(lines)

    @property
    def exit_code(self) -> int:
        """Shell-gate mapping: ok/no_data 0, degraded 1, failing 2."""
        if self.overall == "failing":
            return 2
        if self.overall == "degraded":
            return 1
        return 0


def _series_value(table: dict, metric: str) -> float | None:
    """Look up ``metric`` in a counters/gauges table, summing labelled
    series when the bare name is queried (``name{...}`` ids)."""
    if metric in table:
        return float(table[metric])
    total = None
    prefix = metric + "{"
    for series_id, value in table.items():
        if series_id.startswith(prefix):
            total = (total or 0.0) + float(value)
    return total


def _scalar(snapshot: dict, metric: str) -> float | None:
    for section in ("gauges", "counters"):
        value = _series_value(snapshot.get(section, {}), metric)
        if value is not None:
            return value
    return None


class HealthEngine:
    """Evaluates a set of SLO specs against metrics snapshots."""

    def __init__(self, specs: Sequence[SLOSpec]):
        self.specs = tuple(specs)

    def evaluate(self, snapshot: dict) -> HealthReport:
        results = tuple(self._evaluate_one(spec, snapshot) for spec in self.specs)
        overall = "ok"
        for result in results:
            if VERDICT_ORDER.index(result.verdict) > VERDICT_ORDER.index(overall):
                overall = result.verdict
        # A report that is nothing but missing data is not "ok".
        if results and all(r.verdict == "no_data" for r in results):
            overall = "no_data"
        elif overall == "no_data":
            overall = "ok"
        return HealthReport(overall, results)

    def _evaluate_one(self, spec: SLOSpec, snapshot: dict) -> SLOResult:
        actual = self._measure(spec, snapshot)
        if actual is None:
            return SLOResult(spec, "no_data", None, None)
        burn = self._burn(spec, actual)
        if burn <= spec.warn_burn:
            verdict = "ok"
        elif burn <= spec.fail_burn:
            verdict = "degraded"
        else:
            verdict = "failing"
        return SLOResult(spec, verdict, actual, burn)

    def _measure(self, spec: SLOSpec, snapshot: dict) -> float | None:
        if spec.kind in ("max_value", "min_value"):
            return _scalar(snapshot, spec.metric)
        if spec.kind == "max_ratio":
            numerator = _scalar(snapshot, spec.metric)
            denominator = _scalar(snapshot, spec.total or "")
            if denominator is None or denominator <= 0:
                return None
            # A missing numerator with a live denominator means the
            # event never happened (error counters only appear on the
            # first error) — that is a ratio of zero, not missing data.
            return max(0.0, numerator or 0.0) / denominator
        if spec.kind == "quantile_max":
            histogram = snapshot.get("histograms", {}).get(spec.metric)
            if not histogram or not histogram.get("count"):
                return None
            key = f"p{spec.quantile or 99}_ms"
            value = histogram.get(key)
            return None if value is None else float(value)
        raise ValueError(f"unknown SLO kind: {spec.kind!r}")

    def _burn(self, spec: SLOSpec, actual: float) -> float:
        objective = spec.objective
        if spec.kind == "min_value":
            # Lower bound: burn is how far *below* target we are.
            if actual <= 0:
                return float("inf") if objective > 0 else 1.0
            return objective / actual
        if objective <= 0:
            # Zero-tolerance objective: any positive actual is a breach.
            return float("inf") if actual > 0 else 0.0
        return actual / objective


def parse_slo_specs(text: str) -> list[SLOSpec]:
    """Parse a JSON SLO spec file (a list of spec objects).

    Required keys: ``name``, ``kind``, ``metric``, ``objective``; the
    rest default as in :class:`SLOSpec`.  Raises ``ValueError`` with a
    one-line message on malformed input (the CLI maps it to the usual
    ``repro: error:`` convention).
    """
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"SLO spec is not valid JSON: {exc}") from exc
    if not isinstance(payload, list):
        raise ValueError("SLO spec must be a JSON list of objects")
    specs = []
    for i, entry in enumerate(payload):
        if not isinstance(entry, dict):
            raise ValueError(f"SLO spec entry {i} is not an object")
        missing = [k for k in ("name", "kind", "metric", "objective") if k not in entry]
        if missing:
            raise ValueError(
                f"SLO spec entry {i} missing keys: {', '.join(missing)}"
            )
        if entry["kind"] not in _KINDS:
            raise ValueError(
                f"SLO spec entry {i}: unknown kind {entry['kind']!r}"
                f" (expected one of {', '.join(_KINDS)})"
            )
        specs.append(
            SLOSpec(
                name=str(entry["name"]),
                kind=str(entry["kind"]),
                metric=str(entry["metric"]),
                objective=float(entry["objective"]),
                total=entry.get("total"),
                quantile=entry.get("quantile"),
                warn_burn=float(entry.get("warn_burn", 1.0)),
                fail_burn=float(entry.get("fail_burn", 2.0)),
                description=str(entry.get("description", "")),
            )
        )
    return specs


def with_service_gauges(snapshot: dict, spool, indexer) -> dict:
    """``snapshot`` with the gauges of a spool + index directory pair set.

    Duck-typed over :class:`~repro.service.SpoolStore` and
    :class:`~repro.service.WeekIndexer`, either ``None`` when its
    directory does not exist; reads only the artifact listing and the
    ledger — never a chunk, never a scan.  ``/v1/metrics`` serves, and
    ``repro status --dir`` judges, the snapshot this returns, so a
    campaign is judged by the same gauges live and offline.  Gauges are
    ordered by series id, as a saved ``metrics.json`` orders them.
    """
    ledger = indexer.ledger() if indexer else set()
    spooled = spool.fingerprints() if spool else []
    gauges = {
        **snapshot["gauges"],
        "service.spool_backlog": float(sum(1 for f in spooled if f not in ledger)),
        "service.artifacts_spooled": float(len(spooled)),
        "service.weeks_indexed": float(len(indexer.weeks()) if indexer else 0),
    }
    return {**snapshot, "gauges": dict(sorted(gauges.items()))}


def default_service_slos() -> list[SLOSpec]:
    """The built-in objectives for the campaign service plane."""
    return [
        SLOSpec(
            name="scan-throughput",
            kind="min_value",
            metric="service.scan_domains_per_s",
            objective=50.0,
            fail_burn=4.0,
            description="sustained scan rate (domains/s, wall clock)",
        ),
        SLOSpec(
            name="indexer-lag",
            kind="max_value",
            metric="service.spool_backlog",
            objective=1.0,
            fail_burn=4.0,
            description="spooled artifacts not yet folded into week summaries",
        ),
        SLOSpec(
            name="campaign-backlog",
            kind="max_value",
            metric="service.pending_weeks",
            objective=1.0,
            fail_burn=3.0,
            description="scheduled weeks not yet scanned",
        ),
        SLOSpec(
            name="api-p50",
            kind="quantile_max",
            metric="api.request_ms",
            objective=25.0,
            quantile=50,
            description="median API latency (ms)",
        ),
        SLOSpec(
            name="api-p99",
            kind="quantile_max",
            metric="api.request_ms",
            objective=250.0,
            quantile=99,
            description="tail API latency (ms)",
        ),
        SLOSpec(
            name="api-errors",
            kind="max_ratio",
            metric="service.requests_errored",
            total="service.requests_total",
            objective=0.05,
            description="API 5xx/4xx error ratio",
        ),
    ]
