"""repro.obs — the consumers of the telemetry plane.

:mod:`repro.telemetry` records (metrics and the trace log); this
package reads.  Everything deterministic stays a pure function of the
seed:

* :mod:`repro.obs.profile` — charge-driven sampling profiler for the
  scan/analyze hot paths (simulated or injected wall clock).
* :mod:`repro.obs.slo` — declarative SLOs evaluated as burn rates over
  exported metrics snapshots, yielding structured health reports.
* :mod:`repro.obs.console` — the one-shot ``repro top`` operator
  console over a running ``repro service serve``.
"""

from .profile import PhaseProfiler
from .slo import (
    HealthEngine,
    HealthReport,
    SLOResult,
    SLOSpec,
    collect_service_gauges,
    default_service_slos,
    parse_slo_specs,
)

__all__ = [
    "HealthEngine",
    "HealthReport",
    "PhaseProfiler",
    "SLOResult",
    "SLOSpec",
    "collect_service_gauges",
    "default_service_slos",
    "parse_slo_specs",
]
