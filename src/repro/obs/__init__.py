"""repro.obs — the consumers of the telemetry plane.

:mod:`repro.telemetry` records (metrics and the trace log); this
package reads.  Everything deterministic stays a pure function of the
seed:

* :mod:`repro.obs.profile` — phase profiler for the scan/analyze hot
  paths, on an injected clock.
* :mod:`repro.obs.slo` — declarative SLOs evaluated as burn rates over
  exported metrics snapshots, yielding structured health reports.
* :mod:`repro.obs.snapshot` — the one snapshot ``repro status`` reads,
  from a running ``repro service serve`` or from a directory.
"""

from .profile import PhaseProfiler
from .slo import (
    HealthEngine,
    HealthReport,
    SLOResult,
    SLOSpec,
    default_service_slos,
    parse_slo_specs,
    with_service_gauges,
)

__all__ = [
    "HealthEngine",
    "HealthReport",
    "PhaseProfiler",
    "SLOResult",
    "SLOSpec",
    "default_service_slos",
    "parse_slo_specs",
    "with_service_gauges",
]
