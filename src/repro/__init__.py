"""repro — reproduction of "Does It Spin? On the Adoption and Use of
QUIC's Spin Bit" (Kunze, Sander, Wehrle; ACM IMC 2023).

The package rebuilds the paper's entire measurement system against a
synthetic, calibrated Internet (see DESIGN.md):

* :mod:`repro.core` — the spin-bit mechanism, passive observer, grease
  filter, accuracy metrics, RFC 9312 heuristics, and the VEC extension;
* :mod:`repro.quic` — byte-level QUIC v1 endpoints with RFC 9002 RTT
  estimation;
* :mod:`repro.netsim` — deterministic discrete-event network paths;
* :mod:`repro.qlog` — qlog-compatible trace capture with the spin-bit
  extension;
* :mod:`repro.web` — HTTP/3 exchanges, server stack profiles, and the
  zgrab2-equivalent scanner;
* :mod:`repro.monitor` — the streaming on-path monitoring service:
  many-flow traffic multiplexing, bounded flow-table pipeline, windowed
  RTT aggregation, JSONL metric snapshots;
* :mod:`repro.internet` — providers, AS database, domain population;
* :mod:`repro.campaign` — the measurement calendar and its week selections;
* :mod:`repro.analysis` — the aggregations behind Tables 1-4 and
  Figures 2-4.

Quickstart::

    from repro import build_population, Scanner, domain_flags, domain_tables

    population = build_population()
    dataset = Scanner(population).scan()
    overview, configuration = domain_tables(
        domain_flags(dataset.results), population, dataset.ip_version, dataset.week_label
    )
"""

from repro.analysis import (
    accuracy_study,
    domain_flags,
    domain_tables,
    organization_table,
    webserver_shares,
)
from repro.campaign import DEFAULT_CAMPAIGN, CalendarWeek, Campaign
from repro.core import (
    GreaseFilterVariant,
    SpinBehaviour,
    SpinObserver,
    SpinPolicy,
    compare_means,
    is_greasing,
    mapped_ratio,
    observe_recorder,
)
from repro.internet import (
    ListGroup,
    Population,
    PopulationConfig,
    build_default_asdb,
    build_population,
)
from repro.monitor import (
    MonitorConfig,
    MonitorPipeline,
    TrafficConfig,
    TrafficMux,
    run_monitor,
)
from repro.qlog import TraceRecorder, read_qlog, recorder_to_qlog, write_qlog
from repro.web import (
    ParallelScanConfig,
    ResponsePlan,
    ScanConfig,
    Scanner,
    run_exchange,
)

__version__ = "1.0.0"

__all__ = [
    "CalendarWeek",
    "Campaign",
    "DEFAULT_CAMPAIGN",
    "GreaseFilterVariant",
    "ListGroup",
    "MonitorConfig",
    "MonitorPipeline",
    "Population",
    "PopulationConfig",
    "ResponsePlan",
    "ScanConfig",
    "Scanner",
    "SpinBehaviour",
    "SpinObserver",
    "SpinPolicy",
    "TraceRecorder",
    "TrafficConfig",
    "TrafficMux",
    "__version__",
    "accuracy_study",
    "build_default_asdb",
    "build_population",
    "compare_means",
    "domain_flags",
    "domain_tables",
    "is_greasing",
    "mapped_ratio",
    "observe_recorder",
    "organization_table",
    "read_qlog",
    "recorder_to_qlog",
    "run_exchange",
    "run_monitor",
    "webserver_shares",
    "write_qlog",
]
