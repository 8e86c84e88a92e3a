"""The paper's primary contribution: spin-bit measurement and analysis.

This subpackage holds everything specific to the spin-bit study itself:
the RFC 9000 spin state machines and deployment policies, the passive
observer with its R/S orderings, the grease filter, the Section 5.1
accuracy metrics, the Table 3 behaviour classification, the RFC 9312
observer heuristics, and the (non-standardized) Valid Edge Counter.
Raw datagrams are read by two on-path observers: the monitor's
many-flow :class:`SpinFlowTable` (server-to-client only) and the
one-connection, two-direction :class:`SpinTomographyObserver`, fed by a
:meth:`repro.netsim.path.Path.install_tap` pair.
"""

from repro.core.classify import SpinBehaviour, classify_connection, classify_domain
from repro.core.grease_filter import GreaseFilter, GreaseFilterVariant, is_greasing
from repro.core.heuristics import (
    DynamicThresholdFilter,
    PacketNumberFilter,
    StaticThresholdFilter,
)
from repro.core.metrics import (
    AccuracyResult,
    compare_means,
    mapped_ratio,
)
from repro.core.observer import (
    SpinEdge,
    SpinObservation,
    SpinObserver,
    StreamingSpinObserver,
    observe_recorder,
    spin_rtts_from_edges,
)
from repro.core.spin import (
    EndpointRole,
    SpinBitState,
    SpinDeploymentConfig,
    SpinPolicy,
    resolve_connection_policy,
)
from repro.core.flow_resolver import FlowKeyResolver, tuple_flow_key
from repro.core.flow_table import FlowRecord, FlowTableStats, SpinFlowTable
from repro.core.tomography import ComponentSample, SpinTomographyObserver
from repro.core.vec import VecObserver, VecSenderState

__all__ = [
    "AccuracyResult",
    "DynamicThresholdFilter",
    "EndpointRole",
    "GreaseFilter",
    "GreaseFilterVariant",
    "PacketNumberFilter",
    "SpinBehaviour",
    "SpinBitState",
    "SpinDeploymentConfig",
    "SpinEdge",
    "SpinObservation",
    "SpinObserver",
    "SpinPolicy",
    "StaticThresholdFilter",
    "StreamingSpinObserver",
    "ComponentSample",
    "FlowKeyResolver",
    "FlowRecord",
    "FlowTableStats",
    "SpinFlowTable",
    "SpinTomographyObserver",
    "VecObserver",
    "VecSenderState",
    "classify_connection",
    "classify_domain",
    "compare_means",
    "is_greasing",
    "mapped_ratio",
    "observe_recorder",
    "resolve_connection_policy",
    "spin_rtts_from_edges",
    "tuple_flow_key",
]
