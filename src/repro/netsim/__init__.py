"""Deterministic discrete-event network simulation.

Replaces the live Internet path between the paper's vantage point and
the scanned servers: propagation delay, jitter, loss, reordering, and
end-host processing delays, all driven by a shared simulated clock.
"""

from repro.netsim.clock import SimClock
from repro.netsim.delays import (
    ConstantDelay,
    DelayModel,
    LogNormalDelay,
    UniformDelay,
)
from repro.netsim.events import Simulator
from repro.netsim.migration import (
    DrawnMigration,
    MigrationKind,
    MigrationPlan,
    MigrationSpec,
    parse_migration_plan,
)
from repro.netsim.path import Path, PathProfile, PathStats, duplex_paths
from repro.netsim.tcp import (
    TcpFlowSpec,
    TcpSegment,
    decode_tcp_segment,
    draw_tcp_flow_spec,
    encode_tcp_segment,
    schedule_tcp_flow,
)

__all__ = [
    "ConstantDelay",
    "DelayModel",
    "DrawnMigration",
    "LogNormalDelay",
    "MigrationKind",
    "MigrationPlan",
    "MigrationSpec",
    "Path",
    "PathProfile",
    "PathStats",
    "SimClock",
    "Simulator",
    "TcpFlowSpec",
    "TcpSegment",
    "UniformDelay",
    "decode_tcp_segment",
    "draw_tcp_flow_spec",
    "duplex_paths",
    "encode_tcp_segment",
    "parse_migration_plan",
    "schedule_tcp_flow",
]
