"""Web measurement substrate: HTTP/3 exchanges, server stacks, scanner."""

from repro.web.http3 import (
    ExchangeHandle,
    ExchangeResult,
    ResponsePlan,
    build_exchange,
    run_exchange,
)
from repro.web.scanner import (
    ConnectionRecord,
    DomainScanResult,
    ParallelScanConfig,
    ScanConfig,
    ScanDataset,
    Scanner,
)
from repro.web.server_profiles import STACKS, ServerStackProfile, stack_by_name

__all__ = [
    "ConnectionRecord",
    "DomainScanResult",
    "ExchangeHandle",
    "ExchangeResult",
    "ParallelScanConfig",
    "ResponsePlan",
    "STACKS",
    "ScanConfig",
    "ScanDataset",
    "Scanner",
    "ServerStackProfile",
    "build_exchange",
    "run_exchange",
    "stack_by_name",
]
