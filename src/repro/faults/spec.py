"""Composable, seeded fault specifications.

The paper's scans run against the hostile open Internet: hosts vanish
mid-handshake, middleboxes black-hole UDP, servers stall for seconds,
captures truncate mid-record.  The reproduction simulates the endpoints,
so this module simulates the *failures* — deterministically.  A
:class:`FaultPlan` is a set of :class:`FaultSpec` entries ("with
probability p, this kind of fault, at this magnitude"); per domain the
scanner draws the plan's outcome from a dedicated RNG stream derived as
``(seed, "scan", week, ip_version, domain, probe, "faults")``.  Two
consequences fall out of that derivation:

* the same seed produces the same faults at any ``--workers`` count
  (fault draws never touch the per-domain measurement stream), and
* a plan with every probability at zero — or no plan at all — leaves
  the measurement stream untouched, so fault-free output is
  byte-identical to a build without the fault plane.

Fault-spec syntax (CLI ``--fault``)::

    kind:probability[:magnitude][,kind:probability[:magnitude]...]

e.g. ``blackhole:0.02,handshake-stall:0.05:4000``.  The magnitude's
meaning is kind-specific (see :data:`DEFAULT_MAGNITUDES`).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Iterator

from repro._util.rng import derive_rng

__all__ = [
    "BlackholeImpairment",
    "BurstLossImpairment",
    "DEFAULT_MAGNITUDES",
    "DrawnFaults",
    "FaultKind",
    "FaultPlan",
    "FaultSpec",
    "VN_FAULT_VERSION",
    "corrupt_datagram_stream",
    "parse_fault_plan",
    "truncate_jsonl_line",
]

#: A reserved-looking wire version (0x?a?a?a?a pattern, RFC 9000 15) no
#: real stack speaks: a server configured with only this version answers
#: every Initial with Version Negotiation and the client finds no
#: common version — the vn-failure fault.
VN_FAULT_VERSION = 0x1A2A3A4A


class FaultKind(Enum):
    """Every injectable fault; values are the CLI spell of the kind."""

    #: A window of heavy loss on both path directions.
    LOSS_BURST = "loss-burst"
    #: Every datagram dropped — an unreachable / filtered endpoint.
    BLACKHOLE = "blackhole"
    #: The server sits on the ClientHello before answering.
    HANDSHAKE_STALL = "handshake-stall"
    #: Server and client share no wire version.
    VN_FAILURE = "vn-failure"
    #: The server resets the connection mid-response.
    RESET = "reset"
    #: Pathological server think time (an overloaded origin).
    SLOW_SERVER = "slow-server"
    #: Exported qlog JSONL lines are cut short (crash-mid-write).
    QLOG_TRUNCATE = "qlog-truncate"
    #: The monitor's tap hands up mangled datagrams.
    CORRUPT_DATAGRAM = "corrupt-datagram"


#: Kind-specific meaning of ``FaultSpec.magnitude`` and its default:
#: loss-burst → in-burst loss probability; handshake-stall → maximum
#: stall (ms); reset → mean 1-RTT packets before the reset; slow-server
#: → nominal extra think time (ms).  Kinds without an entry take no
#: magnitude.
DEFAULT_MAGNITUDES = {
    FaultKind.LOSS_BURST: 0.9,
    FaultKind.HANDSHAKE_STALL: 4_000.0,
    FaultKind.RESET: 6.0,
    FaultKind.SLOW_SERVER: 20_000.0,
}


@dataclass(frozen=True)
class FaultSpec:
    """One fault kind armed with a probability (and optional magnitude)."""

    kind: FaultKind
    probability: float
    magnitude: float | None = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError(
                f"fault probability for {self.kind.value!r} must be in [0, 1], "
                f"got {self.probability}"
            )
        if self.magnitude is not None and self.magnitude <= 0:
            raise ValueError(
                f"fault magnitude for {self.kind.value!r} must be positive"
            )

    @property
    def effective_magnitude(self) -> float | None:
        if self.magnitude is not None:
            return self.magnitude
        return DEFAULT_MAGNITUDES.get(self.kind)


@dataclass(frozen=True)
class BurstLossImpairment:
    """Heavy loss inside one time window; installed on both directions.

    A path impairment predicate (see
    :meth:`repro.netsim.path.Path.install_impairment`): consumes one RNG
    draw per datagram *inside* the window only, so paths outside the
    window stay on their fault-free random stream.
    """

    start_ms: float
    duration_ms: float
    loss_probability: float

    def __call__(self, now_ms: float, rng: random.Random) -> bool:
        if self.start_ms <= now_ms < self.start_ms + self.duration_ms:
            return rng.random() < self.loss_probability
        return False


@dataclass(frozen=True)
class BlackholeImpairment:
    """Every datagram dropped: the endpoint is unreachable."""

    def __call__(self, now_ms: float, rng: random.Random) -> bool:
        return True


@dataclass(frozen=True)
class DrawnFaults:
    """One domain's concrete fault outcome (the plan, rolled).

    Only the scan-side kinds appear here; ``qlog-truncate`` applies at
    export time and ``corrupt-datagram`` at the monitor's tap, each from
    their own derived stream (see :func:`truncate_jsonl_line` and
    :func:`corrupt_datagram_stream`).
    """

    blackhole: bool = False
    loss_burst: BurstLossImpairment | None = None
    handshake_stall_ms: float = 0.0
    vn_failure: bool = False
    reset_after_packets: int | None = None
    slow_server_stall_ms: float = 0.0

    @property
    def any_active(self) -> bool:
        return (
            self.blackhole
            or self.loss_burst is not None
            or self.handshake_stall_ms > 0.0
            or self.vn_failure
            or self.reset_after_packets is not None
            or self.slow_server_stall_ms > 0.0
        )


#: Draw order is fixed to enum declaration order, never plan order, so
#: two spellings of the same plan yield identical outcomes per seed.
_DRAW_ORDER = tuple(FaultKind)


@dataclass(frozen=True)
class FaultPlan:
    """An immutable set of fault specs, at most one per kind."""

    specs: tuple[FaultSpec, ...] = ()

    def __post_init__(self) -> None:
        seen: set[FaultKind] = set()
        for spec in self.specs:
            if spec.kind in seen:
                raise ValueError(f"duplicate fault kind {spec.kind.value!r}")
            seen.add(spec.kind)

    @property
    def is_empty(self) -> bool:
        return not any(spec.probability > 0.0 for spec in self.specs)

    def spec(self, kind: FaultKind) -> FaultSpec | None:
        for spec in self.specs:
            if spec.kind is kind:
                return spec
        return None

    def draw(self, rng: random.Random) -> DrawnFaults:
        """Roll the plan once (one domain's faults) from ``rng``."""
        blackhole = False
        loss_burst: BurstLossImpairment | None = None
        handshake_stall_ms = 0.0
        vn_failure = False
        reset_after_packets: int | None = None
        slow_server_stall_ms = 0.0
        by_kind = {spec.kind: spec for spec in self.specs}
        for kind in _DRAW_ORDER:
            spec = by_kind.get(kind)
            if spec is None or spec.probability <= 0.0:
                continue
            if kind in (FaultKind.QLOG_TRUNCATE, FaultKind.CORRUPT_DATAGRAM):
                continue  # applied outside the exchange; see class docstring
            if rng.random() >= spec.probability:
                continue
            magnitude = spec.effective_magnitude
            if kind is FaultKind.LOSS_BURST:
                loss_burst = BurstLossImpairment(
                    start_ms=rng.uniform(0.0, 1_500.0),
                    duration_ms=rng.uniform(150.0, 750.0),
                    loss_probability=min(magnitude, 1.0),
                )
            elif kind is FaultKind.BLACKHOLE:
                blackhole = True
            elif kind is FaultKind.HANDSHAKE_STALL:
                handshake_stall_ms = rng.uniform(0.5, 1.0) * magnitude
            elif kind is FaultKind.VN_FAILURE:
                vn_failure = True
            elif kind is FaultKind.RESET:
                reset_after_packets = 1 + rng.randrange(max(1, int(magnitude * 2)))
            elif kind is FaultKind.SLOW_SERVER:
                slow_server_stall_ms = rng.uniform(0.5, 1.5) * magnitude
        return DrawnFaults(
            blackhole=blackhole,
            loss_burst=loss_burst,
            handshake_stall_ms=handshake_stall_ms,
            vn_failure=vn_failure,
            reset_after_packets=reset_after_packets,
            slow_server_stall_ms=slow_server_stall_ms,
        )


def parse_fault_plan(text: str) -> FaultPlan:
    """Parse the CLI fault-spec syntax into a :class:`FaultPlan`."""
    specs: list[FaultSpec] = []
    valid = ", ".join(kind.value for kind in FaultKind)
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        fields = part.split(":")
        if len(fields) not in (2, 3):
            raise ValueError(
                f"bad fault spec {part!r}: expected kind:probability[:magnitude]"
            )
        try:
            kind = FaultKind(fields[0])
        except ValueError:
            raise ValueError(
                f"unknown fault kind {fields[0]!r} (valid kinds: {valid})"
            ) from None
        try:
            probability = float(fields[1])
            magnitude = float(fields[2]) if len(fields) == 3 else None
        except ValueError:
            raise ValueError(f"bad fault spec {part!r}: non-numeric field") from None
        specs.append(FaultSpec(kind=kind, probability=probability, magnitude=magnitude))
    if not specs:
        raise ValueError("empty fault plan")
    return FaultPlan(specs=tuple(specs))


def truncate_jsonl_line(
    line: str, index: int, plan: "FaultPlan | None", seed: int | str
) -> str:
    """One serialized JSONL line as the qlog-truncate fault leaves it.

    The line's fate comes from its own ``(seed, "qlog-fault", index)``
    stream, so the outcome depends only on its position in the export —
    identical at any worker count, and decidable line by line as a
    streaming export writes them.  A hit always shortens the line.
    """
    spec = plan.spec(FaultKind.QLOG_TRUNCATE) if plan is not None else None
    if spec is None or spec.probability <= 0.0:
        return line
    rng = derive_rng(seed, "qlog-fault", index)
    if rng.random() < spec.probability and len(line) > 2:
        return line[: max(1, int(len(line) * rng.uniform(0.2, 0.9)))]
    return line


def corrupt_datagram_stream(
    stream: Iterable, probability: float, rng: random.Random
) -> Iterator:
    """Truncate a fraction of tap datagrams below any parseable header.

    Wraps a :class:`repro.monitor.traffic.TapDatagram` iterator; mangled
    datagrams keep their timing and flow index, so the monitor's
    malformed-packet counters see a realistic in-stream error pattern.
    """
    for tap in stream:
        if rng.random() < probability and len(tap.data) > 1:
            cut = 1 + rng.randrange(min(8, len(tap.data) - 1))
            yield tap._replace(data=tap.data[:cut])
        else:
            yield tap
