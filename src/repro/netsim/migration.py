"""Seeded connection-migration plans for the traffic multiplexer.

RFC 9000 makes flow identity a moving target for on-path observers:
NAT rebinding changes a connection's 4-tuple without touching the
destination CID (Section 9 — the passive case), an endpoint may switch
to a previously issued alternate CID at any time (Section 5.1.1), and
an *active* path migration is required to do both at once precisely so
that an observer cannot link the old and new paths (Section 9.5).  The
paper's accuracy claims silently assume none of this happens; this
module injects all three, deterministically, so the monitor's
flow-tracking robustness becomes a tested property.

A :class:`MigrationPlan` mirrors the :mod:`repro.faults` FaultSpec
style: a set of :class:`MigrationSpec` entries ("with probability p,
this kind of migration, around this delay after flow start"), rolled
per flow from a dedicated RNG stream derived as
``(seed, "monitor", "migration", flow_index)``.  Consequences:

* the same seed produces the same migrations regardless of how the tap
  stream is consumed (and :meth:`TrafficMux.replay_single` re-derives
  the identical outcome for a single flow), and
* a plan with every probability at zero — or no plan at all — draws
  nothing, so migration-free runs are byte-identical to a build
  without the migration plane.

Plan syntax (CLI ``--migrate``)::

    kind:probability[:delay_ms][,kind:probability[:delay_ms]...]

e.g. ``nat-rebind:0.3,cid-rotation:0.25:800``.  ``delay_ms`` is the
nominal delay of the event after the flow's start (the drawn delay is
uniform in 0.5x..1.5x of it).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from enum import Enum

__all__ = [
    "DEFAULT_DELAY_MS",
    "DrawnMigration",
    "MigrationKind",
    "MigrationPlan",
    "MigrationSpec",
    "parse_migration_plan",
]


class MigrationKind(Enum):
    """Every injectable migration; values are the CLI spell of the kind."""

    #: The client's NAT drops and re-creates its binding: the 4-tuple
    #: changes, the destination CID does not.  Linkable via the CID.
    NAT_REBIND = "nat-rebind"
    #: The sender switches to a previously issued alternate CID without
    #: a path change (RFC 9000 5.1.1).  Linkable via 4-tuple continuity.
    CID_ROTATION = "cid-rotation"
    #: An active path migration: new 4-tuple *and* new CID in the same
    #: instant, exactly as RFC 9000 9.5 requires — unlinkable for an
    #: on-path observer by design.  The monitor must degrade gracefully
    #: (open a new flow), not crash or silently merge.
    PATH_MIGRATION = "path-migration"

    @property
    def changes_tuple(self) -> bool:
        return self is not MigrationKind.CID_ROTATION

    @property
    def changes_cid(self) -> bool:
        return self is not MigrationKind.NAT_REBIND


#: Nominal post-start delay of a migration event (ms) per kind; the
#: drawn delay is uniform in 0.5x..1.5x of it.  CID switches need the
#: handshake confirmed first (alternate CIDs are issued then), so their
#: nominal sits later than the rebind's.
DEFAULT_DELAY_MS = {
    MigrationKind.NAT_REBIND: 250.0,
    MigrationKind.CID_ROTATION: 400.0,
    MigrationKind.PATH_MIGRATION: 400.0,
}


@dataclass(frozen=True)
class MigrationSpec:
    """One migration kind armed with a probability (and nominal delay)."""

    kind: MigrationKind
    probability: float
    delay_ms: float | None = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError(
                f"migration probability for {self.kind.value!r} must be in "
                f"[0, 1], got {self.probability}"
            )
        if self.delay_ms is not None and self.delay_ms <= 0:
            raise ValueError(
                f"migration delay for {self.kind.value!r} must be positive"
            )

    @property
    def effective_delay_ms(self) -> float:
        if self.delay_ms is not None:
            return self.delay_ms
        return DEFAULT_DELAY_MS[self.kind]

    def to_string(self) -> str:
        spell = f"{self.kind.value}:{self.probability:g}"
        if self.delay_ms is not None:
            spell += f":{self.delay_ms:g}"
        return spell


@dataclass(frozen=True)
class DrawnMigration:
    """One flow's concrete migration outcome (the plan, rolled).

    At most one kind fires per flow (first hit in fixed kind order):
    real connections rarely migrate twice within one short exchange,
    and a single event keeps ground truth attribution unambiguous.
    ``at_ms`` is absolute stream time (flow start + drawn delay).
    ``new_client_addr`` is set for tuple-changing kinds.
    """

    kind: MigrationKind
    at_ms: float
    new_client_addr: tuple[str, int] | None = None


#: Draw order is fixed to enum declaration order, never plan order, so
#: two spellings of the same plan yield identical outcomes per seed.
_DRAW_ORDER = tuple(MigrationKind)


@dataclass(frozen=True)
class MigrationPlan:
    """An immutable set of migration specs, at most one per kind."""

    specs: tuple[MigrationSpec, ...] = ()

    def __post_init__(self) -> None:
        seen: set[MigrationKind] = set()
        for spec in self.specs:
            if spec.kind in seen:
                raise ValueError(f"duplicate migration kind {spec.kind.value!r}")
            seen.add(spec.kind)

    @property
    def is_empty(self) -> bool:
        return not any(spec.probability > 0.0 for spec in self.specs)

    def to_string(self) -> str:
        return ",".join(spec.to_string() for spec in self.specs)

    def draw(self, rng: random.Random, start_ms: float) -> DrawnMigration | None:
        """Roll the plan once for a flow starting at ``start_ms``.

        Every armed kind consumes its probability draw in fixed kind
        order (so adding a later kind to a plan never shifts an earlier
        kind's outcome), but only the first hit becomes the flow's
        migration.
        """
        drawn: DrawnMigration | None = None
        by_kind = {spec.kind: spec for spec in self.specs}
        for kind in _DRAW_ORDER:
            spec = by_kind.get(kind)
            if spec is None or spec.probability <= 0.0:
                continue
            if rng.random() >= spec.probability or drawn is not None:
                continue
            at_ms = start_ms + rng.uniform(0.5, 1.5) * spec.effective_delay_ms
            new_addr: tuple[str, int] | None = None
            if kind.changes_tuple:
                new_addr = draw_client_addr(rng)
            drawn = DrawnMigration(kind=kind, at_ms=at_ms, new_client_addr=new_addr)
        return drawn


def draw_client_addr(rng: random.Random) -> tuple[str, int]:
    """A synthetic client (ip, port) as a NAT would assign it."""
    ip = f"10.{rng.randrange(256)}.{rng.randrange(256)}.{rng.randrange(254) + 1}"
    return ip, rng.randrange(16_384, 65_536)


def parse_migration_plan(text: str) -> MigrationPlan:
    """Parse the CLI migration-plan syntax into a :class:`MigrationPlan`."""
    specs: list[MigrationSpec] = []
    valid = ", ".join(kind.value for kind in MigrationKind)
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        fields = part.split(":")
        if len(fields) not in (2, 3):
            raise ValueError(
                f"bad migration spec {part!r}: expected "
                "kind:probability[:delay_ms]"
            )
        try:
            kind = MigrationKind(fields[0])
        except ValueError:
            raise ValueError(
                f"unknown migration kind {fields[0]!r} (valid kinds: {valid})"
            ) from None
        try:
            probability = float(fields[1])
            delay_ms = float(fields[2]) if len(fields) == 3 else None
        except ValueError:
            raise ValueError(
                f"bad migration spec {part!r}: non-numeric field"
            ) from None
        specs.append(
            MigrationSpec(kind=kind, probability=probability, delay_ms=delay_ms)
        )
    if not specs:
        raise ValueError("empty migration plan")
    return MigrationPlan(specs=tuple(specs))
