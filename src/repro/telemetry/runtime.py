"""The per-run telemetry bundle: one registry plus one tracer.

:class:`Telemetry` is what gets threaded through the subsystems: the
scanner, the monitor pipeline, the service plane and the CLI all accept
an optional ``telemetry`` argument.  An owner resolves it once, at
construction (:meth:`Telemetry.resolve`; :func:`resolve_registry` for a
bare ``metrics=``), and then reports unconditionally: ``None`` resolves
to the shared *off* bundle, whose registry, tracer and phases take every
call, record nothing and hold nothing however long the run.  Outside
this package the two states differ only in what is read back.

Off makes a telemetry call cheap, not free — so per-packet, per-datagram
and per-event code makes none, in either state: it counts in plain ints
it keeps anyway, and its owner copies them into the registry once, where
the enclosing span closes (a ``Simulator`` run, an exchange, a monitor
run).

:meth:`Telemetry.save` writes the telemetry directory::

    DIR/trace.jsonl    deterministic trace rows (byte-identical per seed)
    DIR/diag.jsonl     sharding-dependent rows (per-shard, API requests)
    DIR/metrics.json   registry snapshot (lossless reload for status)
    DIR/metrics.prom   Prometheus text exposition snapshot

which ``repro status --dir DIR`` reads back.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.telemetry.export import (
    DIAG_FILENAME,
    PROM_FILENAME,
    SNAPSHOT_FILENAME,
    TRACE_FILENAME,
    registry_to_prometheus,
    write_trace_jsonl,
)
from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.trace import Tracer

__all__ = ["Telemetry", "resolve_registry"]


class Telemetry:
    """Registry + tracer for one run (or one worker shard)."""

    def __init__(self) -> None:
        self.registry = MetricsRegistry()
        self.tracer = Tracer()
        #: Optional :class:`repro.obs.profile.PhaseProfiler`, reached
        #: through :meth:`phase`; unset, its phases do nothing.
        self.profiler = None

    @staticmethod
    def resolve(telemetry: "Telemetry | None") -> "Telemetry":
        """What an owner keeps for the ``telemetry=`` it was handed: that
        bundle, or the shared off bundle for ``None``."""
        return _OFF if telemetry is None else telemetry

    def phase(self, name: str):
        """The profiler's phase ``name``, to be entered with ``with``."""
        return _DROPPED if self.profiler is None else self.profiler.phase(name)

    def shard(self) -> "Telemetry":
        """A fresh bundle in the same state for one shard to record into;
        it shares only the profiler, which is diagnostics."""
        bundle = Telemetry()
        bundle.profiler = self.profiler
        return bundle

    def absorb_shard(self, registry: MetricsRegistry, records, diag_records) -> None:
        """Fold one worker shard's telemetry into this bundle.

        Must be called in shard order: registry merges are lossless and
        order-insensitive for counters/histograms, but trace rows are
        concatenated, and shard order is what makes the concatenation
        equal the sequential emission order.
        """
        self.registry.merge(registry)
        self.tracer.absorb(records, diag_records)

    def save(self, out_dir: str | Path) -> dict[str, Path]:
        """Write the telemetry directory; returns the written paths."""
        directory = Path(out_dir)
        directory.mkdir(parents=True, exist_ok=True)
        paths = {
            "trace": directory / TRACE_FILENAME,
            "diag": directory / DIAG_FILENAME,
            "snapshot": directory / SNAPSHOT_FILENAME,
            "prom": directory / PROM_FILENAME,
        }
        tracer = self.tracer
        with open(paths["trace"], "w", encoding="utf-8") as stream:
            write_trace_jsonl(tracer.records, tracer.trace_id, stream)
        with open(paths["diag"], "w", encoding="utf-8") as stream:
            write_trace_jsonl(tracer.diag_records, tracer.trace_id, stream)
        paths["snapshot"].write_text(
            json.dumps(self.registry.snapshot(), indent=2, sort_keys=True)
            + "\n",
            encoding="utf-8",
        )
        paths["prom"].write_text(
            registry_to_prometheus(self.registry), encoding="utf-8"
        )
        return paths


# -- the off state ------------------------------------------------------


def _drop(*args, **kwargs) -> None:
    """Every method of the off state: takes anything, keeps nothing."""


class _Dropped:
    """Every series, span and phase of the off state: one stateless object."""

    __slots__ = ()
    inc = set = set_max = observe = absorb = _drop  # a series
    annotate = end = abandon = __exit__ = _drop  # a span, a phase

    def __enter__(self) -> "_Dropped":
        return self


_DROPPED = _Dropped()


def _dropped(*args, **kwargs) -> _Dropped:
    return _DROPPED


class _OffRegistry(MetricsRegistry):
    counter = gauge = histogram = _dropped
    merge = _drop


class _OffTracer(Tracer):
    trace_id = property(lambda self: None, _drop)  # stays unset
    span = _dropped
    event = count = absorb = _drop


class _OffTelemetry(Telemetry):
    profiler = property(lambda self: None)  # read-only: the bundle is shared

    def __init__(self) -> None:
        self.registry, self.tracer = _OffRegistry(), _OffTracer()

    def shard(self) -> Telemetry:
        return self


_OFF = _OffTelemetry()


def resolve_registry(metrics: MetricsRegistry | None) -> MetricsRegistry:
    """:meth:`Telemetry.resolve` for an owner that takes a bare ``metrics=``."""
    return _OFF.registry if metrics is None else metrics
