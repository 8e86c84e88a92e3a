"""Phase profiler for the scan/analyze hot paths.

Hot paths open named phases (:meth:`PhaseProfiler.phase`), and the
profiler reads an injected clock at each phase's entry and exit,
turning the elapsed time into synthetic "samples" at a fixed interval,
so the report looks like a collapsed flame stack.  The caller owns the
clock: the ``repro profile`` CLI and the benchmark inject a monotonic
wall clock (``time.perf_counter``), tests a counting one.  The profile
is diagnostics only, never written into an artifact, which is why the
clock must be injected rather than read here (the determinism lint
covers this package).

Phases nest lexically like spans; cost is attributed as **self time**:
a parent's report excludes the time its children accounted for, so the
per-phase table sums to (approximately) total wall time and "coverage"
is an honest fraction.
"""

from __future__ import annotations

from typing import Callable

__all__ = ["PhaseProfiler"]


class _Phase:
    """An open phase frame; context manager around one hot-path region."""

    __slots__ = ("_profiler", "_name", "_begin", "_child_elapsed")

    def __init__(self, profiler: "PhaseProfiler", name: str):
        self._profiler = profiler
        self._name = name
        self._begin = 0.0
        self._child_elapsed = 0.0

    def __enter__(self) -> "_Phase":
        self._profiler._push(self)
        self._begin = self._profiler._clock()
        return self

    def __exit__(self, *exc_info) -> None:
        elapsed = (self._profiler._clock() - self._begin) * 1000.0
        self._profiler._pop(self, elapsed)


class PhaseProfiler:
    """Stack-sampling profiler over phases timed by ``clock``.

    ``clock`` returns seconds.  ``sample_interval_ms`` sets the
    granularity: every full interval of a stack's accumulated self time
    becomes one sample against it.  Self time accumulates per stack, so
    total sample counts converge on total time regardless of how finely
    the hot path slices its phases.
    """

    def __init__(
        self,
        clock: Callable[[], float],
        sample_interval_ms: float = 1.0,
    ):
        if sample_interval_ms <= 0:
            raise ValueError("sample_interval_ms must be positive")
        self.sample_interval_ms = sample_interval_ms
        self._clock = clock
        self._stack: list[_Phase] = []
        #: stack tuple -> accumulated self-time milliseconds
        self.self_ms: dict[tuple[str, ...], float] = {}
        self.total_ms = 0.0

    # -- phase instrumentation -----------------------------------------

    def phase(self, name: str) -> _Phase:
        """Open a nested phase; use as a context manager."""
        return _Phase(self, name)

    def _push(self, frame: _Phase) -> None:
        self._stack.append(frame)

    def _pop(self, frame: _Phase, elapsed_ms: float) -> None:
        if not self._stack or self._stack[-1] is not frame:
            raise RuntimeError("profiler phases must close in LIFO order")
        path = tuple(f._name for f in self._stack)
        self._stack.pop()
        self_ms = max(0.0, elapsed_ms - frame._child_elapsed)
        self.self_ms[path] = self.self_ms.get(path, 0.0) + self_ms
        self.total_ms += self_ms
        if self._stack:
            self._stack[-1]._child_elapsed += elapsed_ms

    # -- reporting ------------------------------------------------------

    def samples(self) -> dict[tuple[str, ...], int]:
        """Synthetic sample counts per stack (floor of whole intervals).

        Stacks that accumulated less than one interval still report one
        sample so no phase silently vanishes from the report.
        """
        out = {}
        for path, ms in self.self_ms.items():
            out[path] = max(1, int(ms / self.sample_interval_ms))
        return out

    def collapsed(self) -> list[str]:
        """Collapsed-stack lines (``a;b;c <samples>``), flamegraph-ready."""
        counts = self.samples()
        return [f"{';'.join(path)} {counts[path]}" for path in sorted(counts)]

    def phase_table(self) -> list[dict]:
        """Per-phase self-time table, heaviest first."""
        total = self.total_ms or 1.0
        rows = []
        for path in sorted(
            self.self_ms, key=lambda p: (-self.self_ms[p], p)
        ):
            ms = self.self_ms[path]
            rows.append(
                {
                    "phase": ";".join(path),
                    "self_ms": round(ms, 3),
                    "share": round(ms / total, 4),
                }
            )
        return rows

    def coverage(self, span_ms: float) -> float:
        """Fraction of ``span_ms`` attributed to named phases."""
        if span_ms <= 0:
            return 1.0 if self.total_ms > 0 else 0.0
        return min(1.0, self.total_ms / span_ms)

    def render_report(self, title: str = "profile") -> str:
        lines = [
            f"{title}: {self.total_ms:.3f} ms attributed across "
            f"{len(self.self_ms)} phases"
        ]
        for row in self.phase_table():
            lines.append(
                f"  {row['share'] * 100.0:6.2f}%  {row['self_ms']:10.3f} ms"
                f"  {row['phase']}"
            )
        return "\n".join(lines)
