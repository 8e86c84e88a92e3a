"""Deterministic sampling profiler for the scan/analyze hot paths.

Classic sampling profilers interrupt the process on a wall-clock timer,
which makes two things impossible here: the sample counts would differ
between runs (breaking the reproducibility contract if they ever enter
an artifact) and the overhead would be probe-dependent.  This profiler
inverts the approach: the *instrumented code* tells the profiler where
time went, and the profiler converts those charges into synthetic
"samples" at a fixed interval — so the report looks like a collapsed
flame stack, but equal seeds produce equal reports.

Two time sources, one accounting model:

* **Simulated mode** (``clock=None``): hot paths call
  :meth:`PhaseProfiler.charge` with simulated-clock durations (a
  domain's exchange cascade).  Reports are deterministic per seed.
* **Wall mode** (``clock=callable``): the CLI injects a monotonic
  clock (``time.perf_counter``) and :meth:`phase` measures elapsed
  time itself.  This is the ``repro profile`` mode — diagnostics only,
  never written into an artifact, which is why the clock must be
  injected rather than read here (the determinism lint covers this
  package).

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
        if self._profiler._clock is not None:
            self._begin = self._profiler._clock()
        return self

    def __exit__(self, *exc_info) -> None:
        elapsed = 0.0
        if self._profiler._clock is not None:
            elapsed = (self._profiler._clock() - self._begin) * 1000.0
        self._profiler._pop(self, elapsed)


class PhaseProfiler:
    """Stack-sampling profiler driven by explicit time charges.

    ``sample_interval_ms`` sets the granularity: every full interval of
    charged time becomes one sample against the current stack.  The
    sub-interval remainder is carried per stack, not dropped, so total
    sample counts converge on total time regardless of how finely the
    hot path slices its charges.
    """

    def __init__(
        self,
        sample_interval_ms: float = 1.0,
        clock: Callable[[], float] | None = None,
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

    def charge(self, duration_ms: float) -> None:
        """Attribute ``duration_ms`` of simulated time to the open stack.

        In wall mode the elapsed time a charge represents was already
        measured by the enclosing phase, so charges are ignored there —
        instrumented code can call :meth:`charge` unconditionally.
        """
        if self._clock is not None or duration_ms <= 0 or not self._stack:
            return
        path = tuple(frame._name for frame in self._stack)
        self._account(path, duration_ms)

    def _push(self, frame: _Phase) -> None:
        self._stack.append(frame)

    def _pop(self, frame: _Phase, elapsed_ms: float) -> None:
        if not self._stack or self._stack[-1] is not frame:
            raise RuntimeError("profiler phases must close in LIFO order")
        path = tuple(f._name for f in self._stack)
        self._stack.pop()
        if self._clock is None:
            return
        self_ms = max(0.0, elapsed_ms - frame._child_elapsed)
        self._account(path, self_ms)
        if self._stack:
            self._stack[-1]._child_elapsed += elapsed_ms

    def _account(self, path: tuple[str, ...], self_ms: float) -> None:
        if not path:
            return
        self.self_ms[path] = self.self_ms.get(path, 0.0) + self_ms
        self.total_ms += self_ms

    # -- reporting ------------------------------------------------------

    def samples(self) -> dict[tuple[str, ...], int]:
        """Synthetic sample counts per stack (floor of charged intervals).

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
