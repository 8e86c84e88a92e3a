"""Clocks, host-speed calibration, spans and process accounting.

Everything a workload needs to measure itself from the outside; nothing
here imports ``repro``.
"""

from __future__ import annotations

import gc
import heapq
import http.client
import os
import platform
import resource
import statistics
import struct
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parent
RESULTS_DIR = BENCH_DIR / "results"

#: Wall time of :func:`reference_kernel` on the host the benchmark was
#: sized on, in that host's fast phase.  Only ratios against it matter.
REFERENCE_KERNEL_S = 0.025


class _Cell:
    __slots__ = ("a", "b")

    def __init__(self, a: int, b: int) -> None:
        self.a = a
        self.b = b

    def bump(self, x: float) -> float:
        return self.a + x


def reference_kernel(n: int = 12_000) -> int:
    """A fixed pure-Python workload: heap, dict, object, bytes, arithmetic.

    The sandbox hosts this benchmark runs on switch between a fast and a
    ~30 % slower phase every few seconds (README, "Host speed"), which no
    amount of repetition averages out of a 10 s run.  Timing this kernel
    next to every round gives the host's speed *during that round*; the
    instruction mix imitates the program under test (event heap, dict
    probes, small objects, byte packing) so that it slows down by the
    same share.
    """
    heap: list = []
    table: dict = {}
    parts: list = []
    push, pop, pack = heapq.heappush, heapq.heappop, struct.pack
    acc = 0
    for i in range(n):
        push(heap, (float((i * 7919) % 1000), i, None))
        table[i & 1023] = _Cell(i, i + 1)
        parts.append(pack(">IH", i, i & 0xFFFF) + b"abc")
        acc += i * i
        if i & 3 == 3:
            when, _, _ = pop(heap)
            acc += int(table[i & 1023].bump(when))
    while heap:
        pop(heap)
    return acc + len(b"".join(parts))


class Round:
    """One timed region: raw seconds plus the host speed around it."""

    __slots__ = ("raw_s", "raw_cpu_s", "speed", "_meter", "_start", "_cpu", "_before")

    def __init__(self, meter: "Meter") -> None:
        self._meter = meter
        self.raw_s = 0.0
        self.raw_cpu_s = 0.0
        #: Host speed during the round relative to the reference host
        #: (1.0 = reference, 0.77 = the slow phase).
        self.speed = 1.0

    def __enter__(self) -> "Round":
        self._before = self._meter.last_kernel_s or self._meter.kernel()
        self._cpu = cpu_seconds()
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc_info) -> None:
        self.raw_s = time.perf_counter() - self._start
        self.raw_cpu_s = cpu_seconds() - self._cpu
        after = self._meter.kernel()
        self.speed = REFERENCE_KERNEL_S / ((self._before + after) / 2.0)
        self._meter.rounds.append(
            {"raw_s": self.raw_s, "cpu_s": self.raw_cpu_s, "speed": self.speed}
        )

    def ref(self, raw_seconds: float) -> float:
        """``raw_seconds`` measured inside this round, at reference speed."""
        return raw_seconds * self.speed

    @property
    def ref_s(self) -> float:
        return self.raw_s * self.speed

    @property
    def ref_cpu_s(self) -> float:
        return self.raw_cpu_s * self.speed


class Meter:
    """Times rounds and samples the reference kernel between them.

    One kernel sample sits between every two consecutive rounds, so it is
    the "after" of one and the "before" of the next.
    """

    def __init__(self) -> None:
        self.kernel_samples: list[float] = []
        self.rounds: list[dict] = []
        self.last_kernel_s: float | None = None

    def kernel(self) -> float:
        # The collector off: a sample must tell the host's speed, not how
        # many objects the workload happens to keep alive.
        collecting = gc.isenabled()
        gc.disable()
        try:
            start = time.perf_counter()
            reference_kernel()
            elapsed = time.perf_counter() - start
        finally:
            if collecting:
                gc.enable()
        self.kernel_samples.append(elapsed)
        self.last_kernel_s = elapsed
        return elapsed

    def round(self) -> Round:
        return Round(self)

    def idle(self) -> None:
        """Forget the last kernel sample after untimed work in between."""
        self.last_kernel_s = None


# ----------------------------------------------------------------------
# Spans (traced runs only).
# ----------------------------------------------------------------------


class _NullSpan:
    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        return None


_NULL_SPAN = _NullSpan()


class _Span:
    __slots__ = ("_tracer", "_index")

    def __init__(self, tracer: "Tracer", name: str) -> None:
        self._tracer = tracer
        stack = tracer._stack
        self._index = len(tracer.spans)
        tracer.spans.append(
            [name, 0.0, 0.0, stack[-1] if stack else None, tracer.repetition]
        )

    def __enter__(self) -> "_Span":
        tracer = self._tracer
        tracer._stack.append(self._index)
        tracer.spans[self._index][1] = time.perf_counter()
        return self

    def __exit__(self, *exc_info) -> None:
        tracer = self._tracer
        tracer.spans[self._index][2] = time.perf_counter()
        tracer._stack.pop()


class Tracer:
    """In-memory spans around the calls into each layer.

    A span is ``[name, start, end, parent, repetition]``; ``name`` starts
    with the ``src/repro`` package it calls into (``web.scan``).  A
    disabled tracer hands out one shared no-op span, so the same workload
    code runs traced and untraced.
    """

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.enabled = False
        self.repetition = 0
        self.spans: list[list] = []
        self._stack: list[int] = []

    def span(self, name: str):
        if not self.enabled:
            return _NULL_SPAN
        return _Span(self, name)

    def iterate(self, name: str, iterable):
        """Yield from ``iterable`` with every ``next()`` inside a span."""
        if not self.enabled:
            yield from iterable
            return
        iterator = iter(iterable)
        while True:
            with _Span(self, name):
                try:
                    item = next(iterator)
                except StopIteration:
                    return
            yield item

    def self_times(self) -> list[float]:
        """Per span: its duration minus what its child spans cover."""
        own = [span[2] - span[1] for span in self.spans]
        for span in self.spans:
            if span[3] is not None:
                own[span[3]] -= span[2] - span[1]
        return own

    def layer_self_seconds(self) -> dict[str, float]:
        """Self time summed per layer (the part of the name before ``.``)."""
        totals: dict[str, float] = {}
        for span, own in zip(self.spans, self.self_times()):
            layer = span[0].partition(".")[0]
            totals[layer] = totals.get(layer, 0.0) + max(0.0, own)
        return totals

    def durations(self, name: str) -> list[float]:
        return [span[2] - span[1] for span in self.spans if span[0] == name]

    def root_seconds(self) -> float:
        return sum(span[2] - span[1] for span in self.spans if span[3] is None)

    def as_rows(self) -> list[dict]:
        return [
            {
                "name": name,
                "start": start,
                "end": end,
                "parent": parent,
                "workload": self.workload,
                "repetition": repetition,
            }
            for name, start, end, parent, repetition in self.spans
        ]


# ----------------------------------------------------------------------
# Statistics.
# ----------------------------------------------------------------------


def median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def p95(values) -> float:
    """The 95th percentile; needs 200 samples to have ten beyond it."""
    if len(values) < 2:
        return float(values[0]) if values else 0.0
    return float(statistics.quantiles(values, n=20)[18])


def quartiles(values) -> tuple[float, float, float]:
    if len(values) < 2:
        only = float(values[0]) if values else 0.0
        return only, only, only
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return float(q1), float(q2), float(q3)


def rate(count: float, seconds: float) -> float:
    return count / seconds if seconds > 0 else 0.0


# ----------------------------------------------------------------------
# Process and host.
# ----------------------------------------------------------------------


def cpu_seconds() -> float:
    """User+system CPU of this process and its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def peak_rss_mb() -> float:
    """Peak resident set of this interpreter plus its largest child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


def load_average() -> float:
    return os.getloadavg()[0]


def nproc() -> int:
    return os.cpu_count() or 1


def host_stamp() -> dict:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = ""
    return {
        "commit": commit or "unknown",
        "utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "nproc": nproc(),
        "python": platform.python_version(),
        "platform": sys.platform,
    }


@contextmanager
def one_core(*threads):
    """Keep the calling thread and ``threads`` on one core for the body.

    A closed loop of one client and one server thread under one
    interpreter lock runs one thread at a time.  Left on two cores, the
    lock hand-off bounces between them and request latency turns bimodal
    (p95 spread over ten runs 31 %, against 10 % on one core).  Threads
    started inside the body inherit the core; it is given back on exit, so
    a process pool forked later is not confined.
    """
    if not hasattr(os, "sched_setaffinity"):
        yield
        return
    ids = [0] + [thread.native_id for thread in threads]
    before = [os.sched_getaffinity(thread_id) for thread_id in ids]
    core = {max(before[0])}
    try:
        for thread_id in ids:
            os.sched_setaffinity(thread_id, core)
        yield
    finally:
        for thread_id, mask in zip(ids, before):
            os.sched_setaffinity(thread_id, mask)


def http_get(port: int, path: str) -> tuple[int, bytes]:
    """One GET over a fresh connection (one connection at a time)."""
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    try:
        connection.request("GET", path)
        response = connection.getresponse()
        return response.status, response.read()
    finally:
        connection.close()
