"""Background checkpoint writer: shard persistence overlaps compute.

:class:`AsyncCheckpointWriter` is a drop-in facade over a
:class:`~repro.faults.checkpoint.CheckpointStore` that moves every
``save_shard`` onto a single daemon writer thread, so the scanner's compute loop never blocks on disk I/O (encode
+ atomic write of a 256-domain shard is milliseconds, but there is one
per shard and the scan path is otherwise pure CPU).  Loads stay
synchronous — a shard is looked up when it comes due and saved only if
that lookup found nothing, so a load never races a save of its shard.

Durability contract: :meth:`close` drains the queue and joins the
thread, so once it returns every accepted save is on disk — callers
close the writer *before* reporting a scan finished, and close it (with
errors suppressed) on the failure path too, so a crashed scan still
persists every shard that completed before the crash.  A write error is
sticky: it is re-raised on the next ``save_shard`` call or at ``close()``,
never silently dropped.

Determinism: the thread only performs I/O on data the scan already
produced; result bytes and telemetry streams are computed entirely on
the caller's side, so write scheduling cannot affect them.
"""

from __future__ import annotations

import queue
import threading
from typing import TYPE_CHECKING, Sequence

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.faults.checkpoint import CheckpointStore
    from repro.internet.population import DomainRecord
    from repro.web.scanner import DomainScanResult

__all__ = ["AsyncCheckpointWriter"]


class AsyncCheckpointWriter:
    """CheckpointStore facade whose saves run on a writer thread."""

    def __init__(self, store: "CheckpointStore"):
        self.store = store
        self.chunk = store.chunk
        self._queue: "queue.Queue[tuple | None]" = queue.Queue()
        self._error: BaseException | None = None
        self._closed = False
        self._thread = threading.Thread(
            target=self._run, name="shard-writer", daemon=True
        )
        self._thread.start()

    # -- store surface -------------------------------------------------

    def load_shard(self, shard_index: int, targets: Sequence["DomainRecord"]):
        return self.store.load_shard(shard_index, targets)

    def save_shard(
        self, shard_index: int, shard: "Sequence[DomainScanResult] | bytes"
    ) -> None:
        if self._closed:
            raise RuntimeError("checkpoint writer already closed")
        self._raise_pending()
        self._queue.put((shard_index, shard))

    # -- lifecycle -----------------------------------------------------

    def close(self, suppress_errors: bool = False) -> None:
        """Drain all queued saves, stop the thread, surface any error.

        Idempotent.  ``suppress_errors=True`` is for failure paths where
        a scan exception is already propagating and must not be masked
        by a secondary write error.
        """
        if not self._closed:
            self._closed = True
            self._queue.put(None)
            self._thread.join()
        if not suppress_errors:
            self._raise_pending()

    # -- internals -----------------------------------------------------

    def _raise_pending(self) -> None:
        if self._error is not None:
            error, self._error = self._error, None
            raise error

    def _run(self) -> None:
        while True:
            job = self._queue.get()
            if job is None:
                return
            if self._error is not None:
                continue  # sticky failure: drain without writing
            try:
                self.store.save_shard(*job)
            except BaseException as exc:  # robustness-ok: repr of the
                # failure crosses a thread boundary; re-raised verbatim
                # on the next save or at close().
                self._error = exc
