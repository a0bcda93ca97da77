"""Live progress telemetry for distributed sweeps.

A multi-hour sweep coordinated through a work queue used to be a black box:
the only signals were worker log lines and the final result store.  This
module turns the queue's own bookkeeping into a periodic, machine-readable
:class:`ProgressSnapshot` — tasks pending/claimed/done/failed, per-shard
backlog, per-worker completion counts, overall and recent throughput, and an
ETA — without adding any new coordination state: everything is derived from
:meth:`~repro.runtime.workqueue.QueueTransport.stats` (directory counts on
the file queue, one locked read on the TCP server) plus the per-worker ack
counts both transports already record.

:class:`SweepProgress` is the reporter: it polls on a background thread every
``interval_s`` seconds (``RuntimeConfig.progress_interval_s`` on the
coordinator, ``--progress`` on ``python -m repro.runtime.worker``), hands
each snapshot to an optional callback (``ParallelExperimentRunner``'s
``progress_callback``), and keeps the history for post-hoc inspection.
``poll_once()`` is the same computation without the thread, for deterministic
use (and the coordinator's final end-of-sweep snapshot).
"""

from __future__ import annotations

import json
import logging
import threading
import time
from collections.abc import Callable
from dataclasses import dataclass, field

from repro.errors import ExperimentError
from repro.runtime.netqueue import QueueAuthError
from repro.runtime.workqueue import QueueStats, WorkerQueueTransport

#: What a progress poll may swallow (counted in ``stats_errors``): transport
#: failures (``OSError`` covers sockets, timeouts and filesystem scans) and
#: queue-protocol rejections (``ExperimentError``).  Genuine bugs — an
#: ``AttributeError`` from a refactor, a ``TypeError`` in a callback — must
#: propagate, not read as "queue idle"; :class:`QueueAuthError` is re-raised
#: explicitly because a mis-keyed worker has to fail loudly.
_POLL_ERRORS = (OSError, ExperimentError)

_log = logging.getLogger("repro.runtime")

#: Interval used when a callback is installed but no interval was configured.
DEFAULT_PROGRESS_INTERVAL_S = 5.0


@dataclass(frozen=True)
class ProgressSnapshot:
    """One observation of a sweep's queue state, with derived rates.

    ``total`` is the number of tasks the observer expects the sweep to
    complete; ``None`` when unknown (a worker watching a foreign queue), in
    which case ``remaining`` and ``eta_s`` are ``None`` too.  Throughputs are
    completed tasks per second: ``throughput_per_s`` since the reporter
    started, ``recent_throughput_per_s`` since the previous snapshot (the ETA
    uses the recent rate when it is positive — it adapts to workers joining
    or leaving — and falls back to the overall rate).
    """

    sequence: int
    elapsed_s: float
    pending: int
    claimed: int
    done: int
    failed: int
    total: int | None
    throughput_per_s: float
    recent_throughput_per_s: float
    eta_s: float | None
    workers: dict[str, int] = field(default_factory=dict)
    shard_pending: tuple[tuple[int, int], ...] = ()
    stolen: int = 0
    #: Cumulative transport errors the reporter swallowed while polling
    #: (failed ``stats()``/``worker_done_counts()`` calls).  A nonzero count
    #: distinguishes "the queue is idle" from "the reporter cannot see the
    #: queue" — previously both looked identical.
    stats_errors: int = 0

    @property
    def remaining(self) -> int | None:
        return None if self.total is None else max(self.total - self.done, 0)

    def to_dict(self) -> dict:
        """JSON-ready form (the machine-readable surface; keys are stable)."""
        return {
            "sequence": self.sequence,
            "elapsed_s": round(self.elapsed_s, 3),
            "pending": self.pending,
            "claimed": self.claimed,
            "done": self.done,
            "failed": self.failed,
            "total": self.total,
            "remaining": self.remaining,
            "throughput_per_s": round(self.throughput_per_s, 4),
            "recent_throughput_per_s": round(self.recent_throughput_per_s, 4),
            "eta_s": None if self.eta_s is None else round(self.eta_s, 1),
            "workers": dict(sorted(self.workers.items())),
            "shard_pending": [list(pair) for pair in self.shard_pending],
            "stolen": self.stolen,
            "stats_errors": self.stats_errors,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    def describe(self) -> str:
        """One human-readable line (the machine surface is ``to_dict``)."""
        if self.total is not None:
            head = f"[{self.done}/{self.total}]"
        else:
            head = f"[{self.done} done]"
        eta = "eta --" if self.eta_s is None else f"eta {self.eta_s:.0f}s"
        parts = [
            head,
            f"{self.pending} pending",
            f"{self.claimed} claimed",
            f"{self.failed} failed",
            f"{self.throughput_per_s:.2f} tasks/s",
            eta,
        ]
        if self.workers:
            busiest = ", ".join(f"{w}:{n}" for w, n in sorted(self.workers.items()))
            parts.append(f"workers {busiest}")
        if self.stolen:
            parts.append(f"{self.stolen} stolen")
        if self.stats_errors:
            parts.append(f"{self.stats_errors} stats errors")
        return " | ".join(parts)


class SweepProgress:
    """Periodic reporter over one queue transport.

    ``queue`` needs only the worker-side surface (``stats`` — and, when
    available, ``worker_done_counts``); ``stolen`` is an optional callable
    reporting how many tasks the coordinator's rebalance sweep has moved so
    far.  The polling thread never takes the sweep down: a poll that fails
    (e.g. the TCP server vanishing mid-shutdown) is skipped.
    """

    def __init__(
        self,
        queue: WorkerQueueTransport,
        total: int | None = None,
        interval_s: float = DEFAULT_PROGRESS_INTERVAL_S,
        callback: Callable[[ProgressSnapshot], None] | None = None,
        clock: Callable[[], float] = time.monotonic,
        stolen: Callable[[], int] | None = None,
    ) -> None:
        if interval_s <= 0:
            raise ExperimentError("SweepProgress.interval_s must be positive")
        if total is not None and total < 0:
            raise ExperimentError("SweepProgress.total must be >= 0 (or None when unknown)")
        self.queue = queue
        self.total = total
        self.interval_s = float(interval_s)
        self.callback = callback
        self._clock = clock
        self._stolen = stolen
        self._lock = threading.Lock()
        self._started_at = clock()
        self._last_at = self._started_at
        self._last_done = 0
        self._poll_errors = 0
        self.snapshots: list[ProgressSnapshot] = []
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    @property
    def latest(self) -> ProgressSnapshot | None:
        with self._lock:
            return self.snapshots[-1] if self.snapshots else None

    def poll_once(self) -> ProgressSnapshot:
        """Take one snapshot now (raises if the queue is unreachable).

        Transport failures of the *secondary* reads (worker counts, stolen
        counter) degrade to empty values and are tallied into the snapshot's
        ``stats_errors``; anything else — an ``AttributeError`` from a
        refactor, a mis-keyed :class:`QueueAuthError` — propagates.
        """
        stats: QueueStats = self.queue.stats()
        workers: dict[str, int] = {}
        errors = 0
        counts = getattr(self.queue, "worker_done_counts", None)
        if counts is not None:
            try:
                workers = counts()
            except QueueAuthError:
                raise  # authentication failures must stay loud
            except _POLL_ERRORS as exc:  # reachable stats but not counts: degrade, counted
                _log.warning("progress: worker counts unavailable: %r", exc)
                errors += 1
        stolen = 0
        if self._stolen is not None:
            try:
                stolen = int(self._stolen())
            except _POLL_ERRORS as exc:
                _log.warning("progress: stolen-task counter unavailable: %r", exc)
                errors += 1
        now = self._clock()
        with self._lock:
            self._poll_errors += errors
            elapsed = max(now - self._started_at, 1e-9)
            overall = stats.done / elapsed
            window = max(now - self._last_at, 1e-9)
            delta = stats.done - self._last_done
            recent = overall if not self.snapshots else max(delta, 0) / window
            remaining = None if self.total is None else max(self.total - stats.done, 0)
            if remaining is None:
                eta = None
            elif remaining == 0:
                eta = 0.0
            else:
                rate = recent if recent > 0 else overall
                eta = remaining / rate if rate > 0 else None
            snapshot = ProgressSnapshot(
                sequence=len(self.snapshots),
                elapsed_s=elapsed,
                pending=stats.pending,
                claimed=stats.claimed,
                done=stats.done,
                failed=stats.failed,
                total=self.total,
                throughput_per_s=overall,
                recent_throughput_per_s=recent,
                eta_s=eta,
                workers=workers,
                shard_pending=stats.shard_pending,
                stolen=stolen,
                stats_errors=self._poll_errors,
            )
            self.snapshots.append(snapshot)
            self._last_at = now
            self._last_done = stats.done
        if self.callback is not None:
            self.callback(snapshot)
        return snapshot

    def _run(self) -> None:
        while not self._stop.wait(self.interval_s):
            try:
                self.poll_once()
            except QueueAuthError:
                raise  # mis-keyed secret: fail loudly, never read as idle
            except _POLL_ERRORS as exc:
                # A *transport* failure (queue torn down mid-shutdown, a
                # transient socket error) must never kill the reporter — the
                # next interval tries again, and stop() ends the loop.  The
                # skipped poll is logged and tallied into the next snapshot's
                # ``stats_errors``; any other exception (a genuine bug, an
                # authentication rejection) takes the thread down with a
                # traceback instead of reading as idle.
                _log.warning("progress: poll skipped, queue unreachable: %r", exc)
                with self._lock:
                    self._poll_errors += 1

    def start(self) -> "SweepProgress":
        """Start the background polling thread (idempotent)."""
        with self._lock:
            if self._thread is None:
                self._thread = threading.Thread(
                    target=self._run, name="repro-sweep-progress", daemon=True
                )
                self._thread.start()
        return self

    def stop(self) -> None:
        """Stop polling and join the thread (idempotent; takes no final snapshot)."""
        self._stop.set()
        with self._lock:
            thread, self._thread = self._thread, None
        if thread is not None:
            thread.join(timeout=10)
