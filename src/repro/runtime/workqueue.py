"""The distributed work queue: one state machine over in-memory buckets.

:class:`BucketQueue` is the queue's claim/lease/ack machine.  A task is a name
that moves between *buckets*:

* ``pending`` — the one pool of claimable tasks; a claim takes the lowest
  task id, and an expired lease goes back into the same pool.
* ``claimed`` — a worker claims a task by *moving* it out of pending; the
  claimed entry's stamp is the **lease heartbeat**, refreshed on claim and
  periodically while the worker executes.
* ``done`` / ``failed`` — ack markers (results themselves go into the result
  store, not the queue).
* the stop bucket — the stop sentinel the coordinator writes when the sweep
  is complete.

Where a task's *result* lands (a flat or sharded result store) is the store's
decision alone (:meth:`~repro.runtime.result_store.ResultStore.path_for`); the
queue neither knows nor cares.

The machine is written against a handful of storage primitives (list a
bucket, move a name, put/load/drop an entry, touch and read a stamp).  Each
bucket maps names to ``[value, stamp]``, every primitive runs under one lock,
and the lock's condition wakes :meth:`BucketQueue.wait_for_change` and
:meth:`BucketQueue.wait_for_work`.  The one atomic step is the move: of
several concurrent moves of one name exactly one wins, which makes a claim
exclusive.  Stamps are ``time.monotonic()``: claim, renew and expiry read one
clock on one host, so clock skew between hosts cannot age a lease.

The coordinator serves the machine over TCP
(:class:`~repro.runtime.netqueue.QueueServer`); workers reach it through
:class:`~repro.runtime.netqueue.NetWorkQueue`.  A worker that dies (SIGKILL,
OOM, host loss) simply stops renewing its claim; once the stamp is older than
the lease timeout, :meth:`BucketQueue.requeue_expired` moves it back into the
pending pool and any worker picks it up.  Task execution is idempotent
(results are persisted with atomic writes under content-addressed names), so
the rare double execution after a lease expiry is harmless, and an ack drops
any pending copy a re-queue left behind.

This module also defines the worker-side queue surface
(:class:`WorkerQueueTransport`, which the worker loop's test fakes implement)
and the :class:`ResultUpload` a worker attaches to its ack.
"""

from __future__ import annotations

import threading
import time
from collections import Counter
from collections.abc import Callable
from dataclasses import dataclass
from typing import Any, Protocol, runtime_checkable

from repro.errors import ExperimentError
from repro.runtime.result_store import TaskKey

#: Bucket names.
PENDING, CLAIMED, DONE, FAILED = "pending", "claimed", "done", "failed"

#: Bucket of the stop sentinel.
STOP = ""

#: Stop sentinel name.
STOP_SENTINEL = "stop"


@dataclass(frozen=True)
class TaskClaim:
    """A successfully claimed task: its id and payload."""

    task_id: str
    payload: object


@dataclass(frozen=True)
class ResultUpload:
    """A finished task's result, pushed back to the coordinator with the ack.

    Workers share no filesystem with the coordinator: the coordinator's
    queue server persists the upload into its local result store.
    """

    key: TaskKey
    fingerprint: str | None
    result: dict


@dataclass(frozen=True)
class QueueAddress:
    """Parsed form of a queue url (``RuntimeConfig.queue_url``)."""

    host: str
    port: int


def parse_queue_url(url: str) -> QueueAddress:
    """Parse ``tcp://host:port`` (port ``0`` binds an ephemeral port)."""
    text = str(url)
    host, sep, port_text = text.removeprefix("tcp://").rpartition(":")
    try:
        port = int(port_text)
    except ValueError:
        port = -1
    if not text.startswith("tcp://") or not sep or not host or not 0 <= port <= 65535:
        raise ExperimentError(
            f"queue url {text!r} is not of the form tcp://<host>:<port> "
            "(port 0 binds an ephemeral port on the coordinator)"
        )
    return QueueAddress(host=host, port=port)


@runtime_checkable
class WorkerQueueTransport(Protocol):
    """The worker-side queue surface: what the claim-execute-ack loop needs."""

    def claim(self, worker_id: str) -> TaskClaim | None: ...

    def renew(self, claim: TaskClaim) -> None: ...

    def ack(self, claim: TaskClaim, worker_id: str, result: ResultUpload | None = None) -> None: ...

    def fail(self, claim: TaskClaim, worker_id: str, error: str) -> None: ...

    def stop_requested(self) -> bool: ...

    def wait_for_work(self, timeout_s: float) -> None:
        """An idle worker's pause between claims, ``timeout_s`` at most: back
        as soon as a claim would find a task or a stop is written."""


@dataclass(frozen=True)
class QueueStats:
    """Snapshot of the queue state (counts racy by nature, exact per bucket)."""

    pending: int
    claimed: int
    done: int
    failed: int

    def describe(self) -> str:
        return (
            f"{self.pending} pending, {self.claimed} claimed, "
            f"{self.done} done, {self.failed} failed"
        )


class BucketQueue:
    """The queue's state machine over in-memory buckets (module docstring).

    Every step tolerates losing a move race: the loser skips the name.
    """

    def __init__(self, lease_timeout_s: float) -> None:
        if lease_timeout_s <= 0:
            raise ExperimentError(f"{type(self).__name__}.lease_timeout_s must be positive")
        self.lease_timeout_s = float(lease_timeout_s)
        self._lock = threading.RLock()
        self._buckets: dict[str, dict[str, list]] = {}
        #: Notified on every state change a waiter may be waiting for.
        self._change = threading.Condition(self._lock)
        #: Raised by what the coordinator's loop acts on (an ack or a
        #: failure), lowered by :meth:`wait_for_change`.
        self._changed = False

    # ------------------------------------------------------------------ storage primitives
    def _names(self, bucket: str) -> list[str]:
        """The names in ``bucket``, sorted."""
        with self._lock:
            return sorted(self._buckets.get(bucket, ()))

    def _move(self, source: str, target: str, name: str) -> bool:
        """Atomically move ``name``, value and stamp, into ``target``;
        ``False`` if ``source`` no longer holds it."""
        with self._lock:
            entry = self._buckets.get(source, {}).pop(name, None)
            if entry is None:
                return False
            self._buckets.setdefault(target, {})[name] = entry
            return True

    def _put(self, bucket: str, name: str, value: object = None) -> None:
        """Store ``value`` under ``name``, replacing it, stamped now."""
        with self._lock:
            self._buckets.setdefault(bucket, {})[name] = [value, self._now()]

    def _load(self, bucket: str, name: str) -> Any:
        """The value under ``name``; ``KeyError`` once it is gone."""
        with self._lock:
            return self._buckets.get(bucket, {})[name][0]

    def _drop(self, bucket: str, name: str) -> bool:
        """Remove ``name``; ``False`` if it was already gone."""
        with self._lock:
            return self._buckets.get(bucket, {}).pop(name, None) is not None

    def _touch(self, bucket: str, name: str) -> bool:
        """Stamp ``name`` now; ``False``, creating nothing, if it is gone."""
        with self._lock:
            entry = self._buckets.get(bucket, {}).get(name)
            if entry is not None:
                entry[1] = self._now()
            return entry is not None

    def _stamp(self, bucket: str, name: str) -> float | None:
        """When ``name`` was last put or touched; ``None`` if it is gone."""
        with self._lock:
            entry = self._buckets.get(bucket, {}).get(name)
            return None if entry is None else entry[1]

    def _now(self) -> float:
        """Now on the clock that stamps entries (the clock seam tests override)."""
        return time.monotonic()

    def _wait(self, ready: Callable[[], bool], timeout_s: float) -> None:
        """Return once ``ready()`` (run under the lock) holds, or after ``timeout_s``."""
        with self._lock:
            self._change.wait_for(ready, timeout_s)

    def _notify(self, change: bool = False) -> None:
        """Wake :meth:`_wait`; ``change`` also raises the flag :meth:`wait_for_change` lowers."""
        with self._lock:
            if change:
                self._changed = True
            self._change.notify_all()

    # ------------------------------------------------------------------ coordinator
    def enqueue(self, task_id: str, payload: object) -> None:
        """Make one task claimable (atomic: a worker never sees a partial task)."""
        self._put(PENDING, task_id, payload)
        self._notify()

    def requeue_expired(self) -> list[str]:
        """Re-queue every claim whose lease heartbeat has gone stale.

        A live worker touches its claim more often than the lease timeout; a
        claim untouched for longer belongs to a dead worker and goes back into
        the pending pool for any worker.  An age equal to the timeout is still
        live.
        """
        now = self._now()
        requeued = []
        for name in self._names(CLAIMED):
            stamp = self._stamp(CLAIMED, name)  # None: acked or re-queued under us
            if stamp is not None and now - stamp > self.lease_timeout_s and self._move(CLAIMED, PENDING, name):
                requeued.append(name)
        if requeued:
            self._notify()
        return requeued

    def write_stop(self) -> None:
        self._put(STOP, STOP_SENTINEL)
        self._notify()

    def stop_requested(self) -> bool:
        return self._stamp(STOP, STOP_SENTINEL) is not None

    # ------------------------------------------------------------------ worker
    def claim(self, worker_id: str) -> TaskClaim | None:
        """Claim the pending task with the lowest id, or ``None`` when nothing is claimable.

        The move into ``claimed`` is the claim: losing the race on one task
        just moves on to the next.
        """
        for name in self._names(PENDING):
            if not self._move(PENDING, CLAIMED, name):
                continue  # another worker won this one
            # The lease heartbeat starts at claim time.
            if not self._touch(CLAIMED, name):
                continue  # re-queued out from under us before we could start
            try:
                payload = self._load(CLAIMED, name)
            except KeyError:
                continue  # likewise
            return TaskClaim(task_id=name, payload=payload)
        return None

    def renew(self, claim: TaskClaim) -> None:
        """Refresh the claim's lease heartbeat (no-op if the claim was re-queued)."""
        self._touch(CLAIMED, claim.task_id)

    def ack(self, claim: TaskClaim, worker_id: str, result: ResultUpload | None = None) -> None:
        """Mark a claim as completed and release it.

        A zombie worker may ack a task whose lease was already re-queued (and
        possibly re-claimed): the result is identical either way, so the ack
        wins and the pending copy is dropped rather than run a second time.
        ``result`` is ignored here: ``QueueServer.ack`` persists it before
        calling this.
        """
        self._drop(PENDING, claim.task_id)
        self._settle(DONE, claim.task_id, worker_id)

    def fail(self, claim: TaskClaim, worker_id: str, error: str) -> None:
        """Mark a claim as failed (re-queueing is the coordinator's call: it
        retries a failed task up to ``RuntimeConfig.task_retries`` times)."""
        self._settle(FAILED, claim.task_id, worker_id, error=error)

    def _settle(self, bucket: str, task_id: str, worker_id: str, error: str | None = None) -> None:
        """Write the task's ``done``/``failed`` marker, release its claim, wake the coordinator."""
        marker = {"task_id": task_id, "worker": worker_id, "status": bucket}
        if error is not None:
            marker["error"] = error
        self._put(bucket, task_id, marker)
        self._drop(CLAIMED, task_id)
        self._notify(change=True)

    def discard_failure(self, task_id: str) -> bool:
        """Drop a task's failure marker (the coordinator is about to retry it)."""
        return self._drop(FAILED, task_id)

    # ------------------------------------------------------------------ inspection
    def pending_ids(self) -> set[str]:
        return set(self._names(PENDING))

    def claimed_ids(self) -> set[str]:
        return set(self._names(CLAIMED))

    def done_ids(self) -> set[str]:
        return set(self._names(DONE))

    def failed_tasks(self) -> dict[str, str]:
        """Failed task ids mapped to their error messages."""
        out: dict[str, str] = {}
        for name in self._names(FAILED):
            try:
                marker = self._load(FAILED, name)
            except KeyError:
                marker = {}
            out[name] = str(marker.get("error", "unknown error"))
        return out

    def worker_done_counts(self) -> dict[str, int]:
        """Completed-task counts per worker id (from the ack markers, read
        under the lock in one pass)."""
        with self._lock:
            return dict(Counter(self._load(DONE, name)["worker"] for name in self._names(DONE)))

    def has_live_claims(self) -> bool:
        """Whether any claim's lease is still being heart-beaten."""
        now = self._now()
        for name in self._names(CLAIMED):
            stamp = self._stamp(CLAIMED, name)
            if stamp is not None and now - stamp <= self.lease_timeout_s:
                return True
        return False

    def stats(self) -> QueueStats:
        """Entry counts only: the coordinator polls this every few hundred
        milliseconds, so it never loads a marker (``failed_tasks`` does, and
        stays reserved for error reporting)."""
        with self._lock:
            return QueueStats(
                pending=len(self._names(PENDING)),
                claimed=len(self._names(CLAIMED)),
                done=len(self._names(DONE)),
                failed=len(self._names(FAILED)),
            )

    def wait_for_change(self, timeout_s: float) -> None:
        """Return on an ack or a failure, or after ``timeout_s``.

        One that arrived since the previous call returns at once: the caller
        was checking state meanwhile and may have read it before the change.
        """
        with self._lock:
            self._change.wait_for(lambda: self._changed, timeout_s)
            self._changed = False

    def wait_for_work(self, timeout_s: float) -> None:
        """Return once a claim would find a task or a stop is written, or
        after ``timeout_s``.

        An idle worker's pause between claims.  Waiting on a condition of the
        state, not on a notification, loses nothing that landed between the
        worker's empty-handed claim and this call.
        """
        self._wait(lambda: self.stop_requested() or bool(self._names(PENDING)), timeout_s)
