"""The distributed work queue: one state machine in one process's memory.

:class:`BucketQueue` is the queue's claim/ack machine.  Its whole state is
five fields:

* ``_pending`` — the one pool of claimable tasks (payload by task id); a claim
  takes the lowest task id, and a dead worker's claim goes back into the same
  pool.
* ``_claimed`` — ``(payload, worker id)`` by task id: who holds each claim.
* ``_done`` / ``_failed`` — the acking worker, or the error message, by task
  id (results themselves go into the result store, not the queue).
* ``_stopped`` — set when the coordinator writes the stop: the sweep is
  over, complete or aborted, and no claim takes a task from then on.

Where a task's *result* lands (a flat or sharded result store) is the store's
decision alone (:meth:`~repro.runtime.result_store.ResultStore.path_for`); the
queue neither knows nor cares.

Every public operation is one step: it holds the queue's one (reentrant) lock
from its first read to its last write and notifies the lock's condition
itself, which wakes :meth:`BucketQueue.wait_for_change` and
:meth:`BucketQueue.wait_for_work`.  A claim pops its task from ``_pending``
and records it in ``_claimed`` inside one step, so two claims can never take
the same task and no step ever sees another half done.

The coordinator serves the machine over TCP
(:class:`~repro.runtime.netqueue.QueueServer`) to the workers it forked;
they reach it through :class:`~repro.runtime.netqueue.NetWorkQueue`.  The
coordinator sees a worker die (SIGKILL, OOM) when it reaps the process, and
:meth:`BucketQueue.requeue_orphaned` puts every claim not held by a live
worker back into the pending pool for any worker to pick up.  Task execution
is idempotent (results are persisted with atomic writes under
content-addressed names), so the rare double execution after a re-queue is
harmless, and an ack drops any pending copy a re-queue left behind.

This module also defines the worker-side queue surface
(:class:`WorkerQueueTransport`, which the worker loop's test fakes implement)
and the :class:`ResultUpload` a worker attaches to its ack.
"""

from __future__ import annotations

import threading
from collections import Counter
from dataclasses import dataclass
from typing import Protocol, runtime_checkable

from repro.errors import ExperimentError
from repro.runtime.result_store import TaskKey

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

    def ack(self, claim: TaskClaim, worker_id: str, result: ResultUpload | None = None) -> None: ...

    def fail(self, claim: TaskClaim, worker_id: str, error: str) -> None: ...

    def stop_requested(self) -> bool: ...

    def wait_for_work(self, timeout_s: float) -> None:
        """An idle worker's pause between claims, ``timeout_s`` at most: back
        as soon as a claim would find a task or a stop is written."""


@dataclass(frozen=True)
class QueueStats:
    """Snapshot of the queue state: all four counts read in one locked step."""

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
    """The queue's state machine (module docstring): one lock, one step per operation."""

    def __init__(self) -> None:
        self._lock = threading.RLock()
        #: Notified on every state change a waiter may be waiting for.
        self._change = threading.Condition(self._lock)
        self._pending: dict[str, object] = {}  # payload by task id
        self._claimed: dict[str, tuple[object, str]] = {}  # (payload, worker id) by task id
        self._done: dict[str, str] = {}  # acking worker by task id
        self._failed: dict[str, str] = {}  # error message by task id
        self._stopped = False
        #: Raised by what the coordinator's loop acts on (an ack or a
        #: failure), lowered by :meth:`wait_for_change`.
        self._changed = False

    # ------------------------------------------------------------------ coordinator
    def enqueue(self, task_id: str, payload: object) -> None:
        """Make one task claimable."""
        with self._lock:
            self._pending[task_id] = payload
            self._change.notify_all()

    def requeue_orphaned(self, live_workers: set[str]) -> list[str]:
        """Re-queue every claim not held by one of ``live_workers``; returns
        the re-queued task ids in id order.

        A claim whose worker died goes back into the pending pool for any
        worker.  So does one held under any other id: nobody the coordinator
        can see finishing it would otherwise hold the sweep open for good.
        """
        with self._lock:
            requeued = sorted(
                task_id
                for task_id, (_, worker_id) in self._claimed.items()
                if worker_id not in live_workers
            )
            for task_id in requeued:
                self._pending[task_id] = self._claimed.pop(task_id)[0]
            if requeued:
                self._change.notify_all()
            return requeued

    def write_stop(self) -> None:
        with self._lock:
            self._stopped = True
            self._change.notify_all()

    def stop_requested(self) -> bool:
        with self._lock:
            return self._stopped

    # ------------------------------------------------------------------ worker
    def claim(self, worker_id: str) -> TaskClaim | None:
        """Claim the pending task with the lowest id for ``worker_id``, or
        ``None`` when nothing is claimable or the stop is written.

        After a stop a worker finishes the task it holds and leaves: an
        aborted sweep runs none of the tasks still pending.
        """
        with self._lock:
            if self._stopped or not self._pending:
                return None
            task_id = min(self._pending)
            payload = self._pending.pop(task_id)
            self._claimed[task_id] = (payload, worker_id)
            return TaskClaim(task_id=task_id, payload=payload)

    def ack(self, claim: TaskClaim, worker_id: str, result: ResultUpload | None = None) -> None:
        """Mark a claim as completed and drop it.

        An ack may land after its claim was re-queued (and possibly
        re-claimed): the worker was killed while the server persisted its
        upload.  The result is identical either way, so the ack wins and the
        pending copy is dropped rather than run a second time.
        ``result`` is ignored here: ``QueueServer.ack`` persists it before
        calling this.
        """
        with self._lock:
            self._pending.pop(claim.task_id, None)
            self._done[claim.task_id] = worker_id
            self._drop_claim(claim.task_id)

    def fail(self, claim: TaskClaim, worker_id: str, error: str) -> None:
        """Mark a claim as failed (re-queueing is the coordinator's call: it
        retries a failed task up to ``RuntimeConfig.task_retries`` times)."""
        with self._lock:
            self._failed[claim.task_id] = error
            self._drop_claim(claim.task_id)

    def _drop_claim(self, task_id: str) -> None:
        """Drop the task's claim and wake the coordinator (called by ``ack``
        and ``fail`` inside their step; the lock is reentrant)."""
        with self._lock:
            self._claimed.pop(task_id, None)
            self._changed = True
            self._change.notify_all()

    def discard_failure(self, task_id: str) -> bool:
        """Drop a task's failure (the coordinator is about to retry it)."""
        with self._lock:
            return self._failed.pop(task_id, None) is not None

    # ------------------------------------------------------------------ inspection
    def pending_ids(self) -> set[str]:
        with self._lock:
            return set(self._pending)

    def claimed_ids(self) -> set[str]:
        with self._lock:
            return set(self._claimed)

    def done_ids(self) -> set[str]:
        with self._lock:
            return set(self._done)

    def failed_tasks(self) -> dict[str, str]:
        """Failed task ids mapped to their error messages."""
        with self._lock:
            return dict(self._failed)

    def worker_done_counts(self) -> dict[str, int]:
        """Completed-task counts per worker id."""
        with self._lock:
            return dict(Counter(self._done.values()))

    def stats(self) -> QueueStats:
        """Entry counts only: the coordinator reads this for every progress
        snapshot, so it copies nothing (``failed_tasks`` copies the messages,
        and stays reserved for error reporting)."""
        with self._lock:
            return QueueStats(
                pending=len(self._pending),
                claimed=len(self._claimed),
                done=len(self._done),
                failed=len(self._failed),
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
        with self._lock:
            self._change.wait_for(lambda: self._stopped or bool(self._pending), timeout_s)
