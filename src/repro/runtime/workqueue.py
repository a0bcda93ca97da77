"""The distributed work queue: one state machine, a directory or dicts beneath it.

:class:`BucketQueue` is the queue's claim/lease/ack machine, written once.  A
task is a name that moves between *buckets*:

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
bucket, move a name, put/load/drop an entry, touch and read a stamp, read the
stamping clock).  The one atomic step is the move: of several concurrent moves
of one name exactly one wins, which makes a claim exclusive.
:class:`WorkQueue` implements the primitives over a directory shared by every
host (local disk, NFS, CephFS, ...): a bucket is a subdirectory, an entry a
file, a move an ``os.rename`` and a stamp an mtime.  The TCP transport's
:class:`~repro.runtime.netqueue.QueueServer` implements them over dicts under
one lock with ``time.monotonic`` stamps.

A worker that dies (SIGKILL, OOM, host loss) simply stops touching its claim;
once the stamp is older than the lease timeout, :meth:`BucketQueue.requeue_expired`
moves it back into the pending pool and any worker picks it up.  The file
queue measures lease ages against the *shared filesystem's* clock
(touch-and-stat of a probe file in the queue root), never the coordinator's
wall clock: claim mtimes are stamped by the filesystem, so comparing them
against a possibly-skewed local ``time.time()`` would re-queue live claims
(coordinator clock ahead) or never expire dead ones (behind).  Task execution
is idempotent (results are persisted with atomic writes under
content-addressed names), so the rare double execution after a lease expiry
is harmless, and an ack drops any pending copy a re-queue left behind.

This module also defines the transport-agnostic queue API: the
:class:`QueueTransport` protocol (coordinator + worker surface) both queues
implement, and the :class:`ResultUpload` frame a transport that carries
results back to the coordinator attaches to its acks.
"""

from __future__ import annotations

import json
import os
import pickle
import re
import time
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Protocol, runtime_checkable

from repro.errors import ExperimentError
from repro.runtime.result_store import TaskKey, atomic_write_bytes

#: Bucket names, which are also the subdirectories of the file queue's layout.
PENDING, CLAIMED, DONE, FAILED = "pending", "claimed", "done", "failed"

#: Bucket of the stop sentinel: the queue root itself on disk.
STOP = ""

#: Stop sentinel name.
STOP_SENTINEL = "stop"

#: Probe file the lease-expiry sweep touches to read the filesystem's clock.
CLOCK_PROBE = ".clock-probe"

_TASK_ID_RE = re.compile(r"^[A-Za-z0-9._-]+$")


@dataclass(frozen=True)
class TaskClaim:
    """A successfully claimed task: its id, payload and (file transport only)
    the claimed-file path whose mtime is the lease heartbeat."""

    task_id: str
    payload: object
    path: Path | None = None


@dataclass(frozen=True)
class ResultUpload:
    """A finished task's result, pushed back to the coordinator with the ack.

    Only transports whose workers share no filesystem with the coordinator
    (``wants_results`` is true, i.e. the TCP transport) carry these; file-queue
    workers write the shared result store directly and ack without one.
    """

    key: TaskKey
    fingerprint: str | None
    result: dict


@dataclass(frozen=True)
class QueueAddress:
    """Parsed form of a queue url (``RuntimeConfig.queue_url``)."""

    scheme: str  #: ``"file"`` or ``"tcp"``
    path: str | None = None
    host: str | None = None
    port: int | None = None


def parse_queue_url(url: str | os.PathLike) -> QueueAddress:
    """Parse ``file:///dir``, ``tcp://host:port`` or a bare directory path."""
    text = str(url)
    if text.startswith("tcp://"):
        host, sep, port_text = text[len("tcp://"):].rpartition(":")
        try:
            port = int(port_text)
        except ValueError:
            port = -1
        if not sep or not host or not 0 <= port <= 65535:
            raise ExperimentError(
                f"queue url {text!r} is not of the form tcp://<host>:<port> "
                "(port 0 binds an ephemeral port on the coordinator)"
            )
        return QueueAddress(scheme="tcp", host=host, port=port)
    if text.startswith("file://"):
        rest = text[len("file://"):]
        if rest.startswith("/"):
            path = rest  # file:///abs/dir — empty authority
        else:
            # file://<authority>/<path>: only the local host is meaningful; a
            # remote authority silently treated as a relative path would point
            # the coordinator at the wrong local directory.
            authority, sep, tail = rest.partition("/")
            if authority != "localhost" or not sep:
                raise ExperimentError(
                    f"queue url {text!r} names authority {authority!r}; file:// queues "
                    "are local — use file:///abs/dir (three slashes) or file://localhost/abs/dir"
                )
            path = "/" + tail
        if not path.rstrip("/"):
            raise ExperimentError(f"queue url {text!r} names no directory")
        return QueueAddress(scheme="file", path=path)
    if "://" in text:
        scheme = text.split("://", 1)[0]
        raise ExperimentError(
            f"unsupported queue url scheme {scheme!r} in {text!r}; expected file:// or tcp://"
        )
    return QueueAddress(scheme="file", path=text)


@runtime_checkable
class WorkerQueueTransport(Protocol):
    """The worker-side queue surface: what the claim-execute-ack loop needs."""

    #: Whether acks must carry a :class:`ResultUpload` (the transport delivers
    #: results to the coordinator) instead of the worker writing a shared store.
    wants_results: bool

    def claim(self, worker_id: str) -> TaskClaim | None: ...

    def renew(self, claim: TaskClaim) -> None: ...

    def ack(self, claim: TaskClaim, worker_id: str, result: ResultUpload | None = None) -> None: ...

    def fail(self, claim: TaskClaim, worker_id: str, error: str) -> None: ...

    def stop_requested(self) -> bool: ...

    def wait_for_work(self, timeout_s: float) -> None:
        """An idle worker's pause between claims, ``timeout_s`` at most.

        A transport that sees the queue change returns as soon as a claim
        would find a task or a stop is written; one that cannot (a shared
        directory) sleeps the interval out.
        """


@runtime_checkable
class QueueTransport(WorkerQueueTransport, Protocol):
    """The full (coordinator + worker) surface of a work-queue transport."""

    def enqueue(self, task_id: str, payload: object) -> object: ...

    def requeue_expired(self) -> list[str]: ...

    def worker_done_counts(self) -> dict[str, int]: ...

    def discard_failure(self, task_id: str) -> bool: ...

    def reset(self) -> int: ...

    def write_stop(self) -> None: ...

    def clear_stop(self) -> None: ...

    def done_ids(self) -> set[str]: ...

    def failed_tasks(self) -> dict[str, str]: ...

    def has_live_claims(self) -> bool: ...

    def wait_for_change(self, timeout_s: float) -> None:
        """Block until a worker changed the queue's state, ``timeout_s`` at most.

        The coordinator's pause between polls.  A transport that sees its
        workers' operations returns early on an ack or a failure; one that
        cannot (a shared directory) sleeps the interval out.
        """

    def stats(self) -> "QueueStats": ...

    def close(self) -> None: ...


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
    """The queue's state machine over the storage primitives (module docstring).

    A subclass implements the primitives — the methods below that raise
    ``NotImplementedError`` — and everything else is shared, so the two
    transports cannot drift apart.  Every step tolerates losing a move race:
    the loser skips the name, exactly as a rename that raised
    ``FileNotFoundError`` does.
    """

    #: Whether acks must carry a :class:`ResultUpload`.
    wants_results = False

    #: Raised under the storage's lock by what the coordinator's loop acts on
    #: (an ack or a failure), lowered by :meth:`wait_for_change`.
    _changed = False

    def __init__(self, lease_timeout_s: float) -> None:
        if lease_timeout_s <= 0:
            raise ExperimentError(f"{type(self).__name__}.lease_timeout_s must be positive")
        self.lease_timeout_s = float(lease_timeout_s)
        #: Memo of parsed done markers (task id -> worker id): markers are
        #: immutable once written, so ``worker_done_counts`` only loads markers
        #: it has not seen — O(new markers) per progress poll, not O(all).
        self._done_workers: dict[str, str] = {}

    # ------------------------------------------------------------------ storage primitives
    def _names(self, bucket: str) -> list[str]:
        """The names in ``bucket``, sorted."""
        raise NotImplementedError

    def _move(self, source: str, target: str, name: str) -> bool:
        """Atomically move ``name``, value and stamp, into ``target`` (made if new);
        ``False`` if ``source`` no longer holds it."""
        raise NotImplementedError

    def _put(self, bucket: str, name: str, value: object = None) -> None:
        """Store ``value`` under ``name``, replacing it, stamped now (signals store no value)."""
        raise NotImplementedError

    def _load(self, bucket: str, name: str) -> Any:
        """The value under ``name``; ``KeyError`` once it is gone."""
        raise NotImplementedError

    def _drop(self, bucket: str, name: str) -> bool:
        """Remove ``name``; ``False`` if it was already gone."""
        raise NotImplementedError

    def _touch(self, bucket: str, name: str) -> bool:
        """Stamp ``name`` now; ``False``, creating nothing, if it is gone."""
        raise NotImplementedError

    def _stamp(self, bucket: str, name: str) -> float | None:
        """When ``name`` was last put or touched, on :meth:`_now`'s clock; ``None`` if it is gone."""
        raise NotImplementedError

    def _now(self) -> float:
        """Now on the clock that stamps entries."""
        raise NotImplementedError

    def _wait(self, ready: Callable[[], bool], timeout_s: float) -> None:
        """Return once ``ready()`` (run under the storage's lock) holds, or after ``timeout_s``."""
        raise NotImplementedError

    def _notify(self, change: bool = False) -> None:
        """Wake :meth:`_wait`; ``change`` also raises the flag :meth:`wait_for_change`
        lowers.  A storage nobody waits on ignores it."""

    def _path(self, bucket: str, name: str) -> Path | None:
        """Where an entry lives on disk (``None``: in memory)."""
        return None

    # ------------------------------------------------------------------ coordinator
    def enqueue(self, task_id: str, payload: object) -> Path | None:
        """Make one task claimable (atomic: a worker never sees a partial task).

        Returns the task file (``None`` in memory).
        """
        if not _TASK_ID_RE.match(task_id):
            raise ExperimentError(f"task id {task_id!r} is not filesystem-safe")
        self._put(PENDING, task_id, payload)
        self._notify()
        return self._path(PENDING, task_id)

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

    def reset(self) -> int:
        """Drop every task, ack marker and the stop sentinel.

        A coordinator owns its queue: calling this before enqueueing
        reconciles state left behind by a crashed earlier sweep — orphaned
        pending/claimed tasks would otherwise be drained (and re-executed) by
        the new sweep's workers, and done/failed markers would accumulate
        without bound.  Returns the number of tasks and markers removed.
        """
        removed = sum(
            self._drop(bucket, name)
            for bucket in (PENDING, CLAIMED, DONE, FAILED)
            for name in self._names(bucket)
        )
        self._done_workers.clear()  # the markers it described are gone
        self.clear_stop()
        return removed

    def write_stop(self) -> None:
        self._put(STOP, STOP_SENTINEL)
        self._notify()

    def clear_stop(self) -> None:
        self._drop(STOP, STOP_SENTINEL)

    def stop_requested(self) -> bool:
        return self._stamp(STOP, STOP_SENTINEL) is not None

    # ------------------------------------------------------------------ worker
    def claim(self, worker_id: str) -> TaskClaim | None:
        """Claim the pending task with the lowest id, or ``None`` when nothing is claimable.

        The move into ``claimed`` is the claim: losing the race on one task
        just moves on to the next.  A claim whose payload cannot be loaded is
        marked failed instead of being executed.
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
            except Exception as exc:  # corrupt payload: never executable
                self._settle(FAILED, name, worker_id, error=f"unreadable payload: {exc}")
                continue
            return TaskClaim(task_id=name, payload=payload, path=self._path(CLAIMED, name))
        return None

    def renew(self, claim: TaskClaim) -> None:
        """Refresh the claim's lease heartbeat (no-op if the claim was re-queued)."""
        self._touch(CLAIMED, claim.task_id)

    def ack(self, claim: TaskClaim, worker_id: str, result: ResultUpload | None = None) -> None:
        """Mark a claim as completed and release it.

        A zombie worker may ack a task whose lease was already re-queued (and
        possibly re-claimed): the result is identical either way, so the ack
        wins and the pending copy is dropped rather than run a second time.
        ``result`` is ignored here:
        file-queue workers have already written the shared result store, and
        ``QueueServer.ack`` persists it before calling this.
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
            except (KeyError, OSError, ValueError):
                marker = {}
            out[name] = str(marker.get("error", "unknown error"))
        return out

    def worker_done_counts(self) -> dict[str, int]:
        """Completed-task counts per worker id (from the ack markers).

        Unlike :meth:`stats` this *does* load markers — but each one once
        ever (they are immutable), so a progress poll costs O(markers acked
        since the last poll), not O(all markers).
        """
        counts: dict[str, int] = {}
        for name in self._names(DONE):
            worker = self._done_workers.get(name)
            if worker is None:
                try:
                    worker = str(self._load(DONE, name).get("worker", "unknown"))
                except (KeyError, OSError, ValueError):  # racing writer: count it next poll
                    continue
                self._done_workers[name] = worker
            counts[worker] = counts.get(worker, 0) + 1
        return counts

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
        milliseconds, so it must never load a marker (``failed_tasks`` does,
        and stays reserved for error reporting)."""
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

        def consume() -> bool:
            changed, self._changed = self._changed, False
            return changed

        self._wait(consume, timeout_s)

    def wait_for_work(self, timeout_s: float) -> None:
        """Return once a claim would find a task or a stop is written, or
        after ``timeout_s``.

        An idle worker's pause between claims.  Waiting on a condition of the
        state, not on a notification, loses nothing that landed between the
        worker's empty-handed claim and this call.
        """
        self._wait(lambda: self.stop_requested() or bool(self._names(PENDING)), timeout_s)


class WorkQueue(BucketQueue):
    """The queue over one shared directory: a bucket is a subdirectory, an
    entry a file (``<id>.task`` pickles, ``<id>.json`` markers, empty signal
    files), a move an atomic ``os.rename`` and a stamp an mtime."""

    def __init__(self, root: str | os.PathLike, lease_timeout_s: float = 60.0) -> None:
        super().__init__(lease_timeout_s)
        self.root = Path(root)
        for name in (PENDING, CLAIMED, DONE, FAILED):
            (self.root / name).mkdir(parents=True, exist_ok=True)

    def filesystem_now(self) -> float:
        """Now according to the clock that stamps claim mtimes.

        Touch-and-stat a probe file in the queue root: on a network filesystem
        both the probe's and the claims' mtimes are assigned by the same
        server, so lease ages computed against this value are immune to clock
        skew between the coordinator and the filesystem (or the worker hosts).
        Comparing claim mtimes against the coordinator's ``time.time()``
        instead would spuriously re-queue live claims whenever the coordinator
        ran ahead by more than the lease timeout — or never expire dead ones
        when it ran behind.
        """
        probe = self.root / CLOCK_PROBE
        try:
            probe.touch()
            return probe.stat().st_mtime
        except OSError:  # pragma: no cover - probe unwritable: degrade gracefully
            return time.time()

    # ------------------------------------------------------------------ storage primitives
    @staticmethod
    def _suffix(bucket: str) -> str:
        if bucket in (DONE, FAILED):
            return ".json"
        return ".task" if bucket in (PENDING, CLAIMED) else ""

    def _path(self, bucket: str, name: str) -> Path:
        return self.root / bucket / f"{name}{self._suffix(bucket)}"

    def _names(self, bucket: str) -> list[str]:
        suffix = self._suffix(bucket)
        return sorted(path.name.removesuffix(suffix) for path in (self.root / bucket).glob(f"*{suffix}"))

    def _move(self, source: str, target: str, name: str) -> bool:
        try:
            os.rename(self._path(source, name), self._path(target, name))
        except FileNotFoundError:
            # Another process moved it first.  Any other OSError is a real
            # filesystem problem and must surface, not hang the sweep.
            return False
        return True

    def _put(self, bucket: str, name: str, value: object = None) -> None:
        path = self._path(bucket, name)
        if bucket == STOP:
            path.touch()  # a signal: only its mtime counts
        elif bucket in (DONE, FAILED):
            atomic_write_bytes(path, json.dumps(value, indent=1, sort_keys=True).encode("utf-8"))
        else:
            atomic_write_bytes(path, pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL))

    def _load(self, bucket: str, name: str) -> Any:
        path = self._path(bucket, name)
        try:
            if bucket in (DONE, FAILED):
                return json.loads(path.read_text())
            blob = path.read_bytes()
        except FileNotFoundError:
            raise KeyError(name) from None
        # Task files are written by the coordinator into the queue directory;
        # the shared filesystem is the file transport's trust boundary.
        return pickle.loads(blob)

    def _drop(self, bucket: str, name: str) -> bool:
        try:
            self._path(bucket, name).unlink()
        except FileNotFoundError:
            return False
        return True

    def _touch(self, bucket: str, name: str) -> bool:
        try:
            os.utime(self._path(bucket, name))
        except FileNotFoundError:
            return False
        return True

    def _stamp(self, bucket: str, name: str) -> float | None:
        try:
            return self._path(bucket, name).stat().st_mtime
        except FileNotFoundError:
            return None

    def _now(self) -> float:
        return self.filesystem_now()

    def _wait(self, ready: Callable[[], bool], timeout_s: float) -> None:
        """Sleep the interval out: a directory does not announce its renames."""
        time.sleep(timeout_s)

    # ------------------------------------------------------------------ queue
    def reset(self) -> int:
        """:meth:`BucketQueue.reset`, plus the ``.tmp`` orphans of crashed
        atomic writes: nothing else removes them, so a reused queue directory
        would otherwise collect them forever.  Returns the files removed."""
        removed = super().reset()
        for bucket in (PENDING, CLAIMED, DONE, FAILED):
            for orphan in (self.root / bucket).glob("*.tmp"):
                orphan.unlink(missing_ok=True)
                removed += 1
        return removed

    def close(self) -> None:
        """Nothing to release: the file transport holds no connections."""

    def describe(self) -> str:
        return f"WorkQueue({self.root}, {self.stats().describe()})"
