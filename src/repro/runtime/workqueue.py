"""The distributed work queue: one state machine, a directory or dicts beneath it.

:class:`BucketQueue` is the queue's claim/lease/steal/ack machine, written
once.  A task is a name that moves between *buckets*:

* ``pending`` (the shared root pool) or ``pending/shard-XX`` (a shard
  partition) — claimable; the coordinator enqueues each task into the shard
  its result routes to (:meth:`~repro.runtime.result_store.TaskKey.shard_index`).
* ``claimed`` — a worker claims a task by *moving* it out of pending; the
  claimed entry's stamp is the **lease heartbeat**, refreshed on claim and
  periodically while the worker executes.
* ``done`` / ``failed`` — ack markers (results themselves go into the result
  store, not the queue).
* ``hungry`` — one mark per starving shard; the stop bucket holds the stop
  sentinel the coordinator writes when the sweep is complete.

The machine is written against a handful of storage primitives (list a
bucket, move a name, put/load/drop an entry, touch and read a stamp, read the
stamping clock).  The one atomic step is the move: of several concurrent moves
of one name exactly one wins, which makes a claim exclusive and a steal safe.
:class:`WorkQueue` implements the primitives over a directory shared by every
host (local disk, NFS, CephFS, ...): a bucket is a subdirectory, an entry a
file, a move an ``os.rename`` and a stamp an mtime.  The TCP transport's
:class:`~repro.runtime.netqueue.QueueServer` implements them over dicts under
one lock with ``time.monotonic`` stamps.

A worker that dies (SIGKILL, OOM, host loss) simply stops touching its claim;
once the stamp is older than the lease timeout, :meth:`BucketQueue.requeue_expired`
moves it back into the root pool and another worker picks it up.  The file
queue measures lease ages against the *shared filesystem's* clock
(touch-and-stat of a probe file in the queue root), never the coordinator's
wall clock: claim mtimes are stamped by the filesystem, so comparing them
against a possibly-skewed local ``time.time()`` would re-queue live claims
(coordinator clock ahead) or never expire dead ones (behind).  Task execution
is idempotent (results are persisted with atomic writes under
content-addressed names), so the rare double execution after a lease expiry
is harmless, and an ack drops any pending copy a re-queue left behind.

**Shard affinity and work stealing.**  A worker started with a preferred
shard claims from that partition first, falling back to the shared root pool
(where expired leases are re-queued).  One that finds *nothing* claimable
marks its shard hungry; the coordinator's :meth:`BucketQueue.rebalance` sweep
reads fresh marks and **steals** pending tasks for the starving shard from
the fullest other shard — moves within pending, so the exactly-once claim
semantics (one move winner per task) are untouched, and because task results
are deterministic in the task identity, a stolen sweep stays byte-identical
to a serial run.  Workers with no preferred shard (the default for
hand-started ``python -m repro.runtime.worker``) scan every shard and need no
stealing.

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

#: Bucket of per-shard starvation marks (work-stealing signals).
HUNGRY = "hungry"

#: Bucket of the stop sentinel: the queue root itself on disk.
STOP = ""

#: Stop sentinel name.
STOP_SENTINEL = "stop"

#: Probe file the lease-expiry sweep touches to read the filesystem's clock.
CLOCK_PROBE = ".clock-probe"

#: How long a hungry mark counts as a live starvation signal.  Stale marks
#: (a worker that moved on or died) must not keep attracting stolen work into
#: a shard nobody drains.
HUNGRY_TTL_S = 30.0

_TASK_ID_RE = re.compile(r"^[A-Za-z0-9._-]+$")
_SHARD_DIR_RE = re.compile(r"^shard-(\d+)$")


def shard_dir_name(shard: int) -> str:
    """Directory name of one pending shard (mirrors the result-store layout)."""
    return f"shard-{shard:02d}"


def shard_bucket(shard: int) -> str:
    """The pending bucket of one shard partition, ``pending/shard-XX``."""
    if shard < 0:
        raise ExperimentError(f"queue shard must be >= 0, got {shard}")
    return f"{PENDING}/{shard_dir_name(shard)}"


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

    def claim(self, worker_id: str, shard: int | None = None) -> TaskClaim | None: ...

    def renew(self, claim: TaskClaim) -> None: ...

    def ack(self, claim: TaskClaim, worker_id: str, result: ResultUpload | None = None) -> None: ...

    def fail(self, claim: TaskClaim, worker_id: str, error: str) -> None: ...

    def stop_requested(self) -> bool: ...

    def wait_for_work(self, timeout_s: float, shard: int | None = None) -> None:
        """An idle worker's pause between claims, ``timeout_s`` at most.

        A transport that sees the queue change returns as soon as a claim
        for ``shard`` would find a task or a stop is written; one that cannot
        (a shared directory) sleeps the interval out.
        """


@runtime_checkable
class QueueTransport(WorkerQueueTransport, Protocol):
    """The full (coordinator + worker) surface of a work-queue transport."""

    def enqueue(self, task_id: str, payload: object, shard: int | None = None) -> object: ...

    def requeue_expired(self) -> list[str]: ...

    def rebalance(self) -> list["StolenTask"]: ...

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
        workers' operations returns early on an ack, a failure or a starving
        shard; one that cannot (a shared directory) sleeps the interval out.
        """

    def stats(self) -> "QueueStats": ...

    def close(self) -> None: ...


@dataclass(frozen=True)
class StolenTask:
    """One pending task the coordinator's rebalance sweep moved between shards.

    Steals only ever move between shard partitions: the shared root pool is
    claimable by every worker already, so nothing is stolen out of (or into)
    it.
    """

    task_id: str
    from_shard: int
    to_shard: int


@dataclass(frozen=True)
class QueueStats:
    """Snapshot of the queue state (counts racy by nature, exact per bucket).

    ``shard_pending`` breaks the pending count down per shard as
    ``(shard, count)`` pairs — empty for unsharded queues, and only non-empty
    shards appear.  ``describe()`` intentionally sticks to the four headline
    counts; the progress reporter renders the shard breakdown.
    """

    pending: int
    claimed: int
    done: int
    failed: int
    shard_pending: tuple[tuple[int, int], ...] = ()

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
    #: (an ack, a failure, a shard going hungry), lowered by :meth:`wait_for_change`.
    _changed = False

    def __init__(self, lease_timeout_s: float, hungry_ttl_s: float) -> None:
        if lease_timeout_s <= 0:
            raise ExperimentError(f"{type(self).__name__}.lease_timeout_s must be positive")
        self.lease_timeout_s = float(lease_timeout_s)
        self.hungry_ttl_s = float(hungry_ttl_s)
        #: Memo of parsed done markers (task id -> worker id): markers are
        #: immutable once written, so ``worker_done_counts`` only loads markers
        #: it has not seen — O(new markers) per progress poll, not O(all).
        self._done_workers: dict[str, str] = {}

    # ------------------------------------------------------------------ storage primitives
    def _names(self, bucket: str) -> list[str]:
        """The names in ``bucket``, sorted."""
        raise NotImplementedError

    def _shards(self) -> list[int]:
        """The pending shard partitions present, sorted."""
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

    # ------------------------------------------------------------------ buckets
    def _pending_buckets(self) -> list[str]:
        return [PENDING, *(shard_bucket(shard) for shard in self._shards())]

    def _candidates(self, shard: int | None) -> list[tuple[str, str]]:
        """``(task id, bucket)`` pairs in the order a claim for ``shard`` tries them.

        With a preferred shard: that partition first, then the shared root
        pool (re-queued leases) — never other shards.  Without one: every
        partition plus the root pool, in global task-id order.
        """
        if shard is None:
            return sorted(
                (name, bucket) for bucket in self._pending_buckets() for name in self._names(bucket)
            )
        return [(name, bucket) for bucket in (shard_bucket(shard), PENDING) for name in self._names(bucket)]

    # ------------------------------------------------------------------ coordinator
    def enqueue(self, task_id: str, payload: object, shard: int | None = None) -> Path | None:
        """Make one task claimable (atomic: a worker never sees a partial task).

        With ``shard`` given the task lands in that shard partition and is
        claimed preferentially by that shard's workers; without one it goes
        into the shared root pool every worker scans.  Returns the task file
        (``None`` in memory).
        """
        if not _TASK_ID_RE.match(task_id):
            raise ExperimentError(f"task id {task_id!r} is not filesystem-safe")
        bucket = PENDING if shard is None else shard_bucket(shard)
        self._put(bucket, task_id, payload)
        self._notify()
        return self._path(bucket, task_id)

    def requeue_expired(self) -> list[str]:
        """Re-queue every claim whose lease heartbeat has gone stale.

        A live worker touches its claim more often than the lease timeout; a
        claim untouched for longer belongs to a dead worker and goes back for
        someone else — into the shared *root* pool, not its original shard:
        the shard's own worker may be the one that died, and the root pool is
        claimable by everyone.  An age equal to the timeout is still live.
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

    def rebalance(self) -> list[StolenTask]:
        """Steal pending work for starving shards (the coordinator's sweep).

        For every shard with a *fresh* hungry mark (a preferred-shard worker
        recently found nothing claimable) that is still empty, move the back
        half (rounded up) of the fullest other shard's sorted pending names
        into it — the lowest shard index wins ties, and the back is furthest
        from the names that shard's own worker claims next.  Each move is one
        :meth:`_move`, so a task is claimable in exactly one place at any
        instant; losing a race with a concurrent claim just skips that task.
        A successful steal consumes the mark; finding nothing to steal keeps
        it for the next sweep.
        """
        marks = self._names(HUNGRY)
        if not marks:
            return []
        now = self._now()
        moved: list[StolenTask] = []
        for mark in marks:
            match = _SHARD_DIR_RE.match(mark)
            stamp = self._stamp(HUNGRY, mark)
            if match is None or stamp is None:
                continue
            if now - stamp > self.hungry_ttl_s:
                self._drop(HUNGRY, mark)  # stale signal: nobody is waiting
                continue
            hungry = int(match.group(1))
            target = shard_bucket(hungry)
            if self._names(target):
                self._drop(HUNGRY, mark)  # the shard has work again
                continue
            backlog = {shard: self._names(shard_bucket(shard)) for shard in self._shards() if shard != hungry}
            source = max(backlog, key=lambda shard: (len(backlog[shard]), -shard), default=None)
            if source is None or not backlog[source]:
                continue
            names = backlog[source]
            stolen = [
                StolenTask(name, source, hungry)
                for name in reversed(names[len(names) // 2:])
                if self._move(shard_bucket(source), target, name)
            ]
            if stolen:
                self._drop(HUNGRY, mark)
            moved += stolen
        if moved:
            self._notify()
        return moved

    def reset(self) -> int:
        """Drop every task, ack marker, hungry mark and the stop sentinel.

        A coordinator owns its queue: calling this before enqueueing
        reconciles state left behind by a crashed earlier sweep — orphaned
        pending/claimed tasks would otherwise be drained (and re-executed) by
        the new sweep's workers, and done/failed markers would accumulate
        without bound.  Returns the number of tasks and markers removed.
        """
        removed = sum(
            self._drop(bucket, name)
            for bucket in (*self._pending_buckets(), CLAIMED, DONE, FAILED)
            for name in self._names(bucket)
        )
        for mark in self._names(HUNGRY):
            self._drop(HUNGRY, mark)
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
    def claim(self, worker_id: str, shard: int | None = None) -> TaskClaim | None:
        """Claim one pending task, or ``None`` when nothing is claimable.

        The move into ``claimed`` is the claim: losing the race on one
        candidate just moves on to the next (:meth:`_candidates` gives the
        order).  A claim whose payload cannot be loaded is marked failed
        instead of being executed.  A preferred-shard claim that finds nothing
        marks the shard hungry, so the coordinator's :meth:`rebalance` steals
        work over.
        """
        for name, bucket in self._candidates(shard):
            if not self._move(bucket, CLAIMED, name):
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
        if shard is not None:
            self._mark_hungry(shard)
        return None

    def _mark_hungry(self, shard: int) -> None:
        """Record a preferred-shard worker's empty scan (a steal-here signal)."""
        try:
            self._put(HUNGRY, shard_dir_name(shard))
        except OSError:  # pragma: no cover - marker dir unwritable: stealing degrades
            return
        self._notify(change=True)

    def renew(self, claim: TaskClaim) -> None:
        """Refresh the claim's lease heartbeat (no-op if the claim was re-queued)."""
        self._touch(CLAIMED, claim.task_id)

    def ack(self, claim: TaskClaim, worker_id: str, result: ResultUpload | None = None) -> None:
        """Mark a claim as completed and release it.

        A zombie worker may ack a task whose lease was already re-queued (and
        possibly re-claimed): the result is identical either way, so the ack
        wins and every pending copy — in the root pool or a shard — is
        dropped rather than run a second time.  ``result`` is ignored here:
        file-queue workers have already written the shared result store, and
        ``QueueServer.ack`` persists it before calling this.
        """
        for bucket in self._pending_buckets():
            self._drop(bucket, claim.task_id)
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
        return {name for bucket in self._pending_buckets() for name in self._names(bucket)}

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
        shard_pending = tuple(
            (shard, count) for shard in self._shards() if (count := len(self._names(shard_bucket(shard))))
        )
        return QueueStats(
            pending=len(self._names(PENDING)) + sum(count for _, count in shard_pending),
            claimed=len(self._names(CLAIMED)),
            done=len(self._names(DONE)),
            failed=len(self._names(FAILED)),
            shard_pending=shard_pending,
        )

    def wait_for_change(self, timeout_s: float) -> None:
        """Return on an ack, a failure or a hungry mark, or after ``timeout_s``.

        One that arrived since the previous call returns at once: the caller
        was checking state meanwhile and may have read it before the change.
        """

        def consume() -> bool:
            changed, self._changed = self._changed, False
            return changed

        self._wait(consume, timeout_s)

    def wait_for_work(self, timeout_s: float, shard: int | None = None) -> None:
        """Return once a claim for ``shard`` would find a task or a stop is
        written, or after ``timeout_s``.

        An idle worker's pause between claims.  Waiting on a condition of the
        state, not on a notification, loses nothing that landed between the
        worker's empty-handed claim and this call.
        """
        self._wait(lambda: self.stop_requested() or bool(self._candidates(shard)), timeout_s)


class WorkQueue(BucketQueue):
    """The queue over one shared directory: a bucket is a subdirectory, an
    entry a file (``<id>.task`` pickles, ``<id>.json`` markers, empty signal
    files), a move an atomic ``os.rename`` and a stamp an mtime."""

    def __init__(
        self,
        root: str | os.PathLike,
        lease_timeout_s: float = 60.0,
        shard_count: int = 0,
        hungry_ttl_s: float = HUNGRY_TTL_S,
    ) -> None:
        super().__init__(lease_timeout_s, hungry_ttl_s)
        if shard_count < 0:
            raise ExperimentError("WorkQueue.shard_count must be >= 0")
        self.root = Path(root)
        for name in (PENDING, CLAIMED, DONE, FAILED, HUNGRY):
            (self.root / name).mkdir(parents=True, exist_ok=True)
        # Shard subdirectories are created eagerly by the coordinator (which
        # knows the count) and *discovered* by everyone else: a worker opened
        # with shard_count=0 still claims from whatever shard-XX/ dirs exist.
        for shard in range(shard_count):
            (self.root / shard_bucket(shard)).mkdir(exist_ok=True)

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
        return ".task" if bucket == CLAIMED or bucket.startswith(PENDING) else ""

    def _path(self, bucket: str, name: str) -> Path:
        return self.root / bucket / f"{name}{self._suffix(bucket)}"

    def _names(self, bucket: str) -> list[str]:
        suffix = self._suffix(bucket)
        return sorted(path.name.removesuffix(suffix) for path in (self.root / bucket).glob(f"*{suffix}"))

    def _shards(self) -> list[int]:
        shards = []
        for path in (self.root / PENDING).iterdir():
            match = _SHARD_DIR_RE.match(path.name)
            if match is not None and path.is_dir():
                shards.append(int(match.group(1)))
        return sorted(shards)

    def _move(self, source: str, target: str, name: str) -> bool:
        target_path = self._path(target, name)
        target_path.parent.mkdir(exist_ok=True)  # a steal may be a shard's first task
        try:
            os.rename(self._path(source, name), target_path)
        except FileNotFoundError:
            # Another process moved it first.  Any other OSError is a real
            # filesystem problem and must surface, not hang the sweep.
            return False
        return True

    def _put(self, bucket: str, name: str, value: object = None) -> None:
        path = self._path(bucket, name)
        if bucket in (HUNGRY, STOP):
            path.touch()  # a signal: only its mtime counts
        elif bucket in (DONE, FAILED):
            atomic_write_bytes(path, json.dumps(value, indent=1, sort_keys=True).encode("utf-8"))
        else:
            path.parent.mkdir(exist_ok=True)  # a shard partition appears with its first task
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
            for orphan in (self.root / bucket).rglob("*.tmp"):
                orphan.unlink(missing_ok=True)
                removed += 1
        return removed

    def close(self) -> None:
        """Nothing to release: the file transport holds no connections."""

    def describe(self) -> str:
        return f"WorkQueue({self.root}, {self.stats().describe()})"
