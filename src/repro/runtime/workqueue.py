"""File-based work queue for multi-host experiment fan-out.

The coordinator and any number of workers share one queue directory on a
common filesystem (local disk for same-host pools, NFS/CephFS/... for
multi-host sweeps).  All coordination happens through atomic ``os.rename``:

* ``pending/<task_id>.task`` — a pickled :class:`~repro.runtime.parallel.SpecTaskPayload`,
  enqueued by the coordinator via write-to-temp + rename.
* ``claimed/<task_id>.task`` — a worker claims a task by renaming it out of
  ``pending/``; rename is atomic, so exactly one worker wins a task no matter
  how many race on it.  The claimed file's mtime is the *lease heartbeat*:
  the winning worker touches it on claim and periodically while executing.
* ``done/<task_id>.json`` / ``failed/<task_id>.json`` — ack markers written by
  the worker after executing (results themselves go into the shared result
  store, not the queue).
* ``stop`` — sentinel the coordinator drops when the sweep is complete;
  workers exit once they find no work and the sentinel is present.

A worker that dies (SIGKILL, OOM, host loss) simply stops touching its
claimed files; once a claim's mtime is older than the lease timeout,
:meth:`WorkQueue.requeue_expired` renames it back into ``pending/`` and
another worker picks it up.  Lease ages are measured against the *shared
filesystem's* clock (touch-and-stat of a probe file in the queue root), never
the coordinator's wall clock: claim mtimes are stamped by the filesystem, so
comparing them against a possibly-skewed local ``time.time()`` would re-queue
live claims (coordinator clock ahead) or never expire dead ones (behind).
Task execution is idempotent (results are persisted with atomic writes under
content-addressed names), so the rare double execution after a lease expiry
is harmless.

**Shard affinity and work stealing.**  A queue opened with ``shard_count > 0``
partitions ``pending/`` into ``pending/shard-XX/`` subdirectories; the
coordinator enqueues each task into the shard its result routes to
(:meth:`~repro.runtime.result_store.TaskKey.shard_index`), and a worker
started with a preferred shard claims from that subdirectory first, falling
back to the shared root pool (``pending/*.task``, where expired leases are
re-queued).  A preferred-shard worker that finds *nothing* claimable touches a
``hungry/shard-XX`` marker; the coordinator's :meth:`WorkQueue.rebalance`
sweep reads fresh markers and **steals** pending tasks for the starving shard
from the fullest other shard — an atomic rename within ``pending/``, so the
exactly-once claim semantics (one rename winner per task) are untouched, and
because task results are deterministic in the task identity, a stolen sweep
stays byte-identical to a serial run.  Workers with no preferred shard (the
default for hand-started ``python -m repro.runtime.worker``) scan every shard
and need no stealing.

This module also defines the transport-agnostic queue API: the
:class:`QueueTransport` protocol (coordinator + worker surface) that this
file-based queue and the TCP transport in :mod:`repro.runtime.netqueue` both
implement, and the :class:`ResultUpload` frame a transport that carries
results back to the coordinator attaches to its acks.
"""

from __future__ import annotations

import json
import os
import pickle
import re
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Protocol, runtime_checkable

from repro.errors import ExperimentError
from repro.runtime.result_store import TaskKey, atomic_write_bytes

#: Subdirectory names of the queue layout.
PENDING, CLAIMED, DONE, FAILED = "pending", "claimed", "done", "failed"

#: Directory of per-shard starvation markers (work-stealing signals).
HUNGRY = "hungry"

#: Stop sentinel file name.
STOP_SENTINEL = "stop"

#: Probe file the lease-expiry sweep touches to read the filesystem's clock.
CLOCK_PROBE = ".clock-probe"

#: How long a ``hungry/shard-XX`` marker counts as a live starvation signal.
#: Stale markers (a worker that moved on or died) must not keep attracting
#: stolen work into a shard nobody drains.
HUNGRY_TTL_S = 30.0

_TASK_ID_RE = re.compile(r"^[A-Za-z0-9._-]+$")
_SHARD_DIR_RE = re.compile(r"^shard-(\d+)$")


def shard_dir_name(shard: int) -> str:
    """Directory name of one pending shard (mirrors the result-store layout)."""
    return f"shard-{shard:02d}"


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
    it on either transport.
    """

    task_id: str
    from_shard: int
    to_shard: int


def plan_steal(candidates: dict[int, list[str]]) -> tuple[int, list[str]] | None:
    """The stealing policy, shared by both transports: pick the victim tasks
    one hungry shard should receive.

    ``candidates`` maps each *other* shard to its sorted pending task names.
    Returns ``(source shard, names to move)`` — the fullest shard (lowest
    index on ties) gives up the back half (rounded up) of its sorted order,
    furthest from the names its own worker claims next — or ``None`` when
    nothing is stealable.  Pure decision logic: the per-transport mechanics
    (atomic renames vs. locked dict moves) stay with the callers, so the two
    implementations cannot drift apart on policy.
    """
    source = max(candidates, key=lambda shard: (len(candidates[shard]), -shard), default=None)
    if source is None or not candidates[source]:
        return None
    names = candidates[source]
    return source, names[len(names) // 2:]


@dataclass(frozen=True)
class QueueStats:
    """Snapshot of the queue state (counts racy by nature, exact per directory).

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


class WorkQueue:
    """Coordinator/worker handle over one shared queue directory."""

    #: File-queue workers persist results into the shared store themselves.
    wants_results = False

    def __init__(
        self,
        root: str | os.PathLike,
        lease_timeout_s: float = 60.0,
        shard_count: int = 0,
        hungry_ttl_s: float = HUNGRY_TTL_S,
    ) -> None:
        if lease_timeout_s <= 0:
            raise ExperimentError("WorkQueue.lease_timeout_s must be positive")
        if shard_count < 0:
            raise ExperimentError("WorkQueue.shard_count must be >= 0")
        self.root = Path(root)
        self.lease_timeout_s = float(lease_timeout_s)
        self.hungry_ttl_s = float(hungry_ttl_s)
        for name in (PENDING, CLAIMED, DONE, FAILED, HUNGRY):
            (self.root / name).mkdir(parents=True, exist_ok=True)
        #: Memo of parsed done markers (file name -> worker id): markers are
        #: immutable once written, so ``worker_done_counts`` only reads files
        #: it has not seen — O(new markers) per progress poll, not O(all).
        self._done_worker_cache: dict[str, str] = {}
        # Shard subdirectories are created eagerly by the coordinator (which
        # knows the count) and *discovered* by everyone else: a worker opened
        # with shard_count=0 still claims from whatever shard-XX/ dirs exist.
        for shard in range(shard_count):
            (self._dir(PENDING) / shard_dir_name(shard)).mkdir(exist_ok=True)

    # ------------------------------------------------------------------ paths
    def _dir(self, name: str) -> Path:
        return self.root / name

    def _shard_dirs(self) -> list[tuple[int, Path]]:
        """Discover the ``pending/shard-XX/`` partitions present on disk."""
        out = []
        for path in self._dir(PENDING).iterdir():
            match = _SHARD_DIR_RE.match(path.name)
            if match is not None and path.is_dir():
                out.append((int(match.group(1)), path))
        return sorted(out)

    def _pending_shard_dir(self, shard: int) -> Path:
        if shard < 0:
            raise ExperimentError(f"queue shard must be >= 0, got {shard}")
        path = self._dir(PENDING) / shard_dir_name(shard)
        path.mkdir(exist_ok=True)
        return path

    @property
    def stop_path(self) -> Path:
        return self.root / STOP_SENTINEL

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

    # ------------------------------------------------------------------ coordinator
    def enqueue(self, task_id: str, payload: object, shard: int | None = None) -> Path:
        """Make one task claimable (atomic: a worker never sees a partial file).

        With ``shard`` given the task lands in that ``pending/shard-XX/``
        partition and is claimed preferentially by that shard's workers;
        without one it goes into the shared root pool every worker scans.
        """
        if not _TASK_ID_RE.match(task_id):
            raise ExperimentError(f"task id {task_id!r} is not filesystem-safe")
        parent = self._dir(PENDING) if shard is None else self._pending_shard_dir(shard)
        target = parent / f"{task_id}.task"
        atomic_write_bytes(target, pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL))
        return target

    def requeue_expired(self) -> list[str]:
        """Re-queue every claim whose lease heartbeat has gone stale.

        A live worker touches its claim more often than the lease timeout;
        a claim that stopped being touched belongs to a dead worker and goes
        back to pending for someone else.  Re-queued tasks land in the shared
        *root* pool, not their original shard: the shard's own worker may be
        the one that died, and the root pool is claimable by everyone.
        """
        now = self.filesystem_now()
        requeued: list[str] = []
        for path in sorted(self._dir(CLAIMED).glob("*.task")):
            try:
                age = now - path.stat().st_mtime
            except FileNotFoundError:  # acked or requeued under us
                continue
            if age <= self.lease_timeout_s:
                continue
            try:
                os.rename(path, self._dir(PENDING) / path.name)
            except FileNotFoundError:
                continue
            requeued.append(path.stem)
        return requeued

    def rebalance(self) -> list[StolenTask]:
        """Steal pending work for starving shards (the coordinator's sweep).

        For every shard with a *fresh* ``hungry/`` marker (a preferred-shard
        worker recently found nothing claimable) that is still empty, move
        half of the fullest other shard's pending tasks into it — stolen from
        the *back* of that shard's sorted order, away from the names its own
        worker claims first.  Every move is one atomic rename inside
        ``pending/``, so a task is claimable in exactly one place at any
        instant and the rename-wins claim semantics are preserved; losing a
        rename race with a concurrent claim just skips that task.
        """
        shard_dirs = dict(self._shard_dirs())
        if len(shard_dirs) < 2:
            return []
        now = self.filesystem_now()
        moved: list[StolenTask] = []
        for marker in sorted(self._dir(HUNGRY).glob("shard-*")):
            match = _SHARD_DIR_RE.match(marker.name)
            if match is None or int(match.group(1)) not in shard_dirs:
                continue
            hungry_shard = int(match.group(1))
            try:
                if now - marker.stat().st_mtime > self.hungry_ttl_s:
                    marker.unlink(missing_ok=True)  # stale signal: nobody is waiting
                    continue
            except FileNotFoundError:
                continue
            target_dir = shard_dirs[hungry_shard]
            if any(target_dir.glob("*.task")):
                marker.unlink(missing_ok=True)  # shard has work again
                continue
            plan = plan_steal({
                shard: sorted(path.name for path in directory.glob("*.task"))
                for shard, directory in shard_dirs.items()
                if shard != hungry_shard
            })
            if plan is None:
                continue  # nothing to steal; leave the marker for the next sweep
            source, names = plan
            stolen_here = 0
            for name in reversed(names):
                try:
                    os.rename(shard_dirs[source] / name, target_dir / name)
                except FileNotFoundError:
                    continue  # claimed (or stolen) out from under us
                moved.append(StolenTask(Path(name).stem, source, hungry_shard))
                stolen_here += 1
            if stolen_here:
                marker.unlink(missing_ok=True)
        return moved

    def reset(self) -> int:
        """Drop every task file, ack marker and the stop sentinel.

        A coordinator owns its queue directory: calling this before enqueueing
        reconciles a directory left behind by a crashed earlier sweep —
        orphaned pending/claimed tasks would otherwise be drained (and
        re-executed) by the new sweep's workers, and done/failed markers would
        accumulate without bound.  ``.tmp`` orphans of crashed atomic writes
        are dropped too — nothing else removes them, so a reused queue
        directory would otherwise collect them forever.  Returns the number of
        files removed.
        """
        removed = 0
        for kind, pattern in ((PENDING, "*.task"), (CLAIMED, "*.task"),
                              (DONE, "*.json"), (FAILED, "*.json"),
                              (PENDING, "*.tmp"), (CLAIMED, "*.tmp"),
                              (DONE, "*.tmp"), (FAILED, "*.tmp")):
            paths = self._dir(kind).glob(pattern)
            if kind == PENDING:  # shard partitions hold tasks (and .tmp orphans) too
                paths = list(paths) + list(self._dir(PENDING).glob(f"shard-*/{pattern}"))
            for path in paths:
                try:
                    path.unlink()
                    removed += 1
                except FileNotFoundError:  # pragma: no cover - racing leftover worker
                    continue
        for marker in self._dir(HUNGRY).glob("shard-*"):
            marker.unlink(missing_ok=True)
        self._done_worker_cache.clear()  # the markers it described are gone
        self.clear_stop()
        return removed

    def write_stop(self) -> None:
        self.stop_path.touch()

    def clear_stop(self) -> None:
        self.stop_path.unlink(missing_ok=True)

    def stop_requested(self) -> bool:
        return self.stop_path.is_file()

    # ------------------------------------------------------------------ worker
    def claim(self, worker_id: str, shard: int | None = None) -> TaskClaim | None:
        """Atomically claim one pending task, or ``None`` when nothing is claimable.

        The rename is the claim: losing the race on one candidate just moves
        on to the next.  A claim whose payload cannot be unpickled is marked
        failed instead of being executed.

        With a preferred ``shard``, candidates come from that shard's
        partition first, then the shared root pool (re-queued leases) — never
        from other shards; a fully empty scan touches the shard's ``hungry/``
        marker so the coordinator's :meth:`rebalance` steals work over.
        Without one (the default), every partition plus the root pool is
        scanned in global task-id order.
        """
        if shard is None:
            candidates = sorted(
                list(self._dir(PENDING).glob("*.task"))
                + [path for _, directory in self._shard_dirs() for path in directory.glob("*.task")],
                key=lambda path: path.name,
            )
        else:
            candidates = sorted(self._pending_shard_dir(shard).glob("*.task")) + sorted(
                self._dir(PENDING).glob("*.task")
            )
        claimed = self._claim_first(candidates, worker_id)
        if claimed is None and shard is not None:
            self._mark_hungry(shard)
        return claimed

    def _mark_hungry(self, shard: int) -> None:
        """Record a preferred-shard worker's empty scan (a steal-here signal)."""
        try:
            (self._dir(HUNGRY) / shard_dir_name(shard)).touch()
        except OSError:  # pragma: no cover - marker dir unwritable: stealing degrades
            pass

    def _claim_first(self, candidates: list[Path], worker_id: str) -> TaskClaim | None:
        for candidate in candidates:
            target = self._dir(CLAIMED) / candidate.name
            try:
                os.rename(candidate, target)
            except FileNotFoundError:
                continue  # another worker won this one; any other OSError is a
                # real filesystem problem and must surface, not hang the sweep
            try:
                os.utime(target)  # start the lease heartbeat at claim time
                payload = pickle.loads(target.read_bytes())
            except FileNotFoundError:
                continue  # requeued out from under us before we could start
            except Exception as exc:  # corrupt payload: never executable
                self._write_marker(FAILED, target.stem, worker_id, error=f"unreadable payload: {exc}")
                target.unlink(missing_ok=True)
                continue
            return TaskClaim(task_id=target.stem, path=target, payload=payload)
        return None

    def renew(self, claim: TaskClaim) -> None:
        """Refresh the claim's lease heartbeat (no-op if the claim was requeued)."""
        try:
            os.utime(claim.path)
        except FileNotFoundError:
            pass

    def ack(self, claim: TaskClaim, worker_id: str, result: ResultUpload | None = None) -> None:
        """Mark a claim as completed and release it.

        ``result`` is accepted for transport-protocol uniformity and ignored:
        file-queue workers have already written the shared result store.
        """
        self._write_marker(DONE, claim.task_id, worker_id)
        if claim.path is not None:
            claim.path.unlink(missing_ok=True)

    def fail(self, claim: TaskClaim, worker_id: str, error: str) -> None:
        """Mark a claim as failed (re-queueing is the coordinator's call: it
        retries a failed task up to ``RuntimeConfig.task_retries`` times)."""
        self._write_marker(FAILED, claim.task_id, worker_id, error=error)
        if claim.path is not None:
            claim.path.unlink(missing_ok=True)

    def discard_failure(self, task_id: str) -> bool:
        """Drop a task's failure marker (the coordinator is about to retry it)."""
        try:
            (self._dir(FAILED) / f"{task_id}.json").unlink()
            return True
        except FileNotFoundError:
            return False

    def _write_marker(self, kind: str, task_id: str, worker_id: str, error: str | None = None) -> None:
        marker = {"task_id": task_id, "worker": worker_id, "status": kind}
        if error is not None:
            marker["error"] = error
        target = self._dir(kind) / f"{task_id}.json"
        atomic_write_bytes(target, json.dumps(marker, indent=1, sort_keys=True).encode("utf-8"))

    # ------------------------------------------------------------------ inspection
    def pending_ids(self) -> set[str]:
        return {path.stem for path in self._dir(PENDING).glob("*.task")} | {
            path.stem for path in self._dir(PENDING).glob("shard-*/*.task")
        }

    def claimed_ids(self) -> set[str]:
        return {path.stem for path in self._dir(CLAIMED).glob("*.task")}

    def done_ids(self) -> set[str]:
        return {path.stem for path in self._dir(DONE).glob("*.json")}

    def failed_tasks(self) -> dict[str, str]:
        """Failed task ids mapped to their error messages."""
        out: dict[str, str] = {}
        for path in sorted(self._dir(FAILED).glob("*.json")):
            try:
                marker = json.loads(path.read_text())
            except (OSError, json.JSONDecodeError):
                marker = {}
            out[path.stem] = str(marker.get("error", "unknown error"))
        return out

    def worker_done_counts(self) -> dict[str, int]:
        """Completed-task counts per worker id (from the ack markers).

        Unlike :meth:`stats` this *does* read marker contents — but each
        marker is parsed once ever (they are immutable), so a progress poll
        costs O(markers acked since the last poll), not O(all markers).
        """
        counts: dict[str, int] = {}
        for path in self._dir(DONE).glob("*.json"):
            worker = self._done_worker_cache.get(path.name)
            if worker is None:
                try:
                    worker = str(json.loads(path.read_text()).get("worker", "unknown"))
                except (OSError, json.JSONDecodeError):  # racing writer: count it next poll
                    continue
                self._done_worker_cache[path.name] = worker
            counts[worker] = counts.get(worker, 0) + 1
        return counts

    def has_live_claims(self) -> bool:
        """Whether any claim's lease is still being heart-beaten."""
        now = self.filesystem_now()
        for path in self._dir(CLAIMED).glob("*.task"):
            try:
                if now - path.stat().st_mtime <= self.lease_timeout_s:
                    return True
            except FileNotFoundError:
                continue
        return False

    def stats(self) -> QueueStats:
        """Directory-entry counts only: the coordinator polls this every few
        hundred milliseconds, so it must never read or parse marker contents
        (``failed_tasks`` does, and stays reserved for error reporting)."""
        shard_pending = tuple(
            (shard, count)
            for shard, directory in self._shard_dirs()
            if (count := sum(1 for _ in directory.glob("*.task")))
        )
        return QueueStats(
            pending=sum(1 for _ in self._dir(PENDING).glob("*.task"))
            + sum(count for _, count in shard_pending),
            claimed=sum(1 for _ in self._dir(CLAIMED).glob("*.task")),
            done=sum(1 for _ in self._dir(DONE).glob("*.json")),
            failed=sum(1 for _ in self._dir(FAILED).glob("*.json")),
            shard_pending=shard_pending,
        )

    def wait_for_change(self, timeout_s: float) -> None:
        """Sleep the interval out: a directory does not announce its renames."""
        time.sleep(timeout_s)

    def wait_for_work(self, timeout_s: float, shard: int | None = None) -> None:
        """Sleep the interval out, as :meth:`wait_for_change` does."""
        time.sleep(timeout_s)

    def close(self) -> None:
        """Nothing to release: the file transport holds no connections."""

    def describe(self) -> str:
        return f"WorkQueue({self.root}, {self.stats().describe()})"
