"""Parallel fan-out of the (method, split, seed) experiment grid.

The paper's headline experiments sweep a grid of (method × split × seed)
combinations whose tasks are mutually independent: every task trains and
evaluates one optimizer on one split under its own seeded environment.  The
:class:`ParallelExperimentRunner` runs the grid serially or through a work
queue, and both executor kinds return the same bytes:

* **Task isolation** — every task runs against its own database view
  (:meth:`repro.storage.database.Database.with_config` shares the read-only
  table data but gives the task a private buffer pool), so no task can observe
  another task's cache state.
* **Deterministic seeding** — each task's seed is a stable digest of the task
  identity (method, split, repeat), independent of scheduling order.
* **Simulated time only** — execution latencies, planning times and the
  methods' inference and training times are all simulated
  (:mod:`repro.lqo.base`); nothing in a task result reads the host clock, so
  scheduling and thread interleaving cannot perturb it.

With a :class:`~repro.runtime.result_store.ResultStore` attached the grid is
resumable: completed tasks are skipped (PostBOUND-style ``skip_existing``) and
fresh results are persisted as they arrive.

* **Distributed execution** — ``executor_kind="distributed"`` ships each task
  as a :class:`SpecTaskPayload` of a few hundred bytes: the database's
  :class:`~repro.storage.spec.DatabaseSpec` and the workload's name, which the
  worker rebuilds — or, via its per-process
  :class:`~repro.storage.registry.DatabaseRegistry`, reuses —
  deterministically, so dispatch cost does not grow with database scale.
  The coordinator serves the queue over TCP
  (:class:`~repro.runtime.netqueue.QueueServer`, on ``RuntimeConfig.queue_url``,
  loopback on an ephemeral port by default) and forks ``workers`` workers
  from itself (:class:`ForkedWorker`), the sweep's only workers: they start
  with its imported modules and the databases of its process registry, so
  they neither import nor rebuild.  Each runs the claim/execute/ack loop
  (:func:`_worker_loop`) over the socket and uploads finished results with
  its acks, which the coordinator persists into its store.  The coordinator
  re-queues a worker's claims as soon as it reaps the worker, retries failed
  tasks up to ``task_retries`` times, and assembles grid-ordered results
  from the store once every task is acked.  While it waits, it hands
  ``progress_callback`` a progress snapshot of its queue.
"""

from __future__ import annotations

import functools
import os
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, NoReturn, Union

from repro.config import PostgresConfig, RuntimeConfig
from repro.core.experiment import ExperimentConfig, ExperimentRunner
from repro.core.metrics import MethodRunResult
from repro.core.splits import DatasetSplit
from repro.errors import ExperimentError
from repro.runtime.fingerprint import stable_seed
from repro.runtime.netqueue import NetWorkQueue, QueueServer
from repro.runtime.plan_cache import PlanCache
from repro.runtime.progress import ProgressSnapshot, next_snapshot
from repro.runtime.result_store import ResultStore, TaskKey
from repro.runtime.workqueue import BucketQueue, ResultUpload, WorkerQueueTransport, parse_queue_url
from repro.storage.database import Database
from repro.storage.registry import MAX_DATABASES, get_process_registry, resolve_database
from repro.storage.spec import DatabaseSpec
from repro.workloads import build_workload, is_registered_workload
from repro.workloads.workload import Workload

#: Longest the coordinator waits between polls of the distributed queue state
#: (``BucketQueue.wait_for_change`` returns sooner when a worker acts).
COORDINATOR_POLL_S = 0.2

#: Longest an idle worker waits on the queue between claims (the server
#: answers sooner when there is work or a stop).
WORKER_WAIT_S = 0.2

#: Orphan bound: a worker that finds no work for this long exits.  A
#: coordinator that dies takes its server with it, which its workers read as
#: a stop; this bound covers one that stops answering without dying.  A live
#: sweep never idles a worker this long.
ORPHAN_IDLE_S = 600.0


@dataclass(frozen=True)
class ExperimentTask:
    """One cell of the experiment grid."""

    method: str
    split: DatasetSplit
    repeat: int = 0
    base_seed: int = 0

    @property
    def task_seed(self) -> int:
        """Deterministic per-task seed — a stable digest of the task identity.

        Independent of grid order and scheduling, so adding or removing other
        tasks never changes this task's result.
        """
        return stable_seed(self.base_seed, self.method, self.split.name, self.repeat)

    def describe(self) -> str:
        return f"{self.method} on {self.split.name} (repeat {self.repeat})"


@dataclass(frozen=True)
class SpecTaskPayload:
    """Everything a worker process needs to run one grid cell, spec-sized.

    It names the database recipe and the workload, both of which the worker
    rebuilds deterministically.  Its pickled size is a few hundred bytes
    regardless of database scale.
    """

    spec: DatabaseSpec
    workload_name: str
    workload_fingerprint: str
    db_config: PostgresConfig
    experiment_config: ExperimentConfig
    task: ExperimentTask


#: This process's one plan cache: every task a worker runs plans through it,
#: so a cell re-plans nothing an earlier cell of the process planned.  Every
#: cache key carries the database scope, so one cache serves every spec, and
#: planning is a pure function of the key, so a hit changes no result byte.
_WORKER_PLAN_CACHE = PlanCache()


@functools.lru_cache(maxsize=MAX_DATABASES)
def _rebuilt_workload(name: str, spec: DatabaseSpec) -> Workload:
    """Workload ``name`` bound to the spec's database, rebuilt once per process."""
    return build_workload(name, get_process_registry().get(spec).schema)


def _execute_payload(payload: SpecTaskPayload) -> tuple[MethodRunResult, "ParallelExperimentRunner"]:
    """Run one payload in this process; returns the result and its runner.

    The database comes out of the process registry and the workload out of
    the process memo — both built on the first task, reused by every later
    task of the same spec.
    """
    workload = _rebuilt_workload(payload.workload_name, payload.spec)
    if workload.fingerprint() != payload.workload_fingerprint:
        # The caller's workload shares a rebuildable name but different
        # content (e.g. a hand-built subset named "job"): refusing here keeps
        # worker results from silently diverging from serial execution,
        # which uses the caller's instance.
        raise ExperimentError(
            f"worker rebuild of workload {payload.workload_name!r} does not match the "
            "dispatched workload (content fingerprint mismatch); pass the canonically "
            "built workload, give the custom one its own name, or use the serial executor"
        )
    runner = ParallelExperimentRunner(
        get_process_registry().get(payload.spec),
        workload,
        config=payload.db_config,
        experiment_config=payload.experiment_config,
    )
    runner.plan_cache = _WORKER_PLAN_CACHE
    return runner.run_task(payload.task), runner


def execute_spec_payload_with_identity(payload: SpecTaskPayload) -> tuple[MethodRunResult, TaskKey, str]:
    """The worker's entry point: run one payload and return ``(result, task
    key, context fingerprint)``.

    The worker ships all three back in its ack frame; the key and fingerprint
    come from its own deterministic rebuild, exactly what the coordinator
    loads under.
    """
    result, runner = _execute_payload(payload)
    task = payload.task
    return result, runner.task_key(task), runner.task_fingerprint(task)


def reconcile_failed_tasks(
    queue: BucketQueue,
    remaining: set[str],
    payloads: dict[str, object],
    retries_used: dict[str, int],
    task_retries: int,
) -> list[str]:
    """Apply the bounded-retry policy to this poll round's failed tasks.

    Failed tasks still within their budget are re-queued (failure discarded,
    payload enqueued again) and returned; one permanent (transient) failure
    must not abort a multi-hour sweep.  A task that has already been retried
    ``task_retries`` times raises instead, and the error reports how many
    attempts were made.
    """
    failed = {tid: msg for tid, msg in queue.failed_tasks().items() if tid in remaining}
    if not failed:
        return []
    exhausted = {
        tid: msg for tid, msg in failed.items() if retries_used.get(tid, 0) >= task_retries
    }
    if exhausted:
        task_id, message = sorted(exhausted.items())[0]
        attempts = retries_used.get(task_id, 0) + 1
        raise ExperimentError(
            f"{len(exhausted)} distributed task(s) failed permanently; first ({task_id}) "
            f"failed after {attempts} attempt(s): {message}"
        )
    retried: list[str] = []
    for task_id in sorted(failed):
        retries_used[task_id] = retries_used.get(task_id, 0) + 1
        queue.discard_failure(task_id)
        queue.enqueue(task_id, payloads[task_id])
        retried.append(task_id)
    return retried


class ForkedWorker:
    """Handle on one forked local worker, built on ``os.waitpid`` and ``os.kill``.

    It has the part of the ``Popen`` interface that callers of
    ``ParallelExperimentRunner._distributed_procs`` use: ``pid``,
    ``returncode`` (``-N`` after death by signal ``N``), :meth:`poll`,
    :meth:`wait`, :meth:`kill` and :meth:`send_signal`.  A lock makes one
    thread's poll and another's agree on the exit status.
    """

    def __init__(self, pid: int) -> None:
        self.pid = pid
        self.returncode: int | None = None
        self._lock = threading.Lock()

    def poll(self) -> int | None:
        """The exit code if the worker has exited, else ``None`` (never blocks)."""
        with self._lock:
            if self.returncode is None:
                try:
                    pid, status = os.waitpid(self.pid, os.WNOHANG)
                except ChildProcessError:  # reaped outside this handle: gone, status lost
                    pid, status = self.pid, 0
                if pid:
                    self.returncode = os.waitstatus_to_exitcode(status)
            return self.returncode

    def wait(self, timeout: float | None = None) -> int:
        """Wait for the worker to exit; raises ``subprocess.TimeoutExpired`` after ``timeout``."""
        deadline = None if timeout is None else time.monotonic() + timeout
        delay = 0.0005
        while (code := self.poll()) is None:
            if deadline is not None and time.monotonic() >= deadline:
                raise subprocess.TimeoutExpired(f"local worker {self.pid}", timeout)
            time.sleep(delay)
            delay = min(2 * delay, 0.01)
        return code

    def send_signal(self, signum: int) -> None:
        """Signal the worker; a no-op once it was reaped (its pid may be reused)."""
        if self.poll() is None:
            os.kill(self.pid, signum)

    def kill(self) -> None:
        import signal

        self.send_signal(signal.SIGKILL)


def _close_fds(fds: list[int]) -> None:
    """Close and forget every descriptor in ``fds``."""
    while fds:
        os.close(fds.pop())


def _worker_id(index: int) -> str:
    """The queue identity of forked worker ``index``."""
    return f"local-{index}"


def _worker_loop(
    queue: WorkerQueueTransport,
    worker_id: str,
    execute: Callable[..., tuple[MethodRunResult, TaskKey, str | None]],
) -> int:
    """Claim, ``execute`` (payload -> result, key, fingerprint) and ack until
    the stop is written, the coordinator is unreachable or ``ORPHAN_IDLE_S``
    pass without work; returns the number of tasks completed."""
    completed = 0
    idle_since = time.monotonic()
    while True:
        claim = queue.claim(worker_id)
        if claim is None:
            if queue.stop_requested() or time.monotonic() - idle_since > ORPHAN_IDLE_S:
                return completed
            queue.wait_for_work(WORKER_WAIT_S)
            continue
        idle_since = time.monotonic()
        try:
            result, key, fingerprint = execute(claim.payload)
            upload = ResultUpload(key=key, fingerprint=fingerprint, result=result.to_dict())
        except Exception as exc:
            queue.fail(claim, worker_id, f"{type(exc).__name__}: {exc}")
            print(f"[{worker_id}] FAILED {claim.task_id}: {exc}", file=sys.stderr, flush=True)
            continue
        try:
            queue.ack(claim, worker_id, upload)
        except Exception as exc:
            # The coordinator rejected the ack (e.g. its result store is
            # unwritable).  Dying here would take every worker down one by one
            # with a misleading "all workers exited" sweep error; a failure
            # report carries the real cause to the coordinator instead, whose
            # retry budget turns a persistent rejection into a sweep abort.
            try:
                queue.fail(claim, worker_id, f"ack rejected: {type(exc).__name__}: {exc}")
            except Exception:  # pragma: no cover - transport also down
                pass
            print(f"[{worker_id}] ACK REJECTED {claim.task_id}: {exc}", file=sys.stderr, flush=True)
            continue
        completed += 1
        print(f"[{worker_id}] completed {claim.task_id}", flush=True)


def _run_forked_worker(
    url_fd: int,
    parent_fds: list[int],
    index: int,
    log_path: Path,
    secret: str,
) -> NoReturn:
    """The body of a forked worker; it ends the process, never returns.

    It closes the url pipes of its siblings (their EOF is the coordinator's
    alone), writes its output to ``log_path``, reads the queue url from
    ``url_fd`` and runs :func:`_worker_loop` keyed with the sweep's
    ``secret`` (``""``: authentication off).  EOF before any url means the
    coordinator gave up before its queue served: exit without connecting.
    ``os._exit`` skips the coordinator's ``atexit`` hooks and ``finally``
    blocks, which are not this process's to run: 0 after the loop, 1 after
    a traceback in the log.
    """
    code = 1
    try:
        for fd in parent_fds:
            os.close(fd)
        log = os.open(log_path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
        os.dup2(log, 1)
        os.dup2(log, 2)
        os.close(log)
        # Fresh streams on the log: the inherited ones may be a test
        # harness's capture objects, or hold a buffer lock of another thread.
        sys.stdout = open(1, "w", buffering=1, encoding="utf-8", closefd=False)
        sys.stderr = open(2, "w", buffering=1, encoding="utf-8", closefd=False)
        with open(url_fd, "rb") as pipe:
            url = pipe.read().decode()
        if url:
            worker_id = _worker_id(index)
            with NetWorkQueue(url, secret=secret) as queue:  # leaving the block closes the client
                completed = _worker_loop(queue, worker_id, execute_spec_payload_with_identity)
            print(f"[{worker_id}] exiting after {completed} task(s)", flush=True)
        code = 0
    except BaseException:
        import traceback

        traceback.print_exc()
        raise  # into the finally below, which ends the process with code 1
    finally:
        try:
            sys.stdout.flush()
            sys.stderr.flush()
        finally:
            os._exit(code)


class ParallelExperimentRunner:
    """Runs the experiment grid concurrently with serial-identical results.

    ``progress_callback`` runs on the coordinator's thread, inside the loop
    that waits for a distributed sweep's acks: a slow callback delays the
    re-queue of a dead worker's claims and the retry of failed tasks.
    """

    def __init__(
        self,
        database: Union[Database, DatabaseSpec],
        workload: Workload,
        config: PostgresConfig | None = None,
        experiment_config: ExperimentConfig | None = None,
        runtime_config: RuntimeConfig | None = None,
        result_store: ResultStore | None = None,
        progress_callback: "Callable[[ProgressSnapshot], None] | None" = None,
    ) -> None:
        #: The dispatchable recipe: either the spec passed in, or the one the
        #: database carries from its factory build.  ``None`` means the
        #: database cannot be rebuilt in a worker (serial executor only).
        self.database_spec = database if isinstance(database, DatabaseSpec) else database.spec
        self.database = resolve_database(database)
        self.workload = workload
        self.db_config = config or self.database.config
        self.experiment_config = experiment_config or ExperimentConfig()
        self.runtime_config = config = runtime_config or RuntimeConfig()
        if result_store is None and config.store_dir is not None:
            result_store = ResultStore(config.store_dir, shard_count=config.shard_count)
        self.result_store = result_store
        #: The one plan cache every task this runner runs in-process plans
        #: through.  Assigning a ``PlanCache(0)`` disables caching (``put()``
        #: is a no-op).
        self.plan_cache = PlanCache()
        #: Called with every :class:`ProgressSnapshot` a distributed sweep
        #: takes (periodic plus the final end-of-sweep snapshot).
        self.progress_callback = progress_callback
        #: Forked worker processes of the most recent distributed sweep
        #: (observability: lets callers and the crash-recovery demo reach them).
        self._distributed_procs: list[ForkedWorker] = []
        #: Number of claims the most recent distributed sweep re-queued
        #: because no live forked worker held them.
        self._distributed_requeued = 0
        #: Tasks the most recent distributed sweep put into the shared pending
        #: pool, where any worker takes them (perfbench reports it as
        #: ``runtime.stolen_tasks``).
        self._distributed_stolen = 0
        #: Coordinator-side queue server of the most recent distributed
        #: sweep (observability: its url and live ``stats()``).
        self._distributed_queue: QueueServer | None = None

    # ------------------------------------------------------------------ grid
    def tasks_for(
        self,
        methods: tuple[str, ...] | list[str],
        splits: list[DatasetSplit] | tuple[DatasetSplit, ...],
        repeats: int = 1,
    ) -> list[ExperimentTask]:
        """Expand the (method × split × repeat) grid in deterministic order."""
        if repeats < 1:
            raise ExperimentError("experiment grid needs at least one repeat")
        return [
            ExperimentTask(
                method=method,
                split=split,
                repeat=repeat,
                base_seed=self.experiment_config.seed,
            )
            for repeat in range(repeats)
            for split in splits
            for method in methods
        ]

    # ------------------------------------------------------------------ one task
    def _task_runner(self, task: ExperimentTask) -> ExperimentRunner:
        """A pristine serial runner for one task.

        ``with_config`` shares the immutable table data, indexes and
        statistics but allocates a fresh, empty buffer pool — the task starts
        cold regardless of what other tasks (or earlier grids) executed.  The
        plan cache is the runner's: what the task plans does not depend on
        what is cached, only how fast it plans.
        """
        task_db = self.database.with_config(self.db_config)
        return ExperimentRunner(
            task_db,
            self.workload,
            config=self.db_config,
            experiment_config=self.experiment_config.with_seed(task.task_seed),
            plan_cache=self.plan_cache,
        )

    def run_task(self, task: ExperimentTask) -> MethodRunResult:
        """Execute one grid cell in isolation (no store interaction)."""
        return self._task_runner(task).run_method(task.method, task.split)

    def task_key(self, task: ExperimentTask) -> TaskKey:
        return TaskKey(
            workload=self.workload.name,
            split_name=task.split.name,
            method=task.method,
            seed=task.task_seed,
        )

    def task_fingerprint(self, task: ExperimentTask) -> str:
        """The store fingerprint of one task (context + split membership)."""
        return self._task_runner(task).task_fingerprint(task.split)

    def _run_or_resume(self, task: ExperimentTask) -> MethodRunResult:
        if self.result_store is None:
            return self.run_task(task)
        # One runner serves both the fingerprint and the (possibly skipped)
        # execution — building a second one per task would double the
        # database-view and plan-cache setup cost.
        runner = self._task_runner(task)
        result, _ = self.result_store.load_or_run(
            self.task_key(task),
            lambda: runner.run_method(task.method, task.split),
            runner.task_fingerprint(task.split),
        )
        return result

    # ------------------------------------------------------------------ fan-out
    def run_grid(
        self,
        methods: tuple[str, ...] | list[str],
        splits: list[DatasetSplit] | tuple[DatasetSplit, ...],
        repeats: int = 1,
    ) -> list[MethodRunResult]:
        """Run every grid cell; results are returned in grid order.

        The output list is ordered by (repeat, split, method) regardless of
        completion order, so downstream reporting is scheduling-independent.
        """
        tasks = self.tasks_for(methods, splits, repeats)
        return self.run_tasks(tasks)

    # ------------------------------------------------------------------ spec dispatch
    @property
    def uses_spec_dispatch(self) -> bool:
        """Whether tasks can ship as spec payloads (what distributed execution needs).

        Requires a database spec (factory-built database or spec passed to the
        constructor) and a workload rebuildable by name in the worker.
        """
        return self.database_spec is not None and is_registered_workload(self.workload.name)

    def spec_payload(self, task: ExperimentTask) -> SpecTaskPayload:
        """The scale-independent dispatch payload of one grid cell."""
        if not self.uses_spec_dispatch:
            raise ExperimentError(
                "spec dispatch unavailable: the database carries no DatabaseSpec "
                "or the workload cannot be rebuilt by name"
            )
        return SpecTaskPayload(
            spec=self.database_spec,
            workload_name=self.workload.name,
            workload_fingerprint=self.workload.fingerprint(),
            db_config=self.db_config,
            experiment_config=self.experiment_config,
            task=task,
        )

    def run_tasks(self, tasks: list[ExperimentTask]) -> list[MethodRunResult]:
        if self.runtime_config.executor_kind == "distributed":
            return self._run_distributed(tasks)
        return [self._run_or_resume(task) for task in tasks]

    # ------------------------------------------------------------------ distributed
    def _run_distributed(self, tasks: list[ExperimentTask]) -> list[MethodRunResult]:
        """Coordinate one sweep over the TCP work queue.

        Pending tasks (not already in the store) become claimable payloads,
        ``workers`` workers are forked, and the coordinator polls the queue —
        re-queuing the claims of reaped workers and retrying failed tasks
        within ``task_retries`` — until every enqueued task is acked.
        Results are then assembled from the store in grid order, so the
        output is identical to every other executor kind.
        """
        if not tasks:
            return []
        if not self.uses_spec_dispatch:
            raise ExperimentError(
                "distributed execution requires spec dispatch: build the database "
                "through the catalog factories (or pass a DatabaseSpec) and use a "
                "workload rebuildable by name (repro.workloads.WORKLOADS)"
            )
        store = self.result_store
        if store is None:
            raise ExperimentError(
                "distributed execution requires a result store (set RuntimeConfig.store_dir: "
                "the coordinator persists the workers' uploaded results there)"
            )
        config = self.runtime_config
        address = parse_queue_url(config.queue_url)
        # Never an unauthenticated pickle port: without a configured secret
        # the sweep mints its own, which the forked workers inherit in
        # memory.  Only an explicit "" turns it off.
        secret = config.queue_secret if config.queue_secret is not None else os.urandom(32).hex()
        log_dir = store.root / "worker-logs"
        self._distributed_queue = None
        self._distributed_requeued = 0
        procs: list[ForkedWorker] = []
        self._distributed_procs = procs
        keyed = [(task, self.task_key(task), self.task_fingerprint(task)) for task in tasks]
        # A sweep-unique id prefix: a straggler of an earlier sweep served on
        # the same port cannot ack one of this sweep's tasks.
        sweep_id = os.urandom(4).hex()
        payloads: dict[str, SpecTaskPayload] = {
            # Ids sort in grid order, the order workers claim them in.
            f"{sweep_id}-{index:04d}": self.spec_payload(task)
            for index, (task, key, fingerprint) in enumerate(keyed)
            # Resume: a stored task never hits the queue.
            if not (store.skip_existing and store.exists(key, fingerprint))
        }
        self._distributed_stolen = len(payloads)
        queue: QueueServer | None = None
        url_fds: list[int] = []  # write ends of the local workers' url pipes
        report_progress: Callable[[], None] | None = None
        try:
            workers = min(config.workers, len(payloads))
            if workers and get_process_registry().contains(self.database_spec):
                # Bound once here, the workload reaches every fork with the database.
                _rebuilt_workload(self.workload.name, self.database_spec)
            # Fork before the queue server exists: its accept thread is not
            # running yet, so the coordinator has no thread of its own at the
            # fork.  The children wait on their pipes for the url.
            for index in range(workers):
                proc, url_fd = self._spawn_worker(index, log_dir, secret, url_fds)
                procs.append(proc)
                url_fds.append(url_fd)
            queue = QueueServer(host=address.host, port=address.port, result_store=store, secret=secret)
            self._distributed_queue = queue
            for task_id, payload in payloads.items():
                queue.enqueue(task_id, payload)
            for url_fd in url_fds:
                try:
                    os.write(url_fd, queue.url.encode())
                except BrokenPipeError:
                    pass  # that worker already died: the wait below reports it
            _close_fds(url_fds)
            if self.progress_callback is not None:
                report_progress = self._progress_reporter(queue, len(payloads), self.progress_callback)
            self._await_queue(queue, payloads, procs, log_dir, report_progress)
        finally:
            # EOF on a pipe not yet written: that worker exits without connecting.
            _close_fds(url_fds)
            if queue is not None:
                queue.write_stop()
            for proc in procs:
                try:
                    proc.wait(timeout=60)
                except subprocess.TimeoutExpired:  # pragma: no cover - defensive
                    proc.kill()
                    proc.wait()
            if queue is not None:
                # After every worker exited: one that held a claim at the stop
                # still acked it.
                queue.close()
            if report_progress is not None:
                # The end-of-sweep snapshot, on success and on failure, also of
                # a fully resumed sweep.  The closed server still answers in
                # process, and no worker is left running if the callback raises.
                report_progress()
        return [store.load(key, fingerprint) for _, key, fingerprint in keyed]

    @staticmethod
    def _progress_reporter(
        queue: QueueServer, total: int, callback: Callable[[ProgressSnapshot], None]
    ) -> Callable[[], None]:
        """A closure that hands ``callback`` the sweep's next snapshot, read
        in process with no queue lock held while it runs.  ``elapsed_s``
        counts from this call, made once the last local worker was spawned."""
        started_at = time.monotonic()
        previous: ProgressSnapshot | None = None

        def report() -> None:
            nonlocal previous
            # Counts first: the stats read after them never show fewer done.
            workers = queue.worker_done_counts()
            previous = next_snapshot(
                queue.stats(), workers, total, time.monotonic() - started_at, previous
            )
            callback(previous)

        return report

    def _await_queue(
        self,
        queue: QueueServer,
        payloads: dict[str, SpecTaskPayload],
        procs: list[ForkedWorker],
        log_dir: Path,
        report_progress: Callable[[], None] | None,
    ) -> None:
        """Wait until every task in ``payloads`` is acked, calling
        ``report_progress`` every ``progress_interval_s`` seconds (if set).

        Each round re-queues every claim not held by a live forked worker:
        a reaped worker's at once, and one under any other id too.  A wait
        between rounds ends on an ack or a failure, after
        ``COORDINATOR_POLL_S``, or when the next snapshot is due.
        """
        # Snapshots fall due only with both a reporter and an interval; with
        # either missing ``due`` stays infinite and every wait is the poll bound.
        interval = (report_progress and self.runtime_config.progress_interval_s) or float("inf")
        due = time.monotonic() + interval
        remaining = set(payloads)
        retries_used: dict[str, int] = {}
        while remaining:
            # The workers before the queue: every ack of a worker seen
            # exited here is already among the done ids read next.
            live = {_worker_id(index) for index, proc in enumerate(procs) if proc.poll() is None}
            remaining -= queue.done_ids()
            if not remaining:
                return
            reconcile_failed_tasks(
                queue, remaining, payloads, retries_used, self.runtime_config.task_retries
            )
            self._distributed_requeued += len(queue.requeue_orphaned(live))
            if procs and not live:
                # Every worker exited: the sweep can never finish, so surface
                # it instead of polling forever.
                codes = [proc.returncode for proc in procs]
                raise ExperimentError(
                    f"all {len(procs)} local distributed workers exited (return codes "
                    f"{codes}) with {len(remaining)} task(s) unfinished; worker logs are "
                    f"under {log_dir}"
                )
            now = time.monotonic()
            if now >= due:
                assert report_progress is not None  # a finite due implies a reporter
                report_progress()
                now = time.monotonic()
                due = now + interval
            queue.wait_for_change(min(COORDINATOR_POLL_S, due - now))

    @staticmethod
    def _spawn_worker(
        index: int, log_dir: Path, secret: str, parent_fds: list[int]
    ) -> tuple[ForkedWorker, int]:
        """Fork queue worker ``index``; returns its handle and the write end
        of the pipe it reads the queue's url from.

        The child runs :func:`_run_forked_worker` and logs to
        ``log_dir/local-{index}.log``.  ``parent_fds`` are the pipe ends of
        the workers forked before it, which the child closes.  ``secret``
        reaches the child in the memory it inherits: never argv, never a
        file, never the environment.
        """
        log_dir.mkdir(parents=True, exist_ok=True)
        log_path = log_dir / f"{_worker_id(index)}.log"
        url_fd, write_fd = os.pipe()
        child_closes = [*parent_fds, write_fd]
        # Unflushed output would otherwise be written twice, once by each process.
        sys.stdout.flush()
        sys.stderr.flush()
        try:
            pid = os.fork()
        except BaseException:
            _close_fds([url_fd, write_fd])
            raise
        if pid == 0:
            _run_forked_worker(url_fd, child_closes, index, log_path, secret)
        os.close(url_fd)
        return ForkedWorker(pid), write_fd

    # ------------------------------------------------------------------ parity
    def run_comparison(
        self,
        methods: tuple[str, ...] | list[str],
        splits: list[DatasetSplit] | tuple[DatasetSplit, ...],
    ) -> list[MethodRunResult]:
        """Every method on every split, splits outermost (the Figure 4/5 grid)."""
        return self.run_grid(methods, list(splits))
