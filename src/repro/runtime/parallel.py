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
  With the default file transport
  (:class:`~repro.runtime.workqueue.WorkQueue`) the coordinator enqueues
  claimable task files, launches ``workers`` local worker processes
  (``python -m repro.runtime.worker``), and any number of additional workers
  on other hosts sharing the store's filesystem can drain the same queue,
  persisting results into the shared (typically sharded) result store.  With
  ``RuntimeConfig.queue_url = "tcp://host:port"`` the coordinator instead
  serves the queue over a socket (:class:`~repro.runtime.netqueue.QueueServer`)
  and workers need no filesystem in common with it: they claim over TCP and
  upload finished results back with their acks, which the coordinator persists
  into its local store.  Either way, dead workers' claims are re-queued after
  a lease timeout, failed tasks are retried up to ``task_retries`` times, and
  the coordinator assembles grid-ordered results from the store once every
  task is acked.
"""

from __future__ import annotations

import os
import subprocess
import sys
import threading
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Union

from repro.config import PostgresConfig, RuntimeConfig
from repro.core.experiment import ExperimentConfig, ExperimentRunner
from repro.core.metrics import MethodRunResult
from repro.core.splits import DatasetSplit
from repro.errors import ExperimentError
from repro.runtime.fingerprint import stable_seed
from repro.runtime.plan_cache import PlanCache
from repro.runtime.progress import DEFAULT_PROGRESS_INTERVAL_S, ProgressSnapshot, SweepProgress
from repro.runtime.result_store import ResultStore, TaskKey
from repro.runtime.workqueue import QueueAddress, QueueTransport, WorkQueue, parse_queue_url
from repro.storage.database import Database
from repro.storage.registry import get_process_registry, resolve_database
from repro.storage.spec import DatabaseSpec
from repro.workloads import build_workload, is_registered_workload
from repro.workloads.workload import Workload

#: Longest the coordinator waits between polls of the distributed queue state
#: (``QueueTransport.wait_for_change`` returns sooner when a worker acts).
COORDINATOR_POLL_S = 0.2


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
    plan_cache_entries: int
    store_root: str | None
    skip_existing: bool
    task: ExperimentTask
    #: Shard count of the result store at ``store_root``; ``0`` means the flat
    #: single-directory layout.  Part of the payload so a remote worker opens
    #: the store with the same routing as every other writer.
    store_shards: int = 0


#: Per-process memo of worker-rebuilt workloads, keyed by (workload name,
#: database-spec fingerprint): an N-task grid rebinds the workload once per
#: worker process instead of once per task, mirroring the database registry.
_WORKER_WORKLOADS: dict[tuple[str, str], Workload] = {}
#: Per-process plan caches, keyed by (database-spec fingerprint, capacity):
#: every task a worker runs on one database plans through one cache, so a
#: cell re-plans nothing an earlier cell of the process planned.  Planning is
#: a pure function of the cache key, so a hit changes no result byte.
_WORKER_PLAN_CACHES: dict[tuple[str, int], PlanCache] = {}
_WORKER_LOCK = threading.Lock()
#: Entries either memo holds before it starts over.
_WORKER_MEMO_MAX = 32


def _worker_plan_cache(payload: SpecTaskPayload) -> PlanCache:
    """This process's plan cache for the payload's database."""
    key = (payload.spec.fingerprint(), payload.plan_cache_entries)
    with _WORKER_LOCK:
        cache = _WORKER_PLAN_CACHES.get(key)
        if cache is None:
            if len(_WORKER_PLAN_CACHES) >= _WORKER_MEMO_MAX:
                _WORKER_PLAN_CACHES.clear()
            cache = _WORKER_PLAN_CACHES[key] = PlanCache(payload.plan_cache_entries)
        return cache


def _worker_workload(payload: SpecTaskPayload, database: Database) -> Workload:
    """Rebuild (or reuse) and validate the payload's workload in this process."""
    key = (payload.workload_name, payload.spec.fingerprint())
    with _WORKER_LOCK:
        workload = _WORKER_WORKLOADS.get(key)
    if workload is None:
        workload = build_workload(payload.workload_name, database.schema)
        with _WORKER_LOCK:
            if len(_WORKER_WORKLOADS) >= _WORKER_MEMO_MAX:
                _WORKER_WORKLOADS.clear()
            workload = _WORKER_WORKLOADS.setdefault(key, workload)
    if workload.fingerprint() != payload.workload_fingerprint:
        # The caller's workload shares a registered name but different
        # content (e.g. a hand-built subset named "job"): refusing here keeps
        # worker results from silently diverging from serial execution,
        # which uses the caller's instance.
        raise ExperimentError(
            f"worker rebuild of workload {payload.workload_name!r} does not match the "
            "dispatched workload (content fingerprint mismatch); pass the canonically "
            "built workload, register the custom one under its own name, or use the "
            "serial executor"
        )
    return workload


def _execute_payload(payload: SpecTaskPayload) -> tuple[MethodRunResult, "ParallelExperimentRunner"]:
    """Run one payload in this process; returns the result and its runner."""
    database = get_process_registry().get(payload.spec)
    workload = _worker_workload(payload, database)
    # The store opens with the coordinator's layout (its manifest checks that).
    store = (
        None if payload.store_root is None
        else ResultStore(payload.store_root, payload.skip_existing, payload.store_shards)
    )
    runner = ParallelExperimentRunner(
        database,
        workload,
        config=payload.db_config,
        experiment_config=payload.experiment_config,
        runtime_config=RuntimeConfig(
            workers=1,
            executor_kind="serial",
            plan_cache_entries=payload.plan_cache_entries,
        ),
        result_store=store,
    )
    runner.plan_cache = _worker_plan_cache(payload)
    return runner._run_or_resume(payload.task), runner


def execute_spec_payload(payload: SpecTaskPayload) -> MethodRunResult:
    """Worker-side entry point of spec-based dispatch.

    The database comes out of the worker's process registry — built once on
    the first task, reused by every later task of the same spec.  The
    workload is likewise rebuilt once per process and reused.  Every queue
    worker funnels through this function, which runs the same
    :meth:`ParallelExperimentRunner._run_or_resume` as the in-process
    executors.
    """
    result, _ = _execute_payload(payload)
    return result


def execute_spec_payload_with_identity(payload: SpecTaskPayload) -> tuple[MethodRunResult, TaskKey, str]:
    """Run one payload and return ``(result, task key, context fingerprint)``.

    Used by queue transports that upload results to the coordinator
    (``wants_results``): the worker computes the key and fingerprint from its
    own deterministic rebuild — exactly the values a shared-store worker would
    save under — and ships all three back in the ack frame.
    """
    result, runner = _execute_payload(payload)
    task = payload.task
    return result, runner.task_key(task), runner.task_fingerprint(task)


def reconcile_failed_tasks(
    queue: QueueTransport,
    remaining: set[str],
    payloads: dict[str, object],
    retries_used: dict[str, int],
    task_retries: int,
) -> list[str]:
    """Apply the bounded-retry policy to this poll round's failure markers.

    Failed tasks still within their budget are re-queued (marker discarded,
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


class ParallelExperimentRunner:
    """Runs the experiment grid concurrently with serial-identical results."""

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
        #: database cannot be rebuilt remotely (serial executor only).
        self.database_spec = database if isinstance(database, DatabaseSpec) else database.spec
        self.database = resolve_database(database)
        self.workload = workload
        self.db_config = config or self.database.config
        self.experiment_config = experiment_config or ExperimentConfig()
        self.runtime_config = config = runtime_config or RuntimeConfig()
        if result_store is None and config.store_dir is not None:
            result_store = ResultStore(config.store_dir, config.skip_existing, config.shard_count)
        self.result_store = result_store
        #: The one plan cache every task this runner runs in-process plans
        #: through.  A zero capacity genuinely disables caching (``put()`` is
        #: a no-op); ``None`` would fall back to one default cache per planner.
        self.plan_cache = PlanCache(self.runtime_config.plan_cache_entries)
        #: Called with every :class:`ProgressSnapshot` a distributed sweep's
        #: reporter takes (periodic plus the final end-of-sweep snapshot).
        self.progress_callback = progress_callback
        #: Local worker processes of the most recent distributed sweep
        #: (observability: lets callers and the crash-recovery demo reach them).
        self._distributed_procs: list[subprocess.Popen] = []
        #: Number of expired claims the most recent distributed sweep re-queued.
        self._distributed_requeued = 0
        #: Tasks the most recent distributed sweep put into the shared pending
        #: pool, where any worker takes them (perfbench reports it as
        #: ``runtime.stolen_tasks``).
        self._distributed_stolen = 0
        #: Coordinator-side queue transport of the most recent distributed
        #: sweep (observability: live ``stats()`` for progress reporting).
        self._distributed_queue: QueueTransport | None = None
        #: Progress reporter of the most recent distributed sweep (``None``
        #: until one runs with progress enabled); ``.snapshots`` is the
        #: telemetry history, ``.latest`` the end-of-sweep snapshot.
        self._distributed_progress: SweepProgress | None = None

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
                "or the workload is not registered for rebuilding"
            )
        store = self.result_store
        return SpecTaskPayload(
            spec=self.database_spec,
            workload_name=self.workload.name,
            workload_fingerprint=self.workload.fingerprint(),
            db_config=self.db_config,
            experiment_config=self.experiment_config,
            plan_cache_entries=self.runtime_config.plan_cache_entries,
            store_root=str(store.root) if store is not None else None,
            skip_existing=store.skip_existing if store else True,
            task=task,
            store_shards=store.shard_count if store else 0,
        )

    def run_tasks(self, tasks: list[ExperimentTask]) -> list[MethodRunResult]:
        if self.runtime_config.executor_kind == "distributed":
            return self._run_distributed(tasks)
        return [self._run_or_resume(task) for task in tasks]

    # ------------------------------------------------------------------ distributed
    def _open_coordinator_queue(
        self, store: ResultStore
    ) -> tuple[QueueTransport, str, Path, bool]:
        """Open the coordinator-side transport named by the runtime config.

        Returns ``(queue, worker_target, log_dir, detached)``: the transport,
        the address string handed to spawned workers, where local worker logs
        go, and whether payloads must be *detached* from the coordinator's
        filesystem (TCP transport: workers upload results instead of writing a
        shared store).
        """
        config = self.runtime_config
        if config.queue_url is not None:
            address = parse_queue_url(config.queue_url)
        else:
            address = QueueAddress(scheme="file")
        if address.scheme == "tcp":
            # Imported lazily: file-transport sweeps never need the server.
            from repro.runtime.netqueue import QueueServer

            server = QueueServer(
                host=address.host or "127.0.0.1",
                port=address.port or 0,
                lease_timeout_s=config.lease_timeout_s,
                result_store=store,
                secret=config.queue_secret,  # None falls back to REPRO_QUEUE_SECRET
            )
            return server, server.url, store.root / "worker-logs", True
        queue_root = Path(address.path) if address.path is not None else store.root / "queue"
        queue = WorkQueue(queue_root, lease_timeout_s=config.lease_timeout_s)
        return queue, str(queue_root), queue_root / "workers", False

    def _run_distributed(self, tasks: list[ExperimentTask]) -> list[MethodRunResult]:
        """Coordinate one sweep over the work queue (file or TCP transport).

        Pending tasks (not already in the store) are enqueued as claimable
        payloads, ``workers`` local worker processes are launched, and the
        coordinator polls the queue — re-queuing expired leases of dead
        workers and retrying failed tasks within ``task_retries`` — until
        every enqueued task is acked.  Results are then assembled from the
        store in grid order, so the output is identical to every other
        executor kind.
        """
        if not tasks:
            return []
        if not self.uses_spec_dispatch:
            raise ExperimentError(
                "distributed execution requires spec dispatch: build the database "
                "through the catalog factories (or pass a DatabaseSpec) and use a "
                "workload registered for rebuilding"
            )
        store = self.result_store
        if store is None:
            raise ExperimentError(
                "distributed execution requires a result store (set RuntimeConfig.store_dir; "
                "with the file queue the workers must share its filesystem, with a tcp:// "
                "queue_url it is coordinator-local)"
            )
        config = self.runtime_config
        queue, worker_target, log_dir, detached = self._open_coordinator_queue(store)
        self._distributed_queue = queue
        self._distributed_requeued = 0
        self._distributed_stolen = 0
        self._distributed_progress = None
        procs: list[subprocess.Popen] = []
        reporter: SweepProgress | None = None
        try:
            # The coordinator owns the queue: drop whatever a crashed earlier
            # sweep left behind (orphan tasks would be pointlessly re-executed;
            # stale ack markers and .tmp orphans accumulate forever).  Results
            # are unaffected — they live in the store, and completed tasks are
            # skipped below before anything is enqueued.
            queue.reset()

            keyed = [(task, self.task_key(task), self.task_fingerprint(task)) for task in tasks]
            # A sweep-unique id prefix keeps this run's ack markers apart from
            # any earlier sweep that used the same queue directory.
            sweep_id = os.urandom(4).hex()
            payloads: dict[str, SpecTaskPayload] = {}
            for index, (task, key, fingerprint) in enumerate(keyed):
                if store.skip_existing and store.exists(key, fingerprint):
                    continue  # resume: already stored, never hits the queue
                payload = self.spec_payload(task)
                if detached:
                    # TCP workers share no filesystem with the coordinator:
                    # strip the store paths so they never try to open (and
                    # create) a store of their own — the transport carries the
                    # result back instead.
                    payload = replace(payload, store_root=None, store_shards=0)
                # Ids sort in grid order, the order workers claim them in.
                task_id = f"{sweep_id}-{index:04d}"
                payloads[task_id] = payload
                queue.enqueue(task_id, payload)
            self._distributed_stolen = len(payloads)

            procs = [
                self._spawn_worker(
                    worker_target, index, config.lease_timeout_s, log_dir, secret=config.queue_secret
                )
                for index in range(min(config.workers, len(payloads)))
            ]
            self._distributed_procs = procs
            if config.progress_interval_s is not None or self.progress_callback is not None:
                reporter = SweepProgress(
                    queue,
                    total=len(payloads),
                    interval_s=config.progress_interval_s or DEFAULT_PROGRESS_INTERVAL_S,
                    callback=self.progress_callback,
                )
                self._distributed_progress = reporter
                if payloads and config.progress_interval_s is not None:
                    # None means no *periodic* polling (as documented on
                    # RuntimeConfig): a callback alone still receives the
                    # final end-of-sweep snapshot below.  A fully-resumed
                    # sweep (nothing enqueued) skips the thread too but still
                    # emits its final done==total==0 completion snapshot.
                    reporter.start()
            self._await_queue(queue, payloads, procs, log_dir)
        finally:
            if reporter is not None:
                reporter.stop()
            queue.write_stop()
            for proc in procs:
                try:
                    proc.wait(timeout=60)
                except subprocess.TimeoutExpired:  # pragma: no cover - defensive
                    proc.kill()
                    proc.wait()
            # Close only after every local worker exited: remote workers that
            # poll a vanished TCP server treat it as a stop request anyway.
            queue.close()
            if reporter is not None:
                # The end-of-sweep snapshot: even a sweep shorter than the
                # interval emits at least one complete observation.  Both
                # transports still answer ``stats()`` in process once closed,
                # and no worker is left running if the callback raises.
                reporter.poll_or_skip()
        return [store.load(key, fingerprint) for _, key, fingerprint in keyed]

    def _await_queue(
        self,
        queue: QueueTransport,
        payloads: dict[str, SpecTaskPayload],
        procs: list[subprocess.Popen],
        log_dir: Path,
    ) -> None:
        remaining = set(payloads)
        retries_used: dict[str, int] = {}
        while remaining:
            remaining -= queue.done_ids()
            if not remaining:
                return
            reconcile_failed_tasks(
                queue, remaining, payloads, retries_used, self.runtime_config.task_retries
            )
            self._distributed_requeued += len(queue.requeue_expired())
            if (
                procs
                and all(proc.poll() is not None for proc in procs)
                and not queue.has_live_claims()
            ):
                # Every local worker exited and nobody (local or remote) holds
                # a live lease: without intervention the sweep can never
                # finish, so surface it instead of polling forever.
                codes = [proc.returncode for proc in procs]
                raise ExperimentError(
                    f"all {len(procs)} local distributed workers exited (return codes "
                    f"{codes}) with {len(remaining)} task(s) unfinished; worker logs are "
                    f"under {log_dir}"
                )
            queue.wait_for_change(COORDINATOR_POLL_S)

    @staticmethod
    def _spawn_worker(
        target: str | os.PathLike,
        index: int,
        lease_timeout_s: float,
        log_dir: Path | None = None,
        secret: str | None = None,
    ) -> subprocess.Popen:
        """Launch one local queue worker against a queue directory or tcp:// url.

        ``secret`` is exported as ``REPRO_QUEUE_SECRET`` — environment, never
        argv, so it cannot leak through a process listing.
        """
        target_text = str(target)
        if log_dir is None:
            address = parse_queue_url(target_text)
            if address.scheme != "file":
                raise ExperimentError(
                    "_spawn_worker needs an explicit log_dir for network transports"
                )
            log_dir = Path(address.path) / "workers"
        source_root = Path(__file__).resolve().parents[2]
        env = dict(os.environ)
        existing = env.get("PYTHONPATH")
        env["PYTHONPATH"] = str(source_root) + (os.pathsep + existing if existing else "")
        if secret is not None:
            env["REPRO_QUEUE_SECRET"] = secret
        log_dir.mkdir(parents=True, exist_ok=True)
        command = [
            sys.executable,
            "-m",
            "repro.runtime.worker",
            target_text,
            "--worker-id",
            f"local-{index}",
            "--lease-renew",
            # Heartbeat several times per lease so a live-but-slow worker's
            # claims are never mistaken for a dead worker's.
            str(max(lease_timeout_s / 4.0, 0.05)),
            "--idle-timeout",
            # Orphan bound: if this coordinator dies without writing the stop
            # sentinel, its workers must not poll forever.  A live sweep never
            # idles a worker anywhere near this long — re-queued work appears
            # within one lease timeout.
            str(max(10.0 * lease_timeout_s, 300.0)),
        ]
        with open(log_dir / f"local-{index}.log", "ab") as log:
            return subprocess.Popen(command, stdout=log, stderr=subprocess.STDOUT, env=env)

    # ------------------------------------------------------------------ parity
    def run_comparison(
        self,
        methods: tuple[str, ...] | list[str],
        splits: list[DatasetSplit] | tuple[DatasetSplit, ...],
    ) -> list[MethodRunResult]:
        """Every method on every split, splits outermost (the Figure 4/5 grid)."""
        return self.run_grid(methods, list(splits))
