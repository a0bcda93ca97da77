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
  The coordinator forks ``workers`` workers from itself
  (:class:`ForkedWorker`), the sweep's only workers: they start with its
  imported modules and the databases of its process registry, so they
  neither import nor rebuild.  Each fork shares one ``multiprocessing.Pipe``
  with the coordinator and nothing else.  The coordinator sends an idle fork
  the next payload in grid order, and the fork answers with a
  :class:`~repro.runtime.workqueue.ResultUpload` or its error text
  (:func:`_serve_payloads`).  The coordinator saves each upload into its
  store as it arrives, re-queues the payload of a fork whose end reports
  EOF, re-sends a failed payload up to ``task_retries`` times, and, while it
  waits, hands ``progress_callback`` snapshots of its own counters.  It
  opens no socket and starts no thread.
"""

from __future__ import annotations

import functools
import os
import subprocess
import sys
import time
from bisect import insort
from collections import Counter
from dataclasses import dataclass, field
from multiprocessing import Pipe
from multiprocessing.connection import Connection, wait
from pathlib import Path
from typing import Callable, NoReturn, Union

from repro.config import PostgresConfig, RuntimeConfig
from repro.core.experiment import ExperimentConfig, ExperimentRunner
from repro.core.metrics import MethodRunResult
from repro.core.splits import DatasetSplit
from repro.errors import ExperimentError
from repro.runtime.fingerprint import stable_seed
from repro.runtime.plan_cache import PlanCache
from repro.runtime.progress import ProgressSnapshot, next_snapshot
from repro.runtime.result_store import ResultStore, TaskKey
from repro.runtime.workqueue import ResultUpload
from repro.storage.database import Database
from repro.storage.registry import MAX_DATABASES, get_process_registry, resolve_database
from repro.storage.spec import DatabaseSpec
from repro.workloads import build_workload, is_registered_workload
from repro.workloads.workload import Workload

#: Orphan bound: a worker that receives nothing for this long exits.  A
#: coordinator that dies closes its end of every pipe, which its workers read
#: as EOF; this bound covers one that stops sending without dying.  A live
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


class ForkedWorker:
    """Handle on one forked local worker, built on ``os.waitpid`` and ``os.kill``.

    It has the part of the ``Popen`` interface that callers of
    ``ParallelExperimentRunner._distributed_procs`` use: ``pid``,
    ``returncode`` (``-N`` after death by signal ``N``), :meth:`poll`,
    :meth:`wait`, :meth:`kill` and :meth:`send_signal`.
    """

    def __init__(self, pid: int) -> None:
        self.pid = pid
        self.returncode: int | None = None

    def poll(self) -> int | None:
        """The exit code if the worker has exited, else ``None`` (never blocks)."""
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


def _worker_id(index: int) -> str:
    """The name of forked worker ``index`` in logs and progress snapshots."""
    return f"local-{index}"


def _serve_payloads(conn: Connection, worker_id: str) -> int:
    """Answer the payloads the coordinator sends on ``conn``; returns how
    many were answered with a result.

    Each payload is answered with its :class:`ResultUpload`, or with the
    text of the exception it raised.  The loop ends when the coordinator
    closes its end (EOF), when an answer cannot reach it, or when
    ``ORPHAN_IDLE_S`` pass with nothing received.
    """
    completed = 0
    while conn.poll(ORPHAN_IDLE_S):
        try:
            payload = conn.recv()
        except (EOFError, OSError):
            break
        try:
            result, key, fingerprint = execute_spec_payload_with_identity(payload)
            answer: ResultUpload | str = ResultUpload(key=key, fingerprint=fingerprint, result=result.to_dict())
        except Exception as exc:
            answer = f"{type(exc).__name__}: {exc}"
            print(f"[{worker_id}] FAILED {payload.task.describe()}: {exc}", file=sys.stderr, flush=True)
        try:
            conn.send(answer)
        except OSError:
            break  # the coordinator is gone: nobody is left to take the answer
        if isinstance(answer, ResultUpload):
            completed += 1
            print(f"[{worker_id}] completed {payload.task.describe()}", flush=True)
    return completed


def _run_forked_worker(
    conn: Connection, inherited: list[Connection], index: int, log_path: Path
) -> NoReturn:
    """The body of a forked worker; it ends the process, never returns.

    It closes ``inherited``, the coordinator's ends of its own pipe and of
    its elder siblings' (so the coordinator's death reads as EOF on every
    fork's end), writes its output to ``log_path`` and runs
    :func:`_serve_payloads` on ``conn``.  ``os._exit`` skips the
    coordinator's ``atexit`` hooks and ``finally`` blocks, which are not
    this process's to run: 0 after the loop, 1 after a traceback in the log.
    """
    code = 1
    try:
        for other in inherited:
            other.close()
        log = os.open(log_path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
        os.dup2(log, 1)
        os.dup2(log, 2)
        os.close(log)
        # Fresh streams on the log: the inherited ones may be a test
        # harness's capture objects, or hold a buffer lock of another thread.
        sys.stdout = open(1, "w", buffering=1, encoding="utf-8", closefd=False)
        sys.stderr = open(2, "w", buffering=1, encoding="utf-8", closefd=False)
        worker_id = _worker_id(index)
        completed = _serve_payloads(conn, worker_id)
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


@dataclass
class _Sweep:
    """The coordinator's record of one distributed sweep, cells by grid index.

    A cell to run is ``pending`` until it is sent, then ``held`` by the fork
    it was sent to until that fork answers: with a result, or with an error
    that sends it back to ``pending`` or, after ``task_retries`` re-sends,
    into ``failed``.  A fork that dies gives its held cell back to
    ``pending``.  Every progress snapshot is read from these counters.
    """

    #: The payload of every cell the sweep runs (the store lacked its result).
    payloads: dict[int, SpecTaskPayload] = field(default_factory=dict)
    pending: list[int] = field(default_factory=list)
    #: The cell each busy fork holds, by the coordinator's end of its pipe.
    held: dict[Connection, int] = field(default_factory=dict)
    #: Every cell's result: loaded from the store on resume, else as received.
    results: dict[int, MethodRunResult] = field(default_factory=dict)
    #: Failed attempts by cell, and the last error of every cell that ran out of them.
    failures: Counter[int] = field(default_factory=Counter)
    failed: dict[int, str] = field(default_factory=dict)
    #: Cells each fork completed, by worker id.
    done_by: Counter[str] = field(default_factory=Counter)
    started_at: float = 0.0
    last: ProgressSnapshot | None = None

    def snapshot(self) -> ProgressSnapshot:
        """The next progress snapshot; ``elapsed_s`` counts from ``started_at``."""
        self.last = next_snapshot(
            pending=len(self.pending),
            claimed=len(self.held),
            done=sum(self.done_by.values()),
            failed=len(self.failed),
            workers=dict(self.done_by),
            total=len(self.payloads),
            elapsed_s=time.monotonic() - self.started_at,
            previous=self.last,
        )
        return self.last


class ParallelExperimentRunner:
    """Runs the experiment grid concurrently with serial-identical results.

    ``progress_callback`` runs on the coordinator's thread, inside the loop
    that waits for a distributed sweep's answers: a slow callback delays
    the next payload to an idle fork, the re-queue of a dead fork's cell
    and the retry of failed tasks.
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
        #: Number of cells the most recent distributed sweep re-queued
        #: because the fork holding them died.
        self._distributed_requeued = 0
        #: Cells the most recent distributed sweep sent to its forks, each
        #: to whichever fork was idle first (perfbench reports it as
        #: ``runtime.stolen_tasks``).
        self._distributed_stolen = 0

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
        """Coordinate one sweep over the pipes of ``workers`` forks.

        Cells the store already holds are loaded from it; the others are
        sent to the forks, and their results are saved into the store as
        they arrive (:meth:`_feed_forks`).  Results are returned in grid
        order, so the output is identical to every other executor kind.
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
                "the coordinator persists the workers' results there)"
            )
        log_dir = store.root / "worker-logs"
        sweep = _Sweep()
        for index, task in enumerate(tasks):
            key, fingerprint = self.task_key(task), self.task_fingerprint(task)
            if store.skip_existing and store.exists(key, fingerprint):
                sweep.results[index] = store.load(key, fingerprint)  # resumed: never sent
            else:
                sweep.payloads[index] = self.spec_payload(task)
        sweep.pending = list(sweep.payloads)  # grid order, the order the forks get them in
        self._distributed_stolen = len(sweep.payloads)
        self._distributed_requeued = 0
        procs: list[ForkedWorker] = []
        self._distributed_procs = procs
        # The coordinator's end of each live fork's pipe, with the fork's index.
        conns: dict[Connection, int] = {}
        try:
            workers = min(self.runtime_config.workers, len(sweep.payloads))
            if workers and get_process_registry().contains(self.database_spec):
                # Bound once here, the workload reaches every fork with the database.
                _rebuilt_workload(self.workload.name, self.database_spec)
            for index in range(workers):
                proc, conn = self._spawn_worker(index, log_dir, list(conns))
                procs.append(proc)
                conns[conn] = index
            sweep.started_at = time.monotonic()
            self._feed_forks(sweep, conns, log_dir)
        finally:
            # A fork still holding a cell is killed (the sweep aborted: its
            # answer has nowhere to go), and its cell counts as pending again.
            for conn, index in sweep.held.items():
                procs[conns[conn]].kill()
                insort(sweep.pending, index)
            sweep.held.clear()
            for conn in conns:
                conn.close()  # EOF: an idle fork leaves its loop and exits
            for proc in procs:
                try:
                    proc.wait(timeout=60)
                except subprocess.TimeoutExpired:  # pragma: no cover - defensive
                    proc.kill()
                    proc.wait()
            if self.progress_callback is not None:
                # The end-of-sweep snapshot, on success and on failure, also
                # of a fully resumed sweep, taken once every fork has exited.
                self.progress_callback(sweep.snapshot())
        return [sweep.results[index] for index in range(len(tasks))]

    def _feed_forks(self, sweep: _Sweep, conns: dict[Connection, int], log_dir: Path) -> None:
        """Send each idle fork the next pending cell and take the answers,
        until every cell is done.

        A wait ends when a fork answers or its end reports EOF, or when the
        next snapshot is due: every ``progress_interval_s`` seconds with a
        ``progress_callback``, else never.  A snapshot is taken when a wait
        runs out, so one held off by answers is taken at the next quiet
        moment.
        """
        interval = self.runtime_config.progress_interval_s if self.progress_callback else None
        due = None if interval is None else time.monotonic() + interval
        while sweep.pending or sweep.held:
            for conn in [conn for conn in conns if conn not in sweep.held]:
                if not sweep.pending:
                    break
                index = sweep.pending.pop(0)
                try:
                    conn.send(sweep.payloads[index])
                except OSError:  # that fork is gone: the wait below reads its EOF
                    insort(sweep.pending, index)
                    continue
                sweep.held[conn] = index
            if not conns:
                # Every fork exited: the sweep can never finish, so surface
                # it instead of waiting forever.
                codes = [proc.wait() for proc in self._distributed_procs]
                raise ExperimentError(
                    f"all {len(codes)} local distributed workers exited (return codes "
                    f"{codes}) with {len(sweep.pending)} task(s) unfinished; worker logs are "
                    f"under {log_dir}"
                )
            timeout = None if due is None else max(due - time.monotonic(), 0.0)
            ready = wait(list(conns), timeout)
            for conn in ready:
                self._take_answer(sweep, conns, conn)
            if sweep.failed:
                raise ExperimentError(
                    f"{len(sweep.failed)} distributed task(s) failed permanently: "
                    + "; ".join(
                        f"{sweep.payloads[index].task.describe()} after "
                        f"{sweep.failures[index]} attempt(s): {error}"
                        for index, error in sorted(sweep.failed.items())
                    )
                )
            if not ready:
                # The wait ran out at the due time, and no answer waits
                # unread: the snapshot's held cells are all still running.
                self.progress_callback(sweep.snapshot())
                due = time.monotonic() + interval

    def _take_answer(self, sweep: _Sweep, conns: dict[Connection, int], conn: Connection) -> None:
        """Take what ``conn``'s fork sent: a result is saved and kept, an
        error re-queues its cell within ``task_retries``, and EOF (the fork
        died) re-queues the cell it held."""
        try:
            answer = conn.recv()
        except (EOFError, OSError):
            del conns[conn]
            conn.close()
            if conn in sweep.held:
                insort(sweep.pending, sweep.held.pop(conn))
                self._distributed_requeued += 1
            return
        index = sweep.held.pop(conn)
        if isinstance(answer, ResultUpload):
            self.result_store.save_raw(answer.key, answer.result, answer.fingerprint)
            sweep.results[index] = MethodRunResult.from_dict(answer.result)
            sweep.done_by[_worker_id(conns[conn])] += 1
            return
        sweep.failures[index] += 1
        if sweep.failures[index] > self.runtime_config.task_retries:
            sweep.failed[index] = answer
        else:
            insort(sweep.pending, index)

    @staticmethod
    def _spawn_worker(
        index: int, log_dir: Path, inherited: list[Connection]
    ) -> tuple[ForkedWorker, Connection]:
        """Fork worker ``index``; returns its handle and the coordinator's
        end of its pipe.

        The child runs :func:`_run_forked_worker` and logs to
        ``log_dir/local-{index}.log``.  ``inherited`` are the coordinator's
        ends of the workers forked before it, which the child closes.
        """
        log_dir.mkdir(parents=True, exist_ok=True)
        log_path = log_dir / f"{_worker_id(index)}.log"
        ours, theirs = Pipe()
        # Unflushed output would otherwise be written twice, once by each process.
        sys.stdout.flush()
        sys.stderr.flush()
        try:
            pid = os.fork()
        except BaseException:
            ours.close()
            theirs.close()
            raise
        if pid == 0:
            _run_forked_worker(theirs, [*inherited, ours], index, log_path)
        theirs.close()
        return ForkedWorker(pid), ours

    # ------------------------------------------------------------------ parity
    def run_comparison(
        self,
        methods: tuple[str, ...] | list[str],
        splits: list[DatasetSplit] | tuple[DatasetSplit, ...],
    ) -> list[MethodRunResult]:
        """Every method on every split, splits outermost (the Figure 4/5 grid)."""
        return self.run_grid(methods, list(splits))
