"""Tests for the distributed runtime: sharded store, forked workers, pipes.

The heavyweight end-to-end tests fork real workers from a coordinator that
feeds them over their pipes, kill a worker mid-task and kill a coordinator
mid-sweep.
"""

import json
import multiprocessing
import os
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.config import SIMULATION_CONFIG, RuntimeConfig
from repro.core.experiment import ExperimentConfig
from repro.core.metrics import MethodRunResult, QueryTiming
from repro.core.splits import DatasetSplit, SplitSampling
from repro.errors import ExperimentError
from repro.experiments.common import distributed_runtime
from repro.runtime import parallel
from repro.runtime.parallel import ParallelExperimentRunner
from repro.runtime.result_store import ResultStore, ShardedResultStore, TaskKey
from repro.storage.registry import get_process_registry
from repro.storage.spec import DatabaseSpec
from repro.workloads import build_workload

GRID_METHODS = ("postgres", "bao")

GRID_CONFIG = ExperimentConfig(optimizer_kwargs={"bao": {"training_passes": 1}})


def run_result_as_json(result: MethodRunResult) -> str:
    return json.dumps(result.to_dict(), sort_keys=True)


def _sample_result(method: str = "postgres") -> MethodRunResult:
    return MethodRunResult(
        method=method,
        split_name="random-0",
        workload_name="job",
        training_time_s=0.5,
        executed_training_plans=3,
        timings=[
            QueryTiming(
                query_id="1a",
                method=method,
                inference_time_ms=0.0,
                planning_time_ms=1.0,
                execution_time_ms=10.0,
                timed_out=False,
                num_joins=2,
            )
        ],
    )


def _spec_grid_parts(scale: float = 0.2):
    spec = DatabaseSpec.create("imdb", scale=scale, seed=7, config=SIMULATION_CONFIG)
    database = get_process_registry().get(spec)
    workload = build_workload("job", database.schema)
    split = DatasetSplit(
        workload_name=workload.name,
        sampling=SplitSampling.RANDOM,
        split_index=0,
        train_ids=("1a", "2a", "3a"),
        test_ids=("1b", "2b"),
    )
    return spec, workload, split


# ---------------------------------------------------------------------------
# Sharded result store
# ---------------------------------------------------------------------------


class TestShardedResultStore:
    def test_round_trip_routes_into_shard_directories(self, tmp_path):
        store = ShardedResultStore(tmp_path / "sharded", shard_count=4)
        keys = [TaskKey("job", f"random-{i}", method, seed=i) for i in range(4)
                for method in ("postgres", "bao")]
        for key in keys:
            store.save(key, _sample_result(key.method), context_fingerprint="ctx")
        for key in keys:
            assert store.exists(key, "ctx")
            assert store.load(key, "ctx").method == key.method
            relative = store.path_for(key, "ctx").relative_to(store.root)
            assert relative.parts[0].startswith("shard-")
            assert store.shard_of(key) == key.shard_index(4)
        assert sum(1 for _ in store.completed_files()) == len(keys)
        assert "4 shards" in store.describe()

    def test_shard_assignment_is_stable(self):
        key = TaskKey("job", "random-0", "postgres", seed=3)
        assert key.shard_index(8) == key.shard_index(8)
        assert 0 <= key.shard_index(8) < 8
        # Different keys spread over more than one shard.
        shards = {TaskKey("job", f"s-{i}", "postgres").shard_index(8) for i in range(32)}
        assert len(shards) > 1

    def test_manifest_validates_shard_count(self, tmp_path):
        ShardedResultStore(tmp_path / "store", shard_count=4)
        reopened = ShardedResultStore(tmp_path / "store", shard_count=4)
        assert reopened.manifest()["shard_count"] == 4
        with pytest.raises(ExperimentError):
            ShardedResultStore(tmp_path / "store", shard_count=8)

    def test_a_store_reopened_with_another_layout_raises(self, tmp_path):
        """Opened flat, a sharded root would miss every stored result, re-run
        each task and write flat duplicates beside the shards."""
        key = TaskKey("job", "random-0", "postgres")
        ResultStore(tmp_path / "sharded", shard_count=4).save(key, _sample_result(), "ctx")
        with pytest.raises(ExperimentError, match="4 shards"):
            ResultStore(tmp_path / "sharded")
        ResultStore(tmp_path / "flat").save(key, _sample_result(), "ctx")
        with pytest.raises(ExperimentError, match="0 shards"):
            ResultStore(tmp_path / "flat", shard_count=2)
        assert ResultStore(tmp_path / "flat").exists(key, "ctx")

    def test_merge_produces_flat_store_with_identical_bytes(self, tmp_path):
        store = ShardedResultStore(tmp_path / "sharded", shard_count=4)
        keys = [TaskKey("job", f"random-{i}", "postgres", seed=i) for i in range(6)]
        for key in keys:
            store.save(key, _sample_result(), context_fingerprint=f"ctx-{key.seed}")
        store.save_artifact("summary", {"rows": 6})

        flat = store.merge(tmp_path / "flat")
        assert type(flat) is ResultStore
        for key in keys:
            fingerprint = f"ctx-{key.seed}"
            assert flat.exists(key, fingerprint)
            assert flat.load(key, fingerprint).to_dict() == _sample_result().to_dict()
            sharded_bytes = store.path_for(key, fingerprint).read_bytes()
            assert flat.path_for(key, fingerprint).read_bytes() == sharded_bytes
        assert flat.load_artifact("summary") == {"rows": 6}
        # The merged layout is flat: no shard directories.
        assert not list(flat.root.glob("shard-*"))

    def test_clear_preserves_artifacts_and_manifest(self, tmp_path):
        store = ShardedResultStore(tmp_path / "store", shard_count=2)
        store.save(TaskKey("job", "s", "postgres"), _sample_result(), "ctx")
        store.save_artifact("table", [1, 2, 3])
        assert store.clear() == 1
        assert store.load_artifact("table") == [1, 2, 3]
        assert store.manifest()["shard_count"] == 2

    def test_stale_tmp_file_ignored_in_shard(self, tmp_path):
        store = ShardedResultStore(tmp_path / "store", shard_count=2)
        key = TaskKey("job", "random-0", "postgres")
        directory = store.path_for(key).parent
        directory.mkdir(parents=True)
        (directory / "postgres-seed0.abc123.tmp").write_text("{partial")
        assert not store.exists(key)


# ---------------------------------------------------------------------------
# Concurrent writers (satellite: _atomic_write under contention)
# ---------------------------------------------------------------------------


def _hammer_store(store_kind: str, root: str, writes: int) -> None:
    """Child-process body: repeatedly save the same key into a shared store."""
    if store_kind == "sharded":
        store = ShardedResultStore(root, shard_count=4)
    else:
        store = ResultStore(root)
    key = TaskKey("job", "random-0", "postgres", seed=1)
    for _ in range(writes):
        store.save(key, _sample_result(), context_fingerprint="ctx")


class TestConcurrentWriters:
    @pytest.mark.parametrize("store_kind", ["flat", "sharded"])
    def test_two_processes_saving_same_key_leave_valid_json(self, tmp_path, store_kind):
        """Two processes race 50 saves each on one key: the surviving file must
        be valid JSON and round-trip, never a torn mix of both writers."""
        root = str(tmp_path / store_kind)
        context = multiprocessing.get_context("fork")
        procs = [
            context.Process(target=_hammer_store, args=(store_kind, root, 50))
            for _ in range(2)
        ]
        for proc in procs:
            proc.start()
        for proc in procs:
            proc.join(timeout=120)
            assert proc.exitcode == 0
        store = (
            ShardedResultStore(root, shard_count=4) if store_kind == "sharded" else ResultStore(root)
        )
        key = TaskKey("job", "random-0", "postgres", seed=1)
        payload = json.loads(store.path_for(key, "ctx").read_text())
        assert payload["context_fingerprint"] == "ctx"
        assert store.load(key, "ctx").to_dict() == _sample_result().to_dict()
        # No .tmp leftovers: every temp file was renamed or cleaned up.
        assert not list(store.root.rglob("*.tmp"))


# ---------------------------------------------------------------------------
# Distributed execution end to end
# ---------------------------------------------------------------------------


def serial_grid(spec, workload, split) -> list[str]:
    """The (postgres, bao) grid run in this process, as JSON per cell."""
    serial = ParallelExperimentRunner(
        spec, workload, experiment_config=GRID_CONFIG, runtime_config=RuntimeConfig(workers=1)
    )
    return [run_result_as_json(r) for r in serial.run_grid(GRID_METHODS, [split])]


class TestDistributedRunner:
    def test_distributed_identical_to_serial_and_merge_loads(self, tmp_path):
        """2 forked workers vs serial: byte-identical results, sharded layout
        on disk, and every task loads from the merged flat store under its
        context fingerprint."""
        spec, workload, split = _spec_grid_parts()
        runner = ParallelExperimentRunner(
            spec,
            workload,
            experiment_config=GRID_CONFIG,
            runtime_config=distributed_runtime(tmp_path / "store", workers=2, shard_count=4),
        )
        distributed = [run_result_as_json(r) for r in runner.run_grid(GRID_METHODS, [split])]
        assert distributed == serial_grid(spec, workload, split)

        store = runner.result_store
        assert isinstance(store, ShardedResultStore)
        stored = list(store.completed_files())
        assert len(stored) == len(GRID_METHODS)
        assert all(p.relative_to(store.root).parts[0].startswith("shard-") for p in stored)
        assert store.manifest()["shard_count"] == 4

        merged = store.merge(tmp_path / "merged")
        for task in runner.tasks_for(GRID_METHODS, [split]):
            key, fingerprint = runner.task_key(task), runner.task_fingerprint(task)
            assert merged.exists(key, fingerprint)
            merged.load(key, fingerprint)  # raises on fingerprint mismatch

    def test_the_store_counts_written_and_resumed_cells_apart(self, tmp_path):
        """A fresh sweep returns the results its forks sent and reads none
        back, so its store reads "0 resumed / N written"; a re-run over the
        populated store resumes every cell, spawns no worker and writes
        nothing."""
        spec, workload, split = _spec_grid_parts()

        def make_runner():
            return ParallelExperimentRunner(
                spec,
                workload,
                experiment_config=GRID_CONFIG,
                runtime_config=distributed_runtime(tmp_path / "store", workers=2, shard_count=2),
            )

        first = make_runner()
        original = [run_result_as_json(r) for r in first.run_grid(GRID_METHODS, [split])]
        assert first.result_store.describe().endswith("0 resumed / 2 written this run)")

        second = make_runner()
        resumed = [run_result_as_json(r) for r in second.run_grid(GRID_METHODS, [split])]
        assert resumed == original
        assert second._distributed_procs == []  # nothing was sent, nobody spawned
        assert second.result_store.describe().endswith("2 resumed / 0 written this run)")

    def test_distributed_requires_result_store(self):
        spec, workload, split = _spec_grid_parts()
        runner = ParallelExperimentRunner(
            spec,
            workload,
            experiment_config=GRID_CONFIG,
            runtime_config=RuntimeConfig(workers=2, executor_kind="distributed"),
        )
        with pytest.raises(ExperimentError, match="result store"):
            runner.run_grid(GRID_METHODS, [split])

    def test_distributed_requires_spec_dispatch(self, imdb_db, job_workload, tmp_path):
        """A hand-built database (no spec) cannot be sent to a worker."""
        split = DatasetSplit(
            workload_name=job_workload.name,
            sampling=SplitSampling.RANDOM,
            split_index=0,
            train_ids=("1a",),
            test_ids=("1b",),
        )
        database = imdb_db.with_config(imdb_db.config)
        database.spec = None
        runner = ParallelExperimentRunner(
            database,
            job_workload,
            experiment_config=GRID_CONFIG,
            runtime_config=distributed_runtime(tmp_path / "store", workers=2),
        )
        with pytest.raises(ExperimentError, match="spec dispatch"):
            runner.run_grid(("postgres",), [split])


def failing_first(marker_dir: Path, method: str, times: int):
    """An ``execute_spec_payload_with_identity`` whose ``method`` cells fail
    their first ``times`` attempts, counted in files under ``marker_dir``
    (the forks share no memory, so the count lives on disk)."""
    execute = parallel.execute_spec_payload_with_identity

    def flaky(payload):
        if payload.task.method == method:
            with open(marker_dir / "attempts", "a", encoding="utf-8") as attempts:
                attempts.write(f"{os.getpid()}\n")
            if len((marker_dir / "attempts").read_text().split()) <= times:
                raise RuntimeError("transient failure")
        return execute(payload)

    return flaky


class TestForkedWorkers:
    """Local workers fork from the coordinator, which feeds each over its
    own pipe: no socket, no thread, and never back into its code."""

    def test_a_killed_forks_cell_is_requeued_when_its_pipe_reports_eof(self, tmp_path, slow_tasks):
        """SIGKILL one of two forks while both hold a cell: its pipe reports
        EOF at once, the coordinator re-queues its cell with no timeout to
        wait out, and the survivor finishes the grid with the serial bytes."""
        slow_tasks(1.0)  # both forks are still mid-task at an early snapshot
        spec, workload, split = _spec_grid_parts()
        killed: list[int] = []

        def kill_a_holder(snapshot):
            if not killed and snapshot.claimed == 2:  # one cell per fork
                victim = runner._distributed_procs[0]
                victim.kill()
                killed.append(victim.pid)

        runner = ParallelExperimentRunner(
            spec,
            workload,
            experiment_config=GRID_CONFIG,
            runtime_config=distributed_runtime(
                tmp_path / "store", workers=2, shard_count=2, progress_interval_s=0.05
            ),
            progress_callback=kill_a_holder,
        )
        started = time.monotonic()
        distributed = [run_result_as_json(r) for r in runner.run_grid(GRID_METHODS, [split])]
        elapsed = time.monotonic() - started
        assert killed, "never saw both forks hold a cell"
        assert runner._distributed_requeued == 1
        assert [proc.returncode for proc in runner._distributed_procs] == [-9, 0]
        assert elapsed < 10.0
        assert distributed == serial_grid(spec, workload, split)

    def test_a_sweep_opens_no_socket(self, tmp_path, monkeypatch):
        """Tasks and results cross the forks' pipes: with every socket's
        bind and connect refused, a 2-worker sweep still returns the serial
        bytes."""

        def refused(self, *args):
            raise OSError("a distributed sweep must not bind or connect a socket")

        spec, workload, split = _spec_grid_parts()
        expected = serial_grid(spec, workload, split)
        monkeypatch.setattr(socket.socket, "bind", refused)
        monkeypatch.setattr(socket.socket, "connect", refused)
        runner = ParallelExperimentRunner(
            spec,
            workload,
            experiment_config=GRID_CONFIG,
            runtime_config=distributed_runtime(tmp_path / "store", workers=2),
        )
        assert [run_result_as_json(r) for r in runner.run_grid(GRID_METHODS, [split])] == expected
        assert [proc.returncode for proc in runner._distributed_procs] == [0, 0]

    def test_a_failed_cell_is_resent_within_its_retries(self, tmp_path, monkeypatch):
        """A cell that fails once is sent again, and the sweep still equals
        serial."""
        spec, workload, split = _spec_grid_parts()
        expected = serial_grid(spec, workload, split)
        monkeypatch.setattr(parallel, "execute_spec_payload_with_identity", failing_first(tmp_path, "bao", 1))
        runner = ParallelExperimentRunner(
            spec,
            workload,
            experiment_config=GRID_CONFIG,
            runtime_config=distributed_runtime(tmp_path / "store", workers=2, task_retries=1),
        )
        assert [run_result_as_json(r) for r in runner.run_grid(GRID_METHODS, [split])] == expected
        assert len((tmp_path / "attempts").read_text().split()) == 2
        assert runner._distributed_requeued == 0

    def test_a_cell_out_of_retries_fails_the_sweep_by_name(self, tmp_path, monkeypatch):
        """A cell that keeps failing is sent ``task_retries + 1`` times, then
        the sweep raises naming it, its attempts and its error."""
        monkeypatch.setattr(parallel, "execute_spec_payload_with_identity", failing_first(tmp_path, "bao", 99))
        spec, workload, split = _spec_grid_parts()
        runner = ParallelExperimentRunner(
            spec,
            workload,
            experiment_config=GRID_CONFIG,
            runtime_config=distributed_runtime(tmp_path / "store", workers=2, task_retries=2),
        )
        with pytest.raises(
            ExperimentError,
            match=r"1 distributed task\(s\) failed permanently: bao on random-0 \(repeat 0\) "
            r"after 3 attempt\(s\): RuntimeError: transient failure",
        ):
            runner.run_grid(GRID_METHODS, [split])
        assert len((tmp_path / "attempts").read_text().split()) == 3
        assert all(proc.poll() is not None for proc in runner._distributed_procs)

    def test_a_raising_worker_exits_1_with_its_traceback_logged(self, tmp_path, monkeypatch):
        def broken_loop(*args, **kwargs):
            raise RuntimeError("worker loop broke")

        monkeypatch.setattr(parallel, "_serve_payloads", broken_loop)
        spec, workload, split = _spec_grid_parts()
        runner = ParallelExperimentRunner(
            spec,
            workload,
            experiment_config=GRID_CONFIG,
            runtime_config=distributed_runtime(tmp_path / "store", workers=2, task_retries=0),
        )
        reached = tmp_path / "reached"
        with pytest.raises(ExperimentError, match=r"all 2 local distributed workers exited \(return codes \[1, 1\]\)"):
            runner.run_grid(GRID_METHODS, [split])
        # A child that returned into this code would append its own pid here.
        with open(reached, "a") as marker:
            marker.write(f"{os.getpid()}\n")
        assert reached.read_text().split() == [str(os.getpid())]
        for index in range(2):
            log = (tmp_path / "store" / "worker-logs" / f"local-{index}.log").read_text()
            assert "Traceback" in log and "RuntimeError: worker loop broke" in log

    def test_the_coordinator_starts_no_thread(self, tmp_path, monkeypatch):
        """At each fork and at every snapshot the coordinator runs on the
        threads it entered the sweep with."""
        fork = os.fork
        counts: list[int] = []

        def recording_fork():
            counts.append(threading.active_count())
            return fork()

        monkeypatch.setattr(os, "fork", recording_fork)
        spec, workload, split = _spec_grid_parts()
        runner = ParallelExperimentRunner(
            spec,
            workload,
            experiment_config=GRID_CONFIG,
            runtime_config=distributed_runtime(tmp_path / "store", workers=2),
            progress_callback=lambda snapshot: counts.append(threading.active_count()),
        )
        at_entry = threading.active_count()
        runner.run_grid(GRID_METHODS, [split])
        assert len(counts) == 3 and set(counts) == {at_entry}

    def test_a_handle_polls_waits_and_kills_like_popen(self, tmp_path):
        """A fork waiting for its first payload is there to be killed, and
        reads -9 after.  One whose pipe the coordinator closes exits 0."""
        proc, conn = ParallelExperimentRunner._spawn_worker(0, tmp_path, [])
        try:
            assert proc.poll() is None and proc.returncode is None
            with pytest.raises(subprocess.TimeoutExpired):
                proc.wait(timeout=0.05)
            proc.kill()
            assert proc.wait(timeout=10) == -9
            assert proc.poll() == proc.returncode == -9
            proc.send_signal(9)  # reaped: a no-op, never a stray signal
        finally:
            conn.close()
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        proc, conn = ParallelExperimentRunner._spawn_worker(1, tmp_path, [])
        conn.close()
        assert proc.wait(timeout=10) == 0
        assert (tmp_path / "local-1.log").read_text() == "[local-1] exiting after 0 task(s)\n"


# ---------------------------------------------------------------------------
# Fault injection: the coordinator dies mid-sweep
# ---------------------------------------------------------------------------

#: Repeats of the (postgres, bao) grid above the crash test runs: four tasks on
#: two workers, so a killed coordinator always leaves work undone.
CRASH_REPEATS = 2

#: A coordinator process over that grid, into the store named by its
#: argument; it prints its local workers' pids on every progress snapshot.
CRASH_COORDINATOR = """
import json, sys, time
sys.path.insert(0, {tests!r})
from test_distributed import CRASH_REPEATS, GRID_CONFIG, GRID_METHODS, _spec_grid_parts
from repro.experiments.common import distributed_runtime
from repro.runtime.parallel import ParallelExperimentRunner

from repro.runtime import parallel

# Held tasks (the forked workers inherit the patch): the first result lands
# well before the last, so a kill at the first one leaves work undone.
execute = parallel.execute_spec_payload_with_identity
parallel.execute_spec_payload_with_identity = lambda payload: time.sleep(1.0) or execute(payload)
spec, workload, split = _spec_grid_parts()
runner = ParallelExperimentRunner(
    spec, workload, experiment_config=GRID_CONFIG,
    runtime_config=distributed_runtime(sys.argv[1], workers=2, shard_count=2, progress_interval_s=0.1),
    progress_callback=lambda snapshot: print(
        json.dumps([proc.pid for proc in runner._distributed_procs]), flush=True
    ),
)
runner.run_grid(GRID_METHODS, [split], repeats=CRASH_REPEATS)
"""


class TestCoordinatorCrash:
    #: An idle orphan reads EOF at once; a busy one finishes its task (a held
    #: second plus a small cell), fails to send the result and exits.  A
    #: minute covers that with room to spare, far below the 600 s orphan
    #: bound (``ORPHAN_IDLE_S``) that would otherwise be an orphan's only way out.
    ORPHAN_EXIT_S = 60.0

    def test_orphans_exit_and_a_rerun_computes_only_what_is_missing(self, tmp_path):
        """SIGKILL a coordinator once its store holds a result: its forks
        read EOF on their pipes (an idle one at once, a busy one when its
        result cannot be sent) and exit, a re-run sends only the cells the
        store lacks, and the final store holds the bytes a serial run
        writes."""
        store_dir = tmp_path / "store"
        tests_dir = Path(__file__).resolve().parent
        env = dict(os.environ, PYTHONPATH=str(tests_dir.parent / "src"))
        coordinator = subprocess.Popen(
            [sys.executable, "-c", CRASH_COORDINATOR.format(tests=str(tests_dir)), str(store_dir)],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, env=env, text=True,
        )
        pids: list[int] = []
        try:
            pids = json.loads(coordinator.stdout.readline() or "[]")
            assert len(pids) == 2, "the coordinator never announced its workers"
            store = ResultStore(store_dir, shard_count=2)
            deadline = time.monotonic() + 180
            while not list(store.completed_files()):
                assert time.monotonic() < deadline and coordinator.poll() is None
                time.sleep(0.01)
            coordinator.kill()
            coordinator.wait(timeout=30)
            killed_at = time.monotonic()
            logs = [store_dir / "worker-logs" / f"local-{index}.log" for index in range(2)]
            while not all("exiting after" in log.read_text() for log in logs):
                assert time.monotonic() - killed_at < self.ORPHAN_EXIT_S, "an orphaned worker kept running"
                time.sleep(0.1)
        finally:
            coordinator.kill()
            coordinator.wait()
            coordinator.stdout.close()
            for pid in pids:
                try:
                    os.kill(pid, 9)
                except ProcessLookupError:
                    pass

        tasks = len(GRID_METHODS) * CRASH_REPEATS
        stored = len(list(store.completed_files()))
        assert 1 <= stored < tasks
        spec, workload, split = _spec_grid_parts()
        rerun = ParallelExperimentRunner(
            spec, workload, experiment_config=GRID_CONFIG,
            runtime_config=distributed_runtime(store_dir, workers=2, shard_count=2),
        )
        rerun.run_grid(GRID_METHODS, [split], repeats=CRASH_REPEATS)
        assert rerun._distributed_stolen == tasks - stored  # only the gap was sent

        serial = ParallelExperimentRunner(
            spec, workload, experiment_config=GRID_CONFIG,
            runtime_config=RuntimeConfig(store_dir=str(tmp_path / "serial"), shard_count=2),
        )
        serial.run_grid(GRID_METHODS, [split], repeats=CRASH_REPEATS)

        def result_bytes(store: ResultStore) -> dict:
            return {path.relative_to(store.root): path.read_bytes() for path in store.completed_files()}

        assert result_bytes(rerun.result_store) == result_bytes(serial.result_store)
