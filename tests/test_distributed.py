"""Tests for the distributed runtime: sharded store, work queues, queue workers.

The heavyweight end-to-end tests launch real ``python -m repro.runtime.worker``
processes — against a queue directory on the test's tmp filesystem (the file
transport) and against a coordinator-side TCP queue server with workers
running out of isolated directories that share nothing with the coordinator
(the network transport).
"""

import json
import multiprocessing
import os
import subprocess
import sys
import threading
import time
from dataclasses import replace
from pathlib import Path

import pytest

from repro.config import SIMULATION_CONFIG, RuntimeConfig
from repro.core.experiment import ExperimentConfig
from repro.core.metrics import MethodRunResult, QueryTiming
from repro.core.splits import DatasetSplit, SplitSampling
from repro.errors import ExperimentError
from repro.experiments.common import distributed_runtime
from repro.runtime.netqueue import NetWorkQueue, QueueServer
from repro.runtime.parallel import ParallelExperimentRunner, reconcile_failed_tasks
from repro.runtime.result_store import ResultStore, ShardedResultStore, TaskKey
from repro.runtime.workqueue import (
    QueueTransport,
    ResultUpload,
    TaskClaim,
    WorkerQueueTransport,
    WorkQueue,
    parse_queue_url,
)
from repro.storage.registry import get_process_registry
from repro.storage.spec import DatabaseSpec
from repro.workloads import build_workload

GRID_METHODS = ("postgres", "bao")

#: Queue transports the end-to-end sweeps are exercised over.
TRANSPORTS = ("file", "tcp")


def sweep_runtime(tmp_path, transport, **overrides):
    """A distributed RuntimeConfig on the requested queue transport."""
    return distributed_runtime(
        tmp_path / "store",
        queue_url="tcp://127.0.0.1:0" if transport == "tcp" else None,
        **overrides,
    )

GRID_CONFIG = ExperimentConfig(
    optimizer_kwargs={"bao": {"training_passes": 1}},
    deterministic_timing=True,
)


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

    def test_refresh_manifest_records_context_fingerprints(self, tmp_path):
        store = ShardedResultStore(tmp_path / "store", shard_count=2)
        store.save(TaskKey("job", "s", "postgres"), _sample_result(), "ctx-a")
        store.save(TaskKey("job", "s", "bao"), _sample_result("bao"), "ctx-b")
        manifest = store.refresh_manifest()
        assert manifest["shard_count"] == 2
        assert manifest["context_fingerprints"] == ["ctx-a", "ctx-b"]

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

    def test_compact_folds_shards_in_place(self, tmp_path):
        store = ShardedResultStore(tmp_path / "store", shard_count=3)
        keys = [TaskKey("job", "s", m, seed=i) for i, m in enumerate(("postgres", "bao", "neo"))]
        for key in keys:
            store.save(key, _sample_result(key.method), "ctx")
        flat = store.compact()
        assert not list(flat.root.glob("shard-*"))
        assert not (flat.root / "manifest.json").exists()
        for key in keys:
            assert flat.load(key, "ctx").method == key.method

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
# Work queue
# ---------------------------------------------------------------------------


class TestWorkQueue:
    def test_enqueue_claim_ack_lifecycle(self, tmp_path):
        queue = WorkQueue(tmp_path / "q", lease_timeout_s=30)
        queue.enqueue("t-0", {"payload": 1})
        queue.enqueue("t-1", {"payload": 2})
        assert queue.pending_ids() == {"t-0", "t-1"}

        claim = queue.claim("worker-a")
        assert claim is not None and claim.task_id == "t-0"
        assert claim.payload == {"payload": 1}
        assert queue.claimed_ids() == {"t-0"}

        queue.ack(claim, "worker-a")
        assert queue.done_ids() == {"t-0"}
        assert queue.claimed_ids() == set()
        assert queue.stats().describe() == "1 pending, 0 claimed, 1 done, 0 failed"

    def test_claim_is_exclusive(self, tmp_path):
        queue = WorkQueue(tmp_path / "q")
        queue.enqueue("only", "task")
        first = queue.claim("a")
        second = queue.claim("b")
        assert first is not None and second is None

    def test_requeue_expired_returns_dead_claims(self, tmp_path):
        queue = WorkQueue(tmp_path / "q", lease_timeout_s=0.05)
        queue.enqueue("t-0", "task")
        claim = queue.claim("doomed")
        assert claim is not None
        time.sleep(0.1)  # lease expires: the claimer never heart-beats
        assert queue.requeue_expired() == ["t-0"]
        assert queue.pending_ids() == {"t-0"}
        revived = queue.claim("survivor")
        assert revived is not None and revived.payload == "task"

    def test_renew_keeps_lease_alive(self, tmp_path):
        queue = WorkQueue(tmp_path / "q", lease_timeout_s=0.2)
        queue.enqueue("t-0", "task")
        claim = queue.claim("steady")
        for _ in range(3):
            time.sleep(0.1)
            queue.renew(claim)
        assert queue.requeue_expired() == []
        assert queue.has_live_claims()

    def test_fail_marker_carries_error(self, tmp_path):
        queue = WorkQueue(tmp_path / "q")
        queue.enqueue("t-0", "task")
        claim = queue.claim("w")
        queue.fail(claim, "w", "ValueError: boom")
        assert queue.failed_tasks() == {"t-0": "ValueError: boom"}
        assert queue.claimed_ids() == set()

    def test_reset_reconciles_a_reused_queue_directory(self, tmp_path):
        """A crashed sweep's leftovers (orphan tasks, stale markers, stop
        sentinel) must not leak into the next sweep."""
        queue = WorkQueue(tmp_path / "q")
        queue.enqueue("old-0", "task")
        queue.enqueue("old-1", "task")
        claim = queue.claim("w")
        queue.enqueue("old-2", "task")
        done = queue.claim("w")
        queue.ack(done, "w")
        queue.fail(queue.claim("w"), "w", "boom")
        queue.write_stop()
        assert claim is not None
        assert queue.reset() == 3  # 1 claimed + 1 done marker + 1 failed marker
        assert queue.pending_ids() == queue.claimed_ids() == set()
        assert queue.done_ids() == set() and queue.failed_tasks() == {}
        assert not queue.stop_requested()

    def test_reset_removes_tmp_orphans_of_crashed_atomic_writes(self, tmp_path):
        """`.tmp` leftovers in pending/ and done/ (a crash between mkstemp and
        rename) used to survive reset() forever; they must be swept too."""
        queue = WorkQueue(tmp_path / "q")
        (queue.root / "pending" / "t-0.task.abc123.tmp").write_text("{partial")
        (queue.root / "done" / "t-1.xyz789.tmp").write_text("{partial")
        queue.enqueue("t-2", "task")
        assert queue.reset() == 3  # both orphans + the pending task
        assert not list(queue.root.rglob("*.tmp"))
        assert queue.pending_ids() == set()

    def test_stats_failed_count_never_parses_marker_files(self, tmp_path, monkeypatch):
        """stats() is polled continuously by the coordinator: it must count
        failed/ directory entries, not read+JSON-parse every marker (that is
        failed_tasks()'s job, reserved for error reporting)."""
        queue = WorkQueue(tmp_path / "q")
        for index in range(2):
            queue.enqueue(f"t-{index}", "task")
            queue.fail(queue.claim("w"), "w", "boom")

        def _must_not_be_called(self):
            raise AssertionError("stats() must not parse failure markers")

        monkeypatch.setattr(WorkQueue, "failed_tasks", _must_not_be_called)
        assert queue.stats().failed == 2
        assert queue.stats().describe() == "0 pending, 0 claimed, 0 done, 2 failed"

    def test_discard_failure_clears_marker(self, tmp_path):
        queue = WorkQueue(tmp_path / "q")
        queue.enqueue("t-0", "task")
        queue.fail(queue.claim("w"), "w", "boom")
        assert queue.discard_failure("t-0")
        assert queue.failed_tasks() == {}
        assert not queue.discard_failure("t-0")  # already gone

    def test_stop_sentinel(self, tmp_path):
        queue = WorkQueue(tmp_path / "q")
        assert not queue.stop_requested()
        queue.write_stop()
        assert queue.stop_requested()
        queue.clear_stop()
        assert not queue.stop_requested()

    def test_unsafe_task_id_rejected(self, tmp_path):
        queue = WorkQueue(tmp_path / "q")
        with pytest.raises(ExperimentError):
            queue.enqueue("../escape", "task")

    def test_nonpositive_lease_rejected(self, tmp_path):
        with pytest.raises(ExperimentError):
            WorkQueue(tmp_path / "q", lease_timeout_s=0)

    def test_implements_queue_transport_protocol(self, tmp_path):
        assert isinstance(WorkQueue(tmp_path / "q"), QueueTransport)
        assert isinstance(WorkQueue(tmp_path / "q"), WorkerQueueTransport)
        assert WorkQueue(tmp_path / "q").wants_results is False


class TestLeaseClockSkew:
    """Lease ages must come from the filesystem's clock, not the coordinator's
    wall clock: with cross-host skew larger than the lease timeout, the old
    `time.time()` comparison re-queued live claims or kept dead ones forever."""

    def test_live_claim_survives_coordinator_clock_running_ahead(self, tmp_path, monkeypatch):
        queue = WorkQueue(tmp_path / "q", lease_timeout_s=30)
        queue.enqueue("t-0", "task")
        assert queue.claim("live-worker") is not None
        real_time = time.time
        monkeypatch.setattr(time, "time", lambda: real_time() + 3600)
        # Old behaviour: age = skewed_now - mtime = ~1 h > 30 s -> spurious re-queue.
        assert queue.requeue_expired() == []
        assert queue.claimed_ids() == {"t-0"}
        assert queue.has_live_claims()

    def test_dead_claim_expires_despite_coordinator_clock_running_behind(
        self, tmp_path, monkeypatch
    ):
        queue = WorkQueue(tmp_path / "q", lease_timeout_s=5)
        queue.enqueue("t-0", "task")
        claim = queue.claim("doomed-worker")
        # The worker died a minute ago by the filesystem's clock.
        stale = queue.filesystem_now() - 60
        os.utime(claim.path, times=(stale, stale))
        real_time = time.time
        monkeypatch.setattr(time, "time", lambda: real_time() - 3600)
        # Old behaviour: age = skewed_now - mtime < 0 -> the lease never expires.
        assert not queue.has_live_claims()
        assert queue.requeue_expired() == ["t-0"]
        assert queue.pending_ids() == {"t-0"}

    def test_filesystem_now_tracks_claim_mtimes(self, tmp_path):
        queue = WorkQueue(tmp_path / "q", lease_timeout_s=30)
        queue.enqueue("t-0", "task")
        claim = queue.claim("w")
        # Probe and claim are stamped by the same clock: ages are near zero.
        assert abs(queue.filesystem_now() - claim.path.stat().st_mtime) < 5.0


class TestTaskRetries:
    """One transient task failure must not abort a multi-hour sweep: the
    coordinator re-queues failed tasks up to RuntimeConfig.task_retries times,
    and the final error reports the attempt count."""

    @pytest.fixture(params=TRANSPORTS)
    def retry_queue(self, request, tmp_path):
        if request.param == "file":
            yield WorkQueue(tmp_path / "q")
        else:
            server = QueueServer(lease_timeout_s=30)
            yield server
            server.close()

    @staticmethod
    def _fail_once(queue, error="TransientError: boom"):
        queue.enqueue("t-0", "payload")
        queue.fail(queue.claim("w"), "w", error)

    def test_failed_task_requeued_within_budget(self, retry_queue):
        self._fail_once(retry_queue)
        retries_used: dict[str, int] = {}
        retried = reconcile_failed_tasks(
            retry_queue, {"t-0"}, {"t-0": "payload"}, retries_used, task_retries=1
        )
        assert retried == ["t-0"]
        assert retries_used == {"t-0": 1}
        assert retry_queue.failed_tasks() == {}  # marker discarded
        revived = retry_queue.claim("second-worker")  # and claimable again
        assert revived is not None and revived.payload == "payload"

    def test_exhausted_budget_raises_with_attempt_count(self, retry_queue):
        self._fail_once(retry_queue)
        retries_used: dict[str, int] = {}
        reconcile_failed_tasks(retry_queue, {"t-0"}, {"t-0": "payload"}, retries_used, 1)
        retry_queue.fail(retry_queue.claim("w"), "w", "TransientError: boom again")
        with pytest.raises(ExperimentError, match=r"failed after 2 attempt"):
            reconcile_failed_tasks(retry_queue, {"t-0"}, {"t-0": "payload"}, retries_used, 1)

    def test_zero_retries_fails_on_first_marker(self, retry_queue):
        self._fail_once(retry_queue)
        with pytest.raises(ExperimentError, match=r"failed after 1 attempt"):
            reconcile_failed_tasks(retry_queue, {"t-0"}, {"t-0": "payload"}, {}, task_retries=0)

    def test_failures_of_finished_tasks_are_ignored(self, retry_queue):
        """A marker for a task no longer in `remaining` (finished on retry by
        another worker) must not trip the reconciliation."""
        self._fail_once(retry_queue)
        assert reconcile_failed_tasks(retry_queue, set(), {}, {}, task_retries=0) == []


# ---------------------------------------------------------------------------
# TCP transport (netqueue)
# ---------------------------------------------------------------------------


class TestNetQueue:
    def test_lifecycle_persists_uploaded_results_coordinator_side(self, tmp_path):
        """enqueue -> claim -> renew -> ack-with-result over a real socket; the
        uploaded result must land in the coordinator's local store exactly as
        a shared-store save would have written it."""
        store = ResultStore(tmp_path / "store")
        server = QueueServer(lease_timeout_s=30, result_store=store)
        try:
            client = NetWorkQueue(server.url)
            server.enqueue("t-0", {"n": 0})
            server.enqueue("t-1", {"n": 1})
            claim = client.claim("worker-a")
            assert claim is not None and claim.task_id == "t-0"
            assert claim.payload == {"n": 0}
            assert server.stats().describe() == "1 pending, 1 claimed, 0 done, 0 failed"
            client.renew(claim)

            key = TaskKey("job", "random-0", "postgres", seed=1)
            result = _sample_result()
            client.ack(
                claim,
                "worker-a",
                ResultUpload(key=key, fingerprint="ctx", result=result.to_dict()),
            )
            assert server.done_ids() == {"t-0"}
            assert store.load(key, "ctx").to_dict() == result.to_dict()
            # Byte-parity with a direct save of the same result.
            reference = ResultStore(tmp_path / "reference")
            reference.save(key, result, "ctx")
            assert (
                store.path_for(key, "ctx").read_bytes()
                == reference.path_for(key, "ctx").read_bytes()
            )

            second = client.claim("worker-a")
            client.fail(second, "worker-a", "ValueError: boom")
            assert server.failed_tasks() == {"t-1": "ValueError: boom"}
            assert not client.stop_requested()
            server.write_stop()
            assert client.stop_requested()
        finally:
            server.close()

    def test_claim_is_exclusive_and_expired_lease_is_requeued(self):
        server = QueueServer(lease_timeout_s=0.05)
        try:
            client = NetWorkQueue(server.url)
            server.enqueue("only", "task")
            first = client.claim("a")
            assert first is not None
            assert client.claim("b") is None  # exclusive
            time.sleep(0.1)  # the claimer never renews: lease expires
            assert server.requeue_expired() == ["only"]
            assert not server.has_live_claims()
            revived = client.claim("b")
            assert revived is not None and revived.payload == "task"
        finally:
            server.close()

    def test_renew_keeps_server_side_lease_alive(self):
        server = QueueServer(lease_timeout_s=0.2)
        try:
            client = NetWorkQueue(server.url)
            server.enqueue("t-0", "task")
            claim = client.claim("steady")
            for _ in range(3):
                time.sleep(0.1)
                client.renew(claim)
            assert server.requeue_expired() == []
            assert server.has_live_claims()
        finally:
            server.close()

    def test_zombie_ack_after_requeue_wins(self, tmp_path):
        """A worker that outlives its lease may ack a task that was already
        re-queued: the (identical) result wins and the duplicate is dropped."""
        store = ResultStore(tmp_path / "store")
        server = QueueServer(lease_timeout_s=0.05, result_store=store)
        try:
            client = NetWorkQueue(server.url)
            server.enqueue("t-0", "task")
            zombie = client.claim("zombie")
            time.sleep(0.1)
            assert server.requeue_expired() == ["t-0"]  # back in pending
            key = TaskKey("job", "s", "postgres")
            client.ack(zombie, "zombie", ResultUpload(key, "ctx", _sample_result().to_dict()))
            assert server.done_ids() == {"t-0"}
            assert server.pending_ids() == set()  # duplicate dropped
            assert store.exists(key, "ctx")
        finally:
            server.close()

    def test_ack_rejected_by_server_raises_and_task_stays_undone(self, tmp_path):
        """A coordinator-side persistence failure must surface to the acking
        caller (not be swallowed like a dead connection) and must not mark the
        task done — its result never reached disk."""
        store = ResultStore(tmp_path / "store")
        server = QueueServer(lease_timeout_s=30, result_store=store)
        try:
            def boom(*args, **kwargs):
                raise RuntimeError("disk full")

            store.save_raw = boom
            client = NetWorkQueue(server.url)
            server.enqueue("t-0", "task")
            claim = client.claim("w")
            upload = ResultUpload(TaskKey("job", "s", "postgres"), "ctx", {})
            with pytest.raises(ExperimentError, match="disk full"):
                client.ack(claim, "w", upload)
            assert server.done_ids() == set()
        finally:
            server.close()

    def test_worker_loop_converts_ack_rejection_into_failure_marker(self, tmp_path):
        """An ack rejection must not kill the worker process: the loop files a
        failure marker carrying the real cause and keeps draining."""
        from repro.runtime.worker import run_worker

        spec, workload, split = _spec_grid_parts()
        runner = ParallelExperimentRunner(
            spec,
            workload,
            experiment_config=GRID_CONFIG,
            runtime_config=sweep_runtime(tmp_path, "tcp", workers=1, shard_count=2),
        )
        store = runner.result_store
        server = QueueServer(lease_timeout_s=30, result_store=store)
        try:
            def boom(*args, **kwargs):
                raise RuntimeError("disk full")

            store.save_raw = boom
            task = runner.tasks_for(("postgres",), [split])[0]
            payload = replace(runner.spec_payload(task), store_root=None, store_shards=0)
            server.enqueue("t-0", payload)
            completed = run_worker(
                server.url, worker_id="w", idle_timeout_s=1.0, max_tasks=2, lease_renew_s=0.5
            )
            assert completed == 0  # the task executed but was never acked
            assert "ack rejected" in server.failed_tasks().get("t-0", "")
            assert "disk full" in server.failed_tasks()["t-0"]
            assert server.done_ids() == set()
        finally:
            server.close()

    def test_dead_server_reads_as_stop(self):
        server = QueueServer(lease_timeout_s=5)
        url = server.url
        server.close()
        client = NetWorkQueue(url, timeout_s=2.0)
        assert client.claim("w") is None
        assert client.stop_requested()

    def test_reset_clears_all_state(self):
        server = QueueServer(lease_timeout_s=30)
        try:
            server.enqueue("t-0", "a")
            server.enqueue("t-1", "b")
            claim = server.claim("w")
            server.ack(claim, "w")
            server.write_stop()
            assert server.reset() == 2  # 1 pending + 1 done
            assert server.stats().describe() == "0 pending, 0 claimed, 0 done, 0 failed"
            assert not server.stop_requested()
        finally:
            server.close()

    def test_server_implements_queue_transport_protocol(self):
        server = QueueServer(lease_timeout_s=30)
        try:
            assert isinstance(server, QueueTransport)
            assert server.wants_results is True
            client = NetWorkQueue(server.url)
            assert isinstance(client, WorkerQueueTransport)
            assert client.wants_results is True
        finally:
            server.close()

    def test_client_rejects_non_tcp_url(self):
        with pytest.raises(ExperimentError, match="tcp"):
            NetWorkQueue("file:///tmp/queue")

    def test_unknown_op_is_rejected_not_hung(self):
        server = QueueServer(lease_timeout_s=30)
        try:
            client = NetWorkQueue(server.url)
            with pytest.raises(ExperimentError, match="unknown queue op"):
                client._request({"op": "frobnicate"})
        finally:
            server.close()


class _ScriptedQueue:
    """A worker transport on a fake clock: a task appears and the stop is
    written at scripted times, and every operation is logged with its time."""

    wants_results = False

    def __init__(self, clock: dict, task_at: float | None, stop_at: float) -> None:
        self.clock, self.task_at, self.stop_at = clock, task_at, stop_at
        self.claims_at: list[float] = []
        self.acked: list[str] = []

    def claim(self, worker_id, shard=None):
        self.claims_at.append(self.clock["now"])
        if self.task_at is not None and self.clock["now"] >= self.task_at:
            self.task_at = None
            return TaskClaim("t-0", payload="payload")
        return None

    def stop_requested(self):
        return self.clock["now"] >= self.stop_at

    def wait_for_work(self, timeout_s, shard=None):
        time.sleep(timeout_s)  # the file queue's wait, on the scripted clock

    def renew(self, claim):
        pass

    def ack(self, claim, worker_id, result=None):
        self.acked.append(claim.task_id)

    def fail(self, claim, worker_id, error):  # pragma: no cover - nothing fails here
        raise AssertionError(error)


class TestWorkerIdleBackoff:
    """An idle worker sleeps 10 ms, then twice as long each time up to the
    poll interval; a claim starts it over.  It never sleeps longer than the
    poll interval, so a stop written while it sleeps is seen within one."""

    @staticmethod
    def drain(monkeypatch, queue: _ScriptedQueue, clock: dict, poll_interval_s: float) -> list[float]:
        from repro.runtime import worker

        sleeps: list[float] = []

        def sleep(seconds: float) -> None:
            sleeps.append(seconds)
            clock["now"] += seconds

        monkeypatch.setattr(worker.time, "sleep", sleep)
        monkeypatch.setattr(worker.time, "monotonic", lambda: clock["now"])
        completed = worker._worker_loop(
            queue, "w", poll_interval_s, None, None, 5.0, None,
            lambda payload: None, lambda payload: None,
        )
        assert completed == len(queue.acked)
        return sleeps

    def test_sleep_doubles_up_to_the_poll_interval_and_a_claim_resets_it(self, monkeypatch):
        clock = {"now": 0.0}
        queue = _ScriptedQueue(clock, task_at=1.0, stop_at=2.0)
        sleeps = self.drain(monkeypatch, queue, clock, poll_interval_s=0.2)
        assert queue.acked == ["t-0"]
        ramp = [0.01, 0.02, 0.04, 0.08, 0.16, 0.2]
        assert sleeps[:8] == pytest.approx(ramp + [0.2, 0.2])
        claimed = next(i for i, at in enumerate(queue.claims_at) if at >= 1.0)
        # Every sleep before the claim is one of the ramp, the ones after it start over.
        assert sleeps[claimed:claimed + 6] == pytest.approx(ramp)
        assert max(sleeps) == pytest.approx(0.2)

    def test_stop_written_during_a_sleep_is_seen_within_the_poll_interval(self, monkeypatch):
        for stop_at in (0.005, 0.333, 1.234, 7.0):
            clock = {"now": 0.0}
            queue = _ScriptedQueue(clock, task_at=None, stop_at=stop_at)
            sleeps = self.drain(monkeypatch, queue, clock, poll_interval_s=0.2)
            assert stop_at <= clock["now"] <= stop_at + 0.2
            assert max(sleeps) <= 0.2

    def test_poll_interval_below_the_first_sleep_caps_every_sleep(self, monkeypatch):
        clock = {"now": 0.0}
        queue = _ScriptedQueue(clock, task_at=None, stop_at=0.05)
        assert set(self.drain(monkeypatch, queue, clock, poll_interval_s=0.004)) == {0.004}


class TestWaitForChange:
    """The coordinator's pause: the TCP queue ends it on an ack, a failure or
    a hungry shard; the file queue sleeps it out."""

    def test_queue_server_returns_on_ack_fail_and_hungry_mark(self):
        server = QueueServer(lease_timeout_s=30)
        try:
            started = time.monotonic()
            server.wait_for_change(0.05)  # nothing happened: the full timeout
            assert time.monotonic() - started >= 0.04
            for act in ("ack", "fail", "hungry"):
                server.enqueue(f"t-{act}", "payload", shard=0)
                claim = server.claim("w", shard=0)
                timer = threading.Timer(0.05, {
                    "ack": lambda: server.ack(claim, "w"),
                    "fail": lambda: server.fail(claim, "w", "boom"),
                    "hungry": lambda: server.claim("w", shard=1),
                }[act])
                timer.start()
                started = time.monotonic()
                server.wait_for_change(5.0)
                waited = time.monotonic() - started
                timer.join(timeout=5)
                assert not timer.is_alive() and waited < 2.0, act
            # A change that lands while the coordinator is busy is not lost ...
            server.fail(claim, "w", "again")
            started = time.monotonic()
            server.wait_for_change(5.0)
            assert time.monotonic() - started < 2.0
            # ... and is consumed by the call that saw it.
            started = time.monotonic()
            server.wait_for_change(0.05)
            assert time.monotonic() - started >= 0.04
        finally:
            server.close()

    def test_a_claim_that_finds_work_does_not_wake_the_coordinator(self):
        server = QueueServer(lease_timeout_s=30)
        try:
            server.enqueue("t-0", "payload", shard=0)
            assert server.claim("w", shard=0) is not None
            assert server.claim("w") is None  # unpinned and empty-handed: no hungry mark
            started = time.monotonic()
            server.wait_for_change(0.05)
            assert time.monotonic() - started >= 0.04
        finally:
            server.close()

    def test_file_queue_sleeps_the_interval_out(self, tmp_path):
        queue = WorkQueue(tmp_path / "q")
        queue.enqueue("t-0", {"x": 1})
        claim = queue.claim("w")
        queue.ack(claim, "w")
        started = time.monotonic()
        queue.wait_for_change(0.05)
        assert time.monotonic() - started >= 0.04


class TestWaitForWork:
    """An idle worker's pause: the TCP queue ends it as soon as a claim would
    find a task or a stop is written; the file queue sleeps it out."""

    @staticmethod
    def waited(wait, act=None) -> float:
        timer = threading.Timer(0.05, act) if act is not None else None
        if timer is not None:
            timer.start()
        started = time.monotonic()
        wait()
        elapsed = time.monotonic() - started
        if timer is not None:
            timer.join(timeout=5)
            assert not timer.is_alive()
        return elapsed

    def test_queue_server_returns_on_enqueue_requeue_steal_and_stop(self):
        server = QueueServer(lease_timeout_s=0.05)
        client = NetWorkQueue(server.url, retries=0)
        try:
            assert self.waited(lambda: client.wait_for_work(0.1)) >= 0.09  # nothing to claim
            assert self.waited(lambda: client.wait_for_work(5.0), lambda: server.enqueue("t-0", "p")) < 2.0
            assert self.waited(lambda: client.wait_for_work(5.0)) < 1.0  # work already there
            assert client.claim("w") is not None
            time.sleep(0.1)  # the lease runs out
            assert self.waited(lambda: client.wait_for_work(5.0), server.requeue_expired) < 2.0
            assert client.claim("w") is not None
            # Shard 1 starves while shard 0 holds two tasks: a steal feeds it.
            server.enqueue("t-1", "p", shard=0)
            server.enqueue("t-2", "p", shard=0)
            assert client.claim("w", shard=1) is None
            assert self.waited(lambda: client.wait_for_work(5.0, shard=1), server.rebalance) < 2.0
            assert client.claim("w", shard=1).task_id == "t-2"
            assert client.claim("w", shard=1) is None
            assert self.waited(lambda: client.wait_for_work(5.0, shard=1), server.write_stop) < 2.0
        finally:
            client.close()
            server.close()

    def test_work_on_another_shard_does_not_end_the_wait(self):
        server = QueueServer(lease_timeout_s=30)
        try:
            waited = self.waited(lambda: server.wait_for_work(0.2, shard=1), lambda: server.enqueue("t", "p", shard=0))
            assert waited >= 0.19
        finally:
            server.close()

    def test_file_queue_sleeps_the_interval_out(self, tmp_path):
        queue = WorkQueue(tmp_path / "q")
        queue.enqueue("t-0", {"x": 1})
        assert self.waited(lambda: queue.wait_for_work(0.05)) >= 0.04

    def test_closing_an_idle_server_is_immediate(self):
        """No accept-loop poll to wait out, with or without a kept connection."""
        from repro.catalog.imdb import generate_imdb
        from repro.runtime.planserver import PlanServer

        queue = QueueServer()
        kept = NetWorkQueue(queue.url, retries=0)
        assert kept.stop_requested() is False
        servers = {"queue": queue, "plan": PlanServer(generate_imdb(scale=0.02, seed=1))}
        for name, server in servers.items():
            started = time.monotonic()
            server.close()
            assert time.monotonic() - started < 0.05, name
        kept.close()


class TestQueueUrlParsing:
    def test_tcp_and_file_and_bare_paths(self):
        tcp = parse_queue_url("tcp://10.0.0.5:7077")
        assert (tcp.scheme, tcp.host, tcp.port) == ("tcp", "10.0.0.5", 7077)
        assert parse_queue_url("file:///shared/q").path == "/shared/q"
        assert parse_queue_url("/shared/q").scheme == "file"

    @pytest.mark.parametrize(
        "url", ["tcp://", "tcp://host", "tcp://host:notaport", "tcp://host:70777", "nfs://x/y", "file://"]
    )
    def test_malformed_urls_rejected(self, url):
        with pytest.raises(ExperimentError):
            parse_queue_url(url)

    def test_file_url_with_remote_authority_rejected(self):
        """file://shared/sweep (two slashes) names host "shared", not the path
        /shared/sweep — silently treating it as a CWD-relative path would point
        the coordinator at the wrong local directory while remote workers drain
        the real mount."""
        with pytest.raises(ExperimentError, match="authority"):
            parse_queue_url("file://shared/sweep/queue")

    def test_file_url_localhost_authority_accepted(self):
        assert parse_queue_url("file://localhost/shared/q").path == "/shared/q"


# ---------------------------------------------------------------------------
# Distributed execution end to end
# ---------------------------------------------------------------------------


class TestDistributedRunner:
    @pytest.mark.parametrize("transport", TRANSPORTS)
    def test_distributed_identical_to_serial_and_merge_loads(self, tmp_path, transport):
        """2 queue workers vs serial, on each transport: byte-identical
        results, sharded layout on disk, and every task loads from the merged
        flat store under its context fingerprint (the PR's acceptance
        criterion)."""
        spec, workload, split = _spec_grid_parts()
        runner = ParallelExperimentRunner(
            spec,
            workload,
            experiment_config=GRID_CONFIG,
            runtime_config=sweep_runtime(
                tmp_path, transport, workers=2, shard_count=4, lease_timeout_s=30
            ),
        )
        distributed = [run_result_as_json(r) for r in runner.run_grid(GRID_METHODS, [split])]

        serial = ParallelExperimentRunner(
            spec,
            workload,
            experiment_config=GRID_CONFIG,
            runtime_config=RuntimeConfig(workers=1),
        )
        expected = [run_result_as_json(r) for r in serial.run_grid(GRID_METHODS, [split])]
        assert distributed == expected

        store = runner.result_store
        assert isinstance(store, ShardedResultStore)
        stored = list(store.completed_files())
        assert len(stored) == len(GRID_METHODS)
        assert all(p.relative_to(store.root).parts[0].startswith("shard-") for p in stored)
        assert store.manifest()["context_fingerprints"]  # refreshed by the coordinator
        if transport == "tcp":
            # No shared queue directory exists, and every result was persisted
            # by the coordinator from worker uploads, not by the workers.
            assert not (store.root / "queue").exists()
            assert store.stored_count == len(GRID_METHODS)
        else:
            # File transport: the workers wrote the shared store themselves.
            assert store.stored_count == 0

        merged = store.merge(tmp_path / "merged")
        for task in runner.tasks_for(GRID_METHODS, [split]):
            key, fingerprint = runner.task_key(task), runner.task_fingerprint(task)
            assert merged.exists(key, fingerprint)
            merged.load(key, fingerprint)  # raises on fingerprint mismatch

    def test_dead_worker_claim_is_requeued_and_finished(self, tmp_path):
        """A claim whose worker died (claimed, never heart-beaten) must expire
        and be finished by a surviving worker, byte-identical to serial."""
        spec, workload, split = _spec_grid_parts()
        runner = ParallelExperimentRunner(
            spec,
            workload,
            experiment_config=GRID_CONFIG,
            runtime_config=distributed_runtime(
                tmp_path / "store", workers=1, shard_count=2, lease_timeout_s=1.0
            ),
        )
        tasks = runner.tasks_for(GRID_METHODS, [split])
        queue = WorkQueue(runner.result_store.root / "queue", lease_timeout_s=1.0)
        for index, task in enumerate(tasks):
            queue.enqueue(f"t-{index}", runner.spec_payload(task))
        # Simulate a worker that claimed a task and was then SIGKILLed: the
        # claim exists but its heartbeat never advances.
        doomed = queue.claim("doomed-worker")
        assert doomed is not None

        proc = runner._spawn_worker(queue.root, 0, lease_timeout_s=1.0)
        try:
            deadline = time.monotonic() + 180
            requeued: list[str] = []
            while time.monotonic() < deadline:
                requeued += queue.requeue_expired()
                if queue.done_ids() >= {f"t-{i}" for i in range(len(tasks))}:
                    break
                assert not queue.failed_tasks()
                time.sleep(0.2)
        finally:
            queue.write_stop()
            proc.wait(timeout=60)
        assert doomed.task_id in requeued  # the dead worker's lease was re-queued
        assert queue.done_ids() >= {f"t-{i}" for i in range(len(tasks))}

        serial = ParallelExperimentRunner(
            spec, workload, experiment_config=GRID_CONFIG, runtime_config=RuntimeConfig(workers=1)
        )
        expected = serial.run_grid(GRID_METHODS, [split])
        for task, reference in zip(tasks, expected):
            stored = runner.result_store.load(runner.task_key(task), runner.task_fingerprint(task))
            assert run_result_as_json(stored) == run_result_as_json(reference)

    @staticmethod
    def _spawn_isolated_worker(url: str, island: Path, index: int) -> subprocess.Popen:
        """A real worker process whose only link to the coordinator is the TCP
        url: it runs from (and temps into) its own island directory and is
        given no path the coordinator ever reads or writes."""
        island.mkdir(parents=True, exist_ok=True)
        source_root = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ)
        env["PYTHONPATH"] = str(source_root)
        env["TMPDIR"] = str(island)
        command = [
            sys.executable, "-m", "repro.runtime.worker", url,
            "--worker-id", f"island-{index}", "--lease-renew", "0.25",
        ]
        with open(island / "worker.log", "ab") as log:
            return subprocess.Popen(
                command, stdout=log, stderr=subprocess.STDOUT, env=env, cwd=str(island)
            )

    def test_tcp_sweep_with_isolated_workers_survives_dead_worker(self, tmp_path):
        """TCP transport end to end with zero filesystem sharing: a worker in
        an isolated island directory drains the queue over the socket, a
        SIGKILLed worker's claim (claimed, never renewed) is re-queued
        server-side, every result is persisted coordinator-locally from the
        upload frames, and the grid is byte-identical to serial."""
        spec, workload, split = _spec_grid_parts()
        runner = ParallelExperimentRunner(
            spec,
            workload,
            experiment_config=GRID_CONFIG,
            runtime_config=sweep_runtime(tmp_path, "tcp", workers=1, shard_count=2),
        )
        store = runner.result_store
        tasks = runner.tasks_for(GRID_METHODS, [split])
        want = {f"t-{index}" for index in range(len(tasks))}
        server = QueueServer(lease_timeout_s=1.0, result_store=store)
        proc = None
        island = tmp_path / "worker-island"
        try:
            for index, task in enumerate(tasks):
                payload = replace(runner.spec_payload(task), store_root=None, store_shards=0)
                server.enqueue(f"t-{index}", payload)
            # Simulate a SIGKILLed worker: it claimed over the wire and died —
            # its lease is never renewed again.
            doomed = NetWorkQueue(server.url).claim("doomed-worker")
            assert doomed is not None

            proc = self._spawn_isolated_worker(server.url, island, 0)
            deadline = time.monotonic() + 180
            requeued: list[str] = []
            while time.monotonic() < deadline:
                requeued += server.requeue_expired()
                if server.done_ids() >= want:
                    break
                assert not server.failed_tasks()
                time.sleep(0.2)
        finally:
            server.write_stop()
            if proc is not None:
                proc.wait(timeout=60)
            server.close()
        assert doomed.task_id in requeued  # the dead worker's lease was re-queued
        assert server.done_ids() >= want
        # The island shares nothing with the coordinator: no store, no queue
        # files ever appear there — only the worker's own log.
        assert not list(island.rglob("*.json"))
        assert not list(island.rglob("*.task"))
        # Every result reached the store through the coordinator's sink.
        assert store.stored_count >= len(tasks)

        serial = ParallelExperimentRunner(
            spec, workload, experiment_config=GRID_CONFIG, runtime_config=RuntimeConfig(workers=1)
        )
        expected = serial.run_grid(GRID_METHODS, [split])
        for task, reference in zip(tasks, expected):
            stored = store.load(runner.task_key(task), runner.task_fingerprint(task))
            assert run_result_as_json(stored) == run_result_as_json(reference)

    @pytest.mark.parametrize("transport", TRANSPORTS)
    def test_distributed_resume_skips_completed_tasks(self, tmp_path, transport):
        """A second distributed sweep over a fully-populated store enqueues
        nothing, spawns no workers and serves every result from disk."""
        spec, workload, split = _spec_grid_parts()

        def make_runner():
            return ParallelExperimentRunner(
                spec,
                workload,
                experiment_config=GRID_CONFIG,
                runtime_config=sweep_runtime(tmp_path, transport, workers=2, shard_count=2),
            )

        first = make_runner()
        original = [run_result_as_json(r) for r in first.run_grid(GRID_METHODS, [split])]

        second = make_runner()
        resumed = [run_result_as_json(r) for r in second.run_grid(GRID_METHODS, [split])]
        assert resumed == original
        assert second._distributed_procs == []  # nothing was queued, nobody spawned
        assert second.result_store.loaded_count == len(GRID_METHODS)

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
        """A hand-built database (no spec) cannot ship through the queue."""
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
