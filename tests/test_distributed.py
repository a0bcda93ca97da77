"""Tests for the distributed runtime: sharded store, work queue, queue workers.

The heavyweight end-to-end tests launch real ``python -m repro.runtime.worker``
processes against a coordinator-side TCP queue server, with workers running
out of directories that share nothing with the coordinator, and kill a
coordinator mid-sweep.
"""

import json
import multiprocessing
import os
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
from repro.runtime.netqueue import CLIENT_BACKOFF_S, CLIENT_RETRIES, NetWorkQueue, QueueAuthError, QueueServer
from repro.runtime.parallel import ParallelExperimentRunner, reconcile_failed_tasks
from repro.runtime.result_store import ResultStore, ShardedResultStore, TaskKey
from repro.runtime.workqueue import ResultUpload, WorkerQueueTransport, parse_queue_url
from repro.storage.registry import get_process_registry
from repro.storage.spec import DatabaseSpec
from repro.workloads import build_workload

GRID_METHODS = ("postgres", "bao")

#: Queue transports the end-to-end sweeps are exercised over.
TRANSPORTS = ("tcp",)


def sweep_runtime(tmp_path, transport, **overrides):
    """A distributed RuntimeConfig on the requested queue transport."""
    return distributed_runtime(tmp_path / "store", queue_url=f"{transport}://127.0.0.1:0", **overrides)

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
# Work queue
# ---------------------------------------------------------------------------


class TestTaskRetries:
    """One transient task failure must not abort a multi-hour sweep: the
    coordinator re-queues failed tasks up to RuntimeConfig.task_retries times,
    and the final error reports the attempt count."""

    @pytest.fixture
    def retry_queue(self, make_queue):
        return make_queue(lease_timeout_s=30)

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
        client = NetWorkQueue(server.url)
        try:
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
            client.close()
            server.close()

    def test_claim_is_exclusive_and_expired_lease_is_requeued(self):
        server = QueueServer(lease_timeout_s=0.05)
        client = NetWorkQueue(server.url)
        try:
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
            client.close()
            server.close()

    def test_renew_keeps_server_side_lease_alive(self):
        server = QueueServer(lease_timeout_s=0.2)
        client = NetWorkQueue(server.url)
        try:
            server.enqueue("t-0", "task")
            claim = client.claim("steady")
            for _ in range(3):
                time.sleep(0.1)
                client.renew(claim)
            assert server.requeue_expired() == []
            assert server.has_live_claims()
        finally:
            client.close()
            server.close()

    def test_zombie_ack_after_requeue_wins(self, tmp_path):
        """A worker that outlives its lease may ack a task that was already
        re-queued: the (identical) result wins and the duplicate is dropped."""
        store = ResultStore(tmp_path / "store")
        server = QueueServer(lease_timeout_s=0.05, result_store=store)
        client = NetWorkQueue(server.url)
        try:
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
            client.close()
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
            with NetWorkQueue(server.url) as client:
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
            server.enqueue("t-0", runner.spec_payload(task))
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

    def test_nonpositive_lease_rejected(self):
        with pytest.raises(ExperimentError):
            QueueServer(lease_timeout_s=0)

    def test_discard_failure_reports_whether_a_marker_was_dropped(self):
        server = QueueServer(lease_timeout_s=30)
        try:
            server.enqueue("t-0", "task")
            server.fail(server.claim("w"), "w", "boom")
            assert server.discard_failure("t-0")
            assert server.failed_tasks() == {}
            assert not server.discard_failure("t-0")  # already gone
        finally:
            server.close()

    def test_lease_ages_ignore_the_wall_clock(self, monkeypatch):
        """Leases are stamped and aged on the monotonic clock: a wall clock
        an hour ahead neither expires a live claim nor keeps a dead one."""
        server = QueueServer(lease_timeout_s=0.05)
        try:
            server.enqueue("t-0", "task")
            assert server.claim("live-worker") is not None
            real_time = time.time
            monkeypatch.setattr(time, "time", lambda: real_time() + 3600)
            assert server.requeue_expired() == [] and server.has_live_claims()
            monkeypatch.setattr(time, "time", lambda: real_time() - 3600)
            time.sleep(0.1)  # the claimer never renews
            assert server.requeue_expired() == ["t-0"]
        finally:
            server.close()

    def test_server_implements_the_worker_transport_protocol(self):
        """The worker loop can drive the server in process as well as over a socket."""
        server = QueueServer(lease_timeout_s=30)
        try:
            assert isinstance(server, WorkerQueueTransport)
        finally:
            server.close()

    def test_an_ack_from_an_earlier_sweep_leaves_this_sweeps_task_pending(self):
        """Task ids carry a sweep-unique prefix: a straggler still holding a
        claim of an earlier sweep cannot complete one of this sweep's tasks
        when the next sweep's server binds the same fixed port."""
        earlier = QueueServer(lease_timeout_s=30)
        straggler = NetWorkQueue(earlier.url)
        try:
            earlier.enqueue("aaaa-0000", "old")
            stale = straggler.claim("straggler")
            earlier.close()
            server = QueueServer(host="127.0.0.1", port=earlier.port, lease_timeout_s=30)
            try:
                assert server.url == earlier.url
                server.enqueue("bbbb-0000", "new")
                straggler.ack(stale, "straggler")  # reconnects to the new server
                assert server.pending_ids() == {"bbbb-0000"}
                with NetWorkQueue(server.url) as client:
                    revived = client.claim("w")
                assert revived is not None and (revived.task_id, revived.payload) == ("bbbb-0000", "new")
            finally:
                server.close()
        finally:
            straggler.close()
            earlier.close()

    def test_a_negative_wait_returns_at_once(self):
        """The server clamps a wait to [0, its frame deadline]: a negative
        timeout is an immediate answer, not an error or a hang."""
        server = QueueServer(lease_timeout_s=30)
        client = NetWorkQueue(server.url, retries=0)
        try:
            started = time.monotonic()
            assert client._request({"op": "wait", "timeout_s": -5.0})["ok"]
            assert time.monotonic() - started < 1.0
        finally:
            client.close()
            server.close()

    def test_client_implements_the_worker_transport_protocol(self):
        server = QueueServer(lease_timeout_s=30)
        try:
            with NetWorkQueue(server.url) as client:
                assert isinstance(client, WorkerQueueTransport)
        finally:
            server.close()

    def test_client_rejects_non_tcp_url(self):
        with pytest.raises(ExperimentError, match="tcp"):
            NetWorkQueue("file:///tmp/queue")

    def test_unknown_op_is_rejected_not_hung(self):
        server = QueueServer(lease_timeout_s=30)
        client = NetWorkQueue(server.url)
        try:
            with pytest.raises(ExperimentError, match="unknown queue op"):
                client._request({"op": "frobnicate"})
        finally:
            client.close()
            server.close()


class TestIdleWorker:
    def test_each_empty_claim_is_followed_by_one_wait_of_the_poll_interval(self):
        """The worker loop does not pace itself: it hands the queue the whole
        poll interval, and the queue ends a wait early on work or a stop."""
        from repro.runtime import worker

        class IdleQueue:
            def __init__(self) -> None:
                self.waits: list[float] = []

            def claim(self, worker_id):
                return None

            def stop_requested(self):
                return len(self.waits) == 3

            def wait_for_work(self, timeout_s):
                self.waits.append(timeout_s)

        queue = IdleQueue()
        assert worker._worker_loop(queue, "w", 0.2, None, None, 5.0, execute=None) == 0
        assert queue.waits == [0.2, 0.2, 0.2]

    @staticmethod
    def start_loop(url: str, execute) -> tuple[threading.Thread, dict]:
        """The worker loop over the wire in a thread, with a 5 s poll interval."""
        from repro.runtime import worker

        out: dict = {}

        def loop() -> None:
            with NetWorkQueue(url, retries=0) as client:
                out["completed"] = worker._worker_loop(client, "w", 5.0, None, None, 5.0, execute)

        thread = threading.Thread(target=loop, daemon=True)
        thread.start()
        time.sleep(0.2)  # long enough to find the queue empty and start waiting
        return thread, out

    def test_a_stop_written_during_a_wait_ends_the_loop_at_once(self):
        server = QueueServer(lease_timeout_s=30)
        try:
            thread, out = self.start_loop(server.url, execute=None)
            assert thread.is_alive()
            started = time.monotonic()
            server.write_stop()
            thread.join(timeout=10)
            assert not thread.is_alive() and time.monotonic() - started < 2.0
            assert out["completed"] == 0
        finally:
            server.close()

    def test_a_task_enqueued_during_a_wait_is_run_at_once(self, tmp_path):
        """The idle worker is woken by the enqueue, not by its poll interval,
        and its upload lands in the coordinator's store."""
        store = ResultStore(tmp_path / "store")
        server = QueueServer(lease_timeout_s=30, result_store=store)
        key = TaskKey("job", "random-0", "postgres", seed=1)
        try:
            thread, out = self.start_loop(server.url, execute=lambda payload: (_sample_result(), key, payload))
            started = time.monotonic()
            server.enqueue("t-0", "ctx")
            while server.done_ids() != {"t-0"} and time.monotonic() - started < 10:
                time.sleep(0.01)
            assert time.monotonic() - started < 2.0
            server.write_stop()
            thread.join(timeout=10)
            assert not thread.is_alive() and out["completed"] == 1
            assert store.load(key, "ctx").to_dict() == _sample_result().to_dict()
        finally:
            server.close()


class TestWaitForChange:
    """The coordinator's pause: the queue ends it on an ack or a failure."""

    def test_queue_server_returns_on_ack_and_fail(self):
        server = QueueServer(lease_timeout_s=30)
        try:
            started = time.monotonic()
            server.wait_for_change(0.05)  # nothing happened: the full timeout
            assert time.monotonic() - started >= 0.04
            for act in ("ack", "fail"):
                server.enqueue(f"t-{act}", "payload")
                claim = server.claim("w")
                timer = threading.Timer(0.05, {
                    "ack": lambda: server.ack(claim, "w"),
                    "fail": lambda: server.fail(claim, "w", "boom"),
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

    def test_an_ack_and_a_failure_over_the_wire_wake_the_coordinator(self):
        server = QueueServer(lease_timeout_s=30)
        client = NetWorkQueue(server.url, retries=0)
        try:
            for act in ("ack", "fail"):
                server.enqueue(f"t-{act}", "payload")
                claim = client.claim("w")
                timer = threading.Timer(0.05, {
                    "ack": lambda: client.ack(claim, "w"),
                    "fail": lambda: client.fail(claim, "w", "ValueError: boom"),
                }[act])
                timer.start()
                started = time.monotonic()
                server.wait_for_change(5.0)
                waited = time.monotonic() - started
                timer.join(timeout=5)
                assert not timer.is_alive() and waited < 2.0, act
            assert server.done_ids() == {"t-ack"}
            assert server.failed_tasks() == {"t-fail": "ValueError: boom"}
        finally:
            client.close()
            server.close()

    def test_a_claim_that_finds_work_does_not_wake_the_coordinator(self):
        server = QueueServer(lease_timeout_s=30)
        try:
            server.enqueue("t-0", "payload")
            assert server.claim("w") is not None
            assert server.claim("w") is None  # empty-handed: nothing the coordinator acts on
            started = time.monotonic()
            server.wait_for_change(0.05)
            assert time.monotonic() - started >= 0.04
        finally:
            server.close()

class TestWaitForWork:
    """An idle worker's pause: the queue ends it as soon as a claim would
    find a task or a stop is written."""

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

    def test_queue_server_returns_on_enqueue_requeue_and_stop(self):
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
            assert client.claim("w") is None
            assert self.waited(lambda: client.wait_for_work(5.0), server.write_stop) < 2.0
        finally:
            client.close()
            server.close()

    def test_a_client_wait_never_outlasts_its_own_socket_timeout(self):
        """The client asks for half its socket timeout at most, so a long
        poll interval ends in a normal answer, never in a recv timeout."""
        server = QueueServer(lease_timeout_s=30)
        client = NetWorkQueue(server.url, timeout_s=1.0, retries=0)
        try:
            elapsed = self.waited(lambda: client.wait_for_work(60.0))
            assert 0.45 <= elapsed < 1.0
            assert not client.stop_requested()  # the connection is still good
        finally:
            client.close()
            server.close()

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
    @pytest.mark.parametrize(
        ("url", "address"),
        [
            ("tcp://coordinator:1", ("coordinator", 1)),
            ("tcp://coordinator.example:65535", ("coordinator.example", 65535)),
            ("tcp://localhost:0", ("localhost", 0)),
        ],
    )
    def test_hostnames_and_the_port_range_bounds_accepted(self, url, address):
        parsed = parse_queue_url(url)
        assert (parsed.host, parsed.port) == address

    def test_tcp_host_and_port(self):
        tcp = parse_queue_url("tcp://10.0.0.5:7077")
        assert (tcp.host, tcp.port) == ("10.0.0.5", 7077)
        assert parse_queue_url("tcp://127.0.0.1:0").port == 0  # ephemeral

    @pytest.mark.parametrize(
        "url",
        [
            "tcp://", "tcp://host", "tcp://host:notaport", "tcp://host:70777", "nfs://x/y", "file://",
            "file:///shared/q", "/shared/q", "tcp://:7077", "tcp://host:-1", "tcp://host:65536",
            "tcp://host:7077/q", "TCP://host:7077",
        ],
    )
    def test_malformed_urls_rejected(self, url):
        with pytest.raises(ExperimentError):
            parse_queue_url(url)


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
        assert store.manifest()["shard_count"] == 4
        # No shared queue directory exists, and every result was persisted
        # by the coordinator from worker uploads, not by the workers.
        assert not (store.root / "queue").exists()
        assert store.stored_count == len(GRID_METHODS)

        merged = store.merge(tmp_path / "merged")
        for task in runner.tasks_for(GRID_METHODS, [split]):
            key, fingerprint = runner.task_key(task), runner.task_fingerprint(task)
            assert merged.exists(key, fingerprint)
            merged.load(key, fingerprint)  # raises on fingerprint mismatch

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
                server.enqueue(f"t-{index}", runner.spec_payload(task))
            # Simulate a SIGKILLed worker: it claimed over the wire and died —
            # its lease is never renewed again.
            with NetWorkQueue(server.url) as client:
                doomed = client.claim("doomed-worker")
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

    @pytest.mark.parametrize(("secret", "unsigned_client"), [(None, "rejected"), ("", "accepted")])
    def test_a_default_sweep_signs_every_frame(self, tmp_path, monkeypatch, secret, unsigned_client):
        """With no queue_secret and no REPRO_QUEUE_SECRET the sweep mints its
        own secret: an unsigned client is turned away while the sweep runs,
        and the grid still equals serial.  An explicit "" turns it off."""
        monkeypatch.delenv("REPRO_QUEUE_SECRET", raising=False)
        spec, workload, split = _spec_grid_parts()
        seen: list[str] = []

        def probe(snapshot):
            if seen:
                return
            with NetWorkQueue(runner._distributed_queue.url, secret="", retries=0) as intruder:
                try:
                    intruder.stats()
                    seen.append("accepted")
                except QueueAuthError:
                    seen.append("rejected")

        runner = ParallelExperimentRunner(
            spec,
            workload,
            experiment_config=GRID_CONFIG,
            runtime_config=distributed_runtime(
                tmp_path / "store", workers=1, shard_count=2, progress_interval_s=0.05,
                queue_secret=secret,
            ),
            progress_callback=probe,
        )
        distributed = [run_result_as_json(r) for r in runner.run_grid(GRID_METHODS, [split])]
        assert seen == [unsigned_client]
        serial = ParallelExperimentRunner(
            spec, workload, experiment_config=GRID_CONFIG, runtime_config=RuntimeConfig(workers=1)
        )
        assert distributed == [run_result_as_json(r) for r in serial.run_grid(GRID_METHODS, [split])]

    def test_an_environment_secret_keys_a_loopback_sweep(self, tmp_path, monkeypatch):
        """A set REPRO_QUEUE_SECRET is the sweep's secret: a client keyed with
        it is served and an unsigned one is not.  The default url binds
        loopback on a real port, and the queue leaves nothing on disk beside
        the store's results, its manifest and the worker logs."""
        monkeypatch.setenv("REPRO_QUEUE_SECRET", "env-secret")
        spec, workload, split = _spec_grid_parts()
        seen: dict[str, str] = {}

        def probe(snapshot):
            if seen:
                return
            seen["url"] = runner._distributed_queue.url
            for name, secret in (("keyed", "env-secret"), ("unsigned", "")):
                with NetWorkQueue(seen["url"], secret=secret, retries=0) as client:
                    try:
                        client.stats()
                        seen[name] = "accepted"
                    except QueueAuthError:
                        seen[name] = "rejected"

        runner = ParallelExperimentRunner(
            spec,
            workload,
            experiment_config=GRID_CONFIG,
            runtime_config=distributed_runtime(
                tmp_path / "store", workers=1, shard_count=2, progress_interval_s=0.05
            ),
            progress_callback=probe,
        )
        distributed = [run_result_as_json(r) for r in runner.run_grid(GRID_METHODS, [split])]
        host, _, port = seen["url"].removeprefix("tcp://").rpartition(":")
        assert host == "127.0.0.1" and int(port) > 0
        assert (seen["keyed"], seen["unsigned"]) == ("accepted", "rejected")
        store = runner.result_store
        on_disk = {path for path in store.root.rglob("*") if path.is_file()}
        logs = set((store.root / "worker-logs").iterdir())
        assert on_disk - logs == set(store.completed_files()) | {store.root / "manifest.json"}
        serial = ParallelExperimentRunner(
            spec, workload, experiment_config=GRID_CONFIG, runtime_config=RuntimeConfig(workers=1)
        )
        assert distributed == [run_result_as_json(r) for r in serial.run_grid(GRID_METHODS, [split])]

    @pytest.mark.parametrize("secret", ["sweep-secret", ""])
    def test_a_worker_gets_the_sweeps_secret_not_an_inherited_one(self, tmp_path, monkeypatch, secret):
        """The sweep's secret always replaces REPRO_QUEUE_SECRET in a local
        worker's environment: an explicit "" (authentication off) stays off
        there too, instead of the worker signing frames the server rejects."""
        monkeypatch.setenv("REPRO_QUEUE_SECRET", "inherited")
        launched: list[dict] = []

        def fake_popen(command, stdout, stderr, env):
            launched.append(env)

        monkeypatch.setattr(subprocess, "Popen", fake_popen)
        ParallelExperimentRunner._spawn_worker("tcp://127.0.0.1:7077", 0, 1.0, tmp_path, secret)
        assert [env["REPRO_QUEUE_SECRET"] for env in launched] == [secret]

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


# ---------------------------------------------------------------------------
# Fault injection: the coordinator dies mid-sweep
# ---------------------------------------------------------------------------

#: Repeats of the (postgres, bao) grid above the crash test runs: four tasks on
#: two workers, so a killed coordinator always leaves work undone.
CRASH_REPEATS = 2

#: A coordinator process over that grid, into the store named by its
#: argument; it prints its local workers' pids on every progress snapshot.
CRASH_COORDINATOR = """
import json, sys
sys.path.insert(0, {tests!r})
from test_distributed import CRASH_REPEATS, GRID_CONFIG, GRID_METHODS, _spec_grid_parts
from repro.experiments.common import distributed_runtime
from repro.runtime.parallel import ParallelExperimentRunner

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
    #: A request to a dead server fails after its retry budget; an orphaned
    #: worker spends it on at most three requests (the ack of the task it was
    #: running, an empty claim, the stop poll) after that task ends, plus one
    #: idle wait.  The task itself is a small cell; a minute covers it with
    #: room to spare, far below the 300 s idle timeout that would otherwise
    #: be an orphan's only way out.
    ORPHAN_EXIT_S = 60.0 + 3 * CLIENT_BACKOFF_S * (2 ** CLIENT_RETRIES - 1) + 0.2

    def test_orphans_exit_and_a_rerun_computes_only_what_is_missing(self, tmp_path):
        """SIGKILL a coordinator once its store holds a result: its workers
        read the vanished server as a stop and exit, a re-run enqueues only
        the tasks the store lacks, and the final store holds the bytes a
        serial run writes."""
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
        assert rerun._distributed_stolen == tasks - stored  # only the gap was enqueued

        serial = ParallelExperimentRunner(
            spec, workload, experiment_config=GRID_CONFIG,
            runtime_config=RuntimeConfig(store_dir=str(tmp_path / "serial"), shard_count=2),
        )
        serial.run_grid(GRID_METHODS, [split], repeats=CRASH_REPEATS)

        def result_bytes(store: ResultStore) -> dict:
            return {path.relative_to(store.root): path.read_bytes() for path in store.completed_files()}

        assert result_bytes(rerun.result_store) == result_bytes(serial.result_store)
