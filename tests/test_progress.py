"""Tests for sweep progress telemetry (`repro.runtime.progress`).

The snapshot arithmetic is exercised on :func:`next_snapshot` with explicit
clock readings, and the coordinator's wait loop
(``ParallelExperimentRunner._await_queue``) against a scripted queue whose
waits advance a fake clock: no sleeping and no worker processes.
"""

import json
import threading
from pathlib import Path
from types import SimpleNamespace

import pytest

from repro.config import RuntimeConfig
from repro.errors import ExperimentError
from repro.runtime import parallel
from repro.runtime.parallel import COORDINATOR_POLL_S, ParallelExperimentRunner
from repro.runtime.progress import ProgressSnapshot, next_snapshot
from repro.runtime.workqueue import BucketQueue, QueueStats


def chain(readings, total):
    """Snapshots of ``(elapsed_s, stats, workers)`` readings, each after the last."""
    snapshots: list[ProgressSnapshot] = []
    for elapsed_s, stats, workers in readings:
        previous = snapshots[-1] if snapshots else None
        snapshots.append(next_snapshot(stats, workers, total, elapsed_s, previous))
    return snapshots


class TestNextSnapshot:
    def test_throughput_eta_and_deltas(self):
        first, second, third = chain(
            [
                (10.0, QueueStats(pending=8, claimed=2, done=0, failed=0), {}),
                (20.0, QueueStats(pending=4, claimed=2, done=4, failed=0), {"w-0": 2, "w-1": 2}),
                (30.0, QueueStats(pending=0, claimed=0, done=10, failed=0), {"w-0": 5, "w-1": 5}),
            ],
            total=10,
        )
        assert first.sequence == 0 and first.done == 0 and first.remaining == 10
        assert first.throughput_per_s == 0.0
        assert first.eta_s is None  # no completions yet: no defensible estimate

        assert second.sequence == 1
        assert second.done == 4 and second.remaining == 6
        assert second.throughput_per_s == pytest.approx(4 / 20.0)
        assert second.recent_throughput_per_s == pytest.approx(4 / 10.0)
        # ETA prefers the recent rate: 6 remaining at 0.4/s.
        assert second.eta_s == pytest.approx(15.0)
        assert second.workers == {"w-0": 2, "w-1": 2}

        assert third.sequence == 2
        assert third.done == third.total == 10
        assert third.remaining == 0 and third.eta_s == 0.0

    def test_a_fully_resumed_sweep_reads_complete(self):
        """Nothing enqueued: the one snapshot is done, with no rate and no ETA to guess."""
        (snapshot,) = chain([(0.0, QueueStats(0, 0, 0, 0), {})], total=0)
        assert (snapshot.total, snapshot.remaining, snapshot.eta_s) == (0, 0, 0.0)
        assert snapshot.throughput_per_s == snapshot.recent_throughput_per_s == 0.0
        assert snapshot.describe().startswith("[0/0] | 0 pending")
        assert "eta 0s" in snapshot.describe()

    def test_eta_falls_back_to_overall_rate_when_window_is_idle(self):
        idle = QueueStats(6, 0, 4, 0)  # no progress this window
        _, snapshot = chain([(10.0, idle, {}), (20.0, idle, {})], total=10)
        assert snapshot.recent_throughput_per_s == 0.0
        assert snapshot.eta_s == pytest.approx(6 / (4 / 20.0))

    def test_to_dict_is_json_ready_and_stable(self):
        (snapshot,) = chain([(2.0, QueueStats(1, 2, 3, 4), {"b": 1, "a": 2})], total=10)
        payload = json.loads(snapshot.to_json())
        assert payload["pending"] == 1 and payload["claimed"] == 2
        assert payload["done"] == 3 and payload["failed"] == 4
        assert payload["total"] == 10 and payload["remaining"] == 7
        assert payload["workers"] == {"a": 2, "b": 1}
        assert set(payload) == {
            "sequence", "elapsed_s", "pending", "claimed", "done", "failed", "total",
            "remaining", "throughput_per_s", "recent_throughput_per_s", "eta_s", "workers",
        }
        assert "workers a:2, b:1" in snapshot.describe()


class FakeClock:
    def __init__(self, start=100.0):
        self.now = start

    def __call__(self):
        return self.now


class ScriptedQueue:
    """The coordinator's view of a queue whose every task is acked at ``done_at``.

    ``wait_for_change`` records its timeout and advances the clock by it, as
    a wait that no ack cut short would.
    """

    def __init__(self, clock, task_ids, done_at):
        self.clock, self.task_ids, self.done_at = clock, set(task_ids), done_at
        self.orphaned: list[list[str]] = []
        self.live: list[set[str]] = []  # the live workers of each sweep for orphans
        self.waits: list[float] = []

    def done_ids(self):
        return set(self.task_ids) if self.clock.now >= self.done_at else set()

    def failed_tasks(self):
        return {}

    def requeue_orphaned(self, live_workers):
        self.live.append(live_workers)
        return self.orphaned.pop(0) if self.orphaned else []

    def wait_for_change(self, timeout_s):
        # A real wait of <= 0 s returns at once: the coordinator would spin.
        assert timeout_s > 0, f"wait_for_change({timeout_s}) would not wait"
        self.waits.append(timeout_s)
        self.clock.now += timeout_s


def await_queue(monkeypatch, queue, clock, progress_interval_s, report=None, procs=()):
    """``_await_queue`` of a runner with the given interval, on the fake clock."""
    monkeypatch.setattr(parallel, "time", SimpleNamespace(monotonic=clock))
    runner = SimpleNamespace(
        runtime_config=RuntimeConfig(progress_interval_s=progress_interval_s),
        _distributed_requeued=0,
    )
    payloads = {task_id: "payload" for task_id in queue.task_ids}
    ParallelExperimentRunner._await_queue(runner, queue, payloads, list(procs), Path("logs"), report)
    return runner


class TestProgressReporter:
    """The closure the coordinator calls for each snapshot, on a real queue."""

    def test_snapshots_chain_from_the_reporters_creation(self, monkeypatch):
        clock = FakeClock()
        monkeypatch.setattr(parallel, "time", SimpleNamespace(monotonic=clock))
        queue = BucketQueue()
        for task_id in ("t-0", "t-1"):
            queue.enqueue(task_id, "payload")
        seen: list[ProgressSnapshot] = []
        # Made once the last worker was spawned: elapsed_s counts from here.
        report = ParallelExperimentRunner._progress_reporter(queue, 2, seen.append)
        clock.now += 0.5
        report()
        queue.ack(queue.claim("w-0"), "w-0")
        clock.now += 1.0
        report()
        assert [(s.sequence, s.elapsed_s, s.done, s.pending) for s in seen] == [
            (0, 0.5, 0, 2), (1, 1.5, 1, 1)
        ]
        assert seen[1].workers == {"w-0": 1} and seen[1].recent_throughput_per_s == 1.0

    def test_the_callback_runs_with_no_queue_lock_held(self):
        """A slow callback delays the coordinator, never the workers: another
        thread reads (and acks on) the queue while the callback runs."""
        queue = BucketQueue()
        queue.enqueue("t-0", "payload")
        finished = []

        def worker_meanwhile():
            queue.ack(queue.claim("w"), "w")
            finished.append(queue.stats().done)

        def callback(snapshot):
            other = threading.Thread(target=worker_meanwhile)
            other.start()
            other.join(timeout=10)
            assert not other.is_alive(), "the queue's lock was held during the callback"

        ParallelExperimentRunner._progress_reporter(queue, 1, callback)()
        assert finished == [1]


class TestCoordinatorLoop:
    def test_snapshots_fall_due_every_interval_and_cut_the_wait(self, monkeypatch):
        clock = FakeClock()
        queue = ScriptedQueue(clock, ["t-0"], done_at=101.7)
        reported: list[float] = []
        await_queue(monkeypatch, queue, clock, 0.5, report=lambda: reported.append(clock.now))
        assert reported == pytest.approx([100.5, 101.0, 101.5])
        # No wait outlasts the coordinator's poll bound or runs past a due snapshot.
        assert all(0 < wait <= COORDINATOR_POLL_S for wait in queue.waits)
        assert queue.waits[:3] == pytest.approx([COORDINATOR_POLL_S, COORDINATOR_POLL_S, 0.1])

    @pytest.mark.parametrize("interval, with_reporter", [(None, True), (0.5, False)])
    def test_no_interval_means_no_periodic_snapshot(self, monkeypatch, interval, with_reporter):
        """Without an interval, or with one but no reporter, every wait is the
        full poll bound: the loop never spins on a snapshot that is past due."""
        clock = FakeClock()
        queue = ScriptedQueue(clock, ["t-0"], done_at=101.0)
        reported: list[float] = []
        report = (lambda: reported.append(clock.now)) if with_reporter else None
        await_queue(monkeypatch, queue, clock, interval, report=report)
        assert reported == []
        assert queue.waits == [COORDINATOR_POLL_S] * 5

    def test_a_raising_callback_leaves_the_loop(self, monkeypatch):
        clock = FakeClock()
        queue = ScriptedQueue(clock, ["t-0"], done_at=110.0)

        def broken():
            raise TypeError("dashboard bug")

        with pytest.raises(TypeError, match="dashboard bug"):
            await_queue(monkeypatch, queue, clock, 0.5, report=broken)
        assert clock.now == pytest.approx(100.5)  # the first due snapshot, not the sweep's end

    def test_orphaned_claims_are_requeued_and_counted(self, monkeypatch):
        """Every round re-queues the claims no live forked worker holds."""
        clock = FakeClock()
        queue = ScriptedQueue(clock, ["t-0", "t-1"], done_at=100.5)
        queue.orphaned = [["t-0"], [], ["t-1"]]
        procs = [SimpleNamespace(poll=lambda: None), SimpleNamespace(poll=lambda: -9)]
        runner = await_queue(monkeypatch, queue, clock, None, procs=procs)
        assert runner._distributed_requeued == 2
        assert queue.live and all(live == {"local-0"} for live in queue.live)

    def test_exited_workers_end_the_sweep(self, monkeypatch):
        clock = FakeClock()
        queue = ScriptedQueue(clock, ["t-0", "t-1"], done_at=float("inf"))
        exited = [SimpleNamespace(returncode=code, poll=lambda code=code: code) for code in (1, -9)]
        with pytest.raises(ExperimentError, match=r"all 2 local .* codes \[1, -9\]\) with 2 task"):
            await_queue(monkeypatch, queue, clock, 0.5, procs=exited)
        assert queue.waits == []  # surfaced on the first round, not after a wait
