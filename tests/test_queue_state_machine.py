"""The work queue's one state machine, and the store's durable writes.

``BucketQueue`` holds the claim/ack logic as plain state behind one lock;
``QueueServer`` serves it over TCP.  These tests pin the queue's rules.
"""

import os
import stat
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.runtime import result_store
from repro.runtime.result_store import atomic_write_bytes

# The state machine's rules run on both views of the queue (``make_queue``,
# conftest): in process, and with every worker op over the wire.


class TestZombieAck:
    def test_late_ack_of_a_requeued_task_drops_the_pending_copy(self, make_queue):
        """enqueue -> claim -> the claimer is reaped -> requeue -> late ack
        (it landed while the worker died): the ack wins and nothing is left
        to run the task a second time."""
        queue = make_queue()
        queue.enqueue("t-0", "payload")
        zombie = queue.claim("zombie")
        assert zombie is not None
        assert queue.requeue_orphaned({"other"}) == ["t-0"]
        queue.ack(zombie, "zombie")
        assert queue.claim("other") is None
        stats = queue.stats()
        assert (stats.pending, stats.claimed, stats.done) == (0, 0, 1)
        assert queue.worker_done_counts() == {"zombie": 1}

    def test_an_ack_landing_before_the_orphan_sweep_wins(self, make_queue):
        """The worker acks, then dies before the coordinator's next round:
        the sweep finds nothing to re-queue, and the task completes once."""
        queue = make_queue()
        queue.enqueue("t-0", "payload")
        claim = queue.claim("doomed")
        queue.ack(claim, "doomed")
        assert queue.requeue_orphaned(set()) == []  # "doomed" was reaped after its ack
        assert queue.done_ids() == {"t-0"}
        assert queue.claim("other") is None  # nothing to execute a second time
        stats = queue.stats()
        assert (stats.pending, stats.claimed, stats.done) == (0, 0, 1)

    def test_a_late_ack_and_the_reclaimers_ack_complete_the_task_once(self, make_queue):
        """A dead worker's ack lands after its task was re-queued and claimed
        again: both acks land, and the task still reads as one completion."""
        queue = make_queue()
        queue.enqueue("t-0", "payload")
        zombie = queue.claim("zombie")
        assert queue.requeue_orphaned({"survivor"}) == ["t-0"]
        again = queue.claim("survivor")
        assert again is not None and again.task_id == "t-0"
        queue.ack(zombie, "zombie")
        queue.ack(again, "survivor")
        assert queue.done_ids() == {"t-0"}
        assert sum(queue.worker_done_counts().values()) == 1
        assert queue.requeue_orphaned(set()) == [] and queue.claim("survivor") is None
        stats = queue.stats()
        assert (stats.pending, stats.claimed, stats.done) == (0, 0, 1)

    def test_ack_drops_a_copy_queued_again_meanwhile(self, make_queue):
        queue = make_queue()
        queue.enqueue("t-0", "payload")
        claim = queue.claim("w")
        queue.enqueue("t-0", "payload")  # the same task, queued again meanwhile
        queue.ack(claim, "w")
        assert queue.pending_ids() == set()
        assert queue.claim("w") is None


class TestOnePendingPool:
    def test_tasks_are_handed_out_lowest_id_first(self, make_queue):
        queue = make_queue()
        for task_id in ("t-2", "t-0", "t-3", "t-1"):
            queue.enqueue(task_id, task_id)
        claims = [queue.claim(f"w-{index % 2}") for index in range(4)]
        assert [claim.task_id for claim in claims] == ["t-0", "t-1", "t-2", "t-3"]
        assert queue.claim("w-0") is None

    def test_a_requeued_claim_is_claimable_by_any_worker(self, make_queue):
        queue = make_queue()
        queue.enqueue("t-0", "payload")
        queue.enqueue("t-1", "payload")
        assert queue.claim("doomed").task_id == "t-0"
        assert queue.requeue_orphaned({"survivor", "another"}) == ["t-0"]  # doomed was reaped
        # Back in the one pool, ahead of the untouched higher id.
        revived = queue.claim("survivor")
        assert revived is not None and (revived.task_id, revived.payload) == ("t-0", "payload")
        assert queue.claim("another").task_id == "t-1"

    def test_claims_of_several_dead_workers_rejoin_the_pool_in_id_order(self, make_queue):
        queue = make_queue()
        for task_id in ("t-0", "t-1", "t-2"):
            queue.enqueue(task_id, task_id)
        held = {queue.claim(worker).task_id: worker for worker in ("w-a", "w-b", "w-c")}
        assert held == {"t-0": "w-a", "t-1": "w-b", "t-2": "w-c"}
        queue.enqueue("t-3", "t-3")
        assert queue.requeue_orphaned({"survivor"}) == ["t-0", "t-1", "t-2"]  # every holder died
        # One survivor drains the pool in id order: no task waits for its old owner.
        assert [queue.claim("survivor").task_id for _ in range(4)] == ["t-0", "t-1", "t-2", "t-3"]
        assert queue.claim("survivor") is None

    def test_a_retried_failure_rejoins_the_pool_in_id_order(self, make_queue):
        queue = make_queue()
        queue.enqueue("t-0", "t-0")
        queue.enqueue("t-1", "t-1")
        queue.fail(queue.claim("w-a"), "w-a", "boom")
        assert queue.failed_tasks() == {"t-0": "boom"}
        # The coordinator's retry: drop the marker, queue the task again.
        assert queue.discard_failure("t-0")
        queue.enqueue("t-0", "t-0")
        assert queue.claim("w-b").task_id == "t-0"
        assert queue.claim("w-a").task_id == "t-1"
        assert queue.failed_tasks() == {}


class TestQueueLifecycle:
    def test_a_stop_is_seen_by_every_poll(self, make_queue):
        queue = make_queue()
        assert not queue.stop_requested()
        queue.write_stop()
        assert queue.stop_requested() and queue.stop_requested()  # a poll does not consume it

    def test_a_stop_ends_every_claim(self, make_queue):
        """An aborted sweep runs no pending task: after the stop a claim finds
        nothing, while the claim already held can still be acked."""
        queue = make_queue()
        queue.enqueue("t-0", "t-0")
        queue.enqueue("t-1", "t-1")
        held = queue.claim("w")
        queue.write_stop()
        assert queue.claim("w") is None
        queue.ack(held, "w")
        assert queue.done_ids() == {"t-0"} and queue.pending_ids() == {"t-1"}

    def test_any_string_is_a_task_id(self, make_queue):
        """Tasks live in dicts, not in files: an id needs no filename check."""
        queue = make_queue()
        task_ids = ["../escape", "a/b", "with space", "t-0"]
        for task_id in task_ids:
            queue.enqueue(task_id, {"id": task_id})
        claims = [queue.claim("w") for _ in task_ids]
        assert [(claim.task_id, claim.payload) for claim in claims] == [
            (task_id, {"id": task_id}) for task_id in sorted(task_ids)
        ]
        for claim in claims:
            queue.ack(claim, "w")
        assert queue.done_ids() == set(task_ids)

    def test_stats_never_loads_a_marker(self, make_queue, monkeypatch):
        """The coordinator polls stats() every few hundred milliseconds: it
        counts entries and leaves the failure messages to failed_tasks()."""
        queue = make_queue()
        for index in range(2):
            queue.enqueue(f"t-{index}", "task")
            queue.fail(queue.claim("w"), "w", "boom")
        queue.enqueue("t-2", "task")
        queue.ack(queue.claim("w"), "w")

        def must_not_read():
            raise AssertionError("stats() read the failure messages")

        monkeypatch.setattr(getattr(queue, "server", queue), "failed_tasks", must_not_read)
        assert queue.stats().describe() == "0 pending, 0 claimed, 1 done, 2 failed"


class TestConcurrentClaims:
    def test_racing_claims_hand_each_task_out_once(self, make_queue):
        """More claiming threads than cores: each task goes to exactly one
        claim, however the threads interleave."""
        queue = make_queue()
        task_ids = [f"t-{index:03d}" for index in range(60)]
        for index, task_id in enumerate(task_ids):
            queue.enqueue(task_id, index)
        claimed: dict[str, list[str]] = {}
        lock = threading.Lock()
        deadline = time.monotonic() + 30

        def work(name: str) -> None:
            while time.monotonic() < deadline and len(queue.done_ids()) < len(task_ids):
                claim = queue.claim(name)
                if claim is None:
                    time.sleep(0.001)
                    continue
                with lock:
                    claimed.setdefault(claim.task_id, []).append(name)
                queue.ack(claim, name)

        threads = [
            threading.Thread(target=work, args=(f"w-{index}",), daemon=True)
            for index in range((os.cpu_count() or 1) + 4)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=35)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert queue.done_ids() == set(task_ids)
        assert {task: owners for task, owners in claimed.items() if len(owners) > 1} == {}
        stats = queue.stats()
        assert (stats.pending, stats.claimed, stats.done) == (0, 0, len(task_ids))

    def test_racing_claims_and_orphan_sweeps_hand_each_task_out_once(self, make_queue):
        """The coordinator sweeps for orphaned claims while workers claim and
        ack: a sweep never takes a live worker's claim back, so no task runs
        twice."""
        queue = make_queue()
        task_ids = [f"t-{index:03d}" for index in range(40)]
        for index, task_id in enumerate(task_ids):
            queue.enqueue(task_id, index)
        claimed: dict[str, list[str]] = {}
        requeued: list[str] = []
        lock = threading.Lock()
        stop = threading.Event()

        def work(name: str) -> None:
            while not stop.is_set():
                claim = queue.claim(name)
                if claim is None:
                    time.sleep(0.001)
                    continue
                with lock:
                    claimed.setdefault(claim.task_id, []).append(name)
                queue.ack(claim, name)

        names = [f"w-{index}" for index in range(4)]
        threads = [threading.Thread(target=work, args=(name,), daemon=True) for name in names]
        for thread in threads:
            thread.start()
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline and len(queue.done_ids()) < len(task_ids):
            requeued += queue.requeue_orphaned(set(names))
            time.sleep(0.002)
        stop.set()
        for thread in threads:
            thread.join(timeout=10)
        assert not any(thread.is_alive() for thread in threads)
        assert requeued == []  # every claimer was live
        assert queue.done_ids() == set(task_ids)
        assert {task: owners for task, owners in claimed.items() if len(owners) > 1} == {}


    def test_progress_polls_racing_acks_see_each_completion_once(self, make_queue):
        """The coordinator reads worker_done_counts() and stats() while
        workers ack: every read is one consistent pass over the markers."""
        queue = make_queue()
        task_ids = [f"t-{index:03d}" for index in range(40)]
        for index, task_id in enumerate(task_ids):
            queue.enqueue(task_id, index)
        polls: list[tuple[int, int]] = []
        done = threading.Event()

        def work(name: str) -> None:
            while (claim := queue.claim(name)) is not None:
                queue.ack(claim, name)

        def poll() -> None:
            while not done.is_set():
                counts = queue.worker_done_counts()
                polls.append((sum(counts.values()), queue.stats().done))

        poller = threading.Thread(target=poll, daemon=True)
        workers = [threading.Thread(target=work, args=(f"w-{index}",), daemon=True) for index in range(4)]
        poller.start()
        for thread in workers:
            thread.start()
        for thread in workers:
            thread.join(timeout=30)
        done.set()
        poller.join(timeout=10)
        assert not poller.is_alive() and not any(thread.is_alive() for thread in workers)
        assert polls
        # Completions only grow, and a count never runs ahead of the stats read after it.
        assert all(counted <= stats_done <= len(task_ids) for counted, stats_done in polls)
        assert [counted for counted, _ in polls] == sorted(counted for counted, _ in polls)
        counts = queue.worker_done_counts()
        assert sum(counts.values()) == len(task_ids) and set(counts) <= {f"w-{index}" for index in range(4)}


class TestClaimRecord:
    """What one claim records, and that a settled claim stays settled."""

    def test_a_claim_records_its_worker(self, make_queue):
        """A claim is its worker's until that worker is gone, and a re-queued
        task is the next claimer's: the dead worker's id no longer matters."""
        queue = make_queue()
        queue.enqueue("t-0", "payload")
        claim = queue.claim("w-a")
        assert (claim.task_id, claim.payload) == ("t-0", "payload")
        assert queue.claim("w-b") is None
        assert queue.claimed_ids() == {"t-0"} and queue.pending_ids() == set()
        assert queue.requeue_orphaned({"w-a"}) == []  # its worker is live
        assert queue.requeue_orphaned({"w-b"}) == ["t-0"]  # w-a was reaped
        assert queue.claimed_ids() == set() and queue.pending_ids() == {"t-0"}
        assert queue.claim("w-b").task_id == "t-0"
        assert queue.requeue_orphaned({"w-b"}) == []

    def test_an_acked_or_failed_claim_is_never_requeued(self, make_queue):
        """A sweep after an ack or a failure leaves the task settled: it only
        takes back claims still held."""
        queue = make_queue()
        for task_id in ("t-0", "t-1", "t-2"):
            queue.enqueue(task_id, task_id)
        acked, failed, zombie = (queue.claim(worker) for worker in ("w-a", "w-b", "w-c"))
        queue.ack(acked, "w-a")
        queue.fail(failed, "w-b", "boom")
        assert queue.requeue_orphaned(set()) == [zombie.task_id]  # every worker is gone
        assert queue.requeue_orphaned(set()) == []
        assert queue.claimed_ids() == set() and queue.done_ids() == {acked.task_id}
        assert queue.pending_ids() == {zombie.task_id}
        assert queue.stats().describe() == "1 pending, 0 claimed, 1 done, 1 failed"


class TestDurableWrites:
    def test_file_is_synced_before_the_rename_and_the_directory_after(self, tmp_path, monkeypatch):
        calls = []
        real_fsync, real_replace = os.fsync, os.replace

        def fsync(fd):
            calls.append("fsync dir" if stat.S_ISDIR(os.fstat(fd).st_mode) else "fsync file")
            real_fsync(fd)

        def replace(source, target):
            calls.append(f"replace {Path(target).name}")
            real_replace(source, target)

        monkeypatch.setattr(result_store.os, "fsync", fsync)
        monkeypatch.setattr(result_store.os, "replace", replace)
        atomic_write_bytes(tmp_path / "r.json", b"{}")
        assert calls == ["fsync file", "replace r.json", "fsync dir"]
        assert (tmp_path / "r.json").read_bytes() == b"{}"

    def test_a_failed_sync_publishes_nothing(self, tmp_path, monkeypatch):
        def fsync(fd):
            raise OSError("disk gone")

        monkeypatch.setattr(result_store.os, "fsync", fsync)
        with pytest.raises(OSError, match="disk gone"):
            atomic_write_bytes(tmp_path / "r.json", b"{}")
        assert list(tmp_path.iterdir()) == []
