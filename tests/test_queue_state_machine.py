"""The work queue's one state machine over its two storages, and durable writes.

``BucketQueue`` holds the claim/lease/steal/ack logic once; ``WorkQueue``
(directories) and ``QueueServer`` (in-memory dicts) only implement its storage
primitives.  These tests pin rules both transports now share by construction
and the primitive contract the machine relies on, parametrized over both.
"""

import os
import stat
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.runtime import result_store
from repro.runtime.netqueue import QueueServer
from repro.runtime.result_store import atomic_write_bytes
from repro.runtime.workqueue import CLAIMED, PENDING, WorkQueue

TRANSPORTS = ("file", "tcp")


@pytest.fixture(params=TRANSPORTS)
def make_queue(request, tmp_path):
    """Factory of one queue per transport, closing TCP servers afterwards."""
    servers = []

    def make(lease_timeout_s: float = 300.0):
        if request.param == "file":
            return WorkQueue(tmp_path / "q", lease_timeout_s=lease_timeout_s, shard_count=4)
        servers.append(QueueServer(lease_timeout_s=lease_timeout_s))
        return servers[-1]

    yield make
    for server in servers:
        server.close()


class TestZombieAck:
    def test_late_ack_of_a_requeued_task_drops_the_pending_copy(self, make_queue):
        """enqueue -> claim -> lease expiry -> requeue -> late ack: the ack
        wins and nothing is left to run the task a second time."""
        queue = make_queue(lease_timeout_s=0.05)
        queue.enqueue("t-0", "payload", shard=1)
        zombie = queue.claim("zombie", shard=1)
        assert zombie is not None
        time.sleep(0.1)  # the zombie never renews: its lease runs out
        assert queue.requeue_expired() == ["t-0"]
        queue.ack(zombie, "zombie")
        assert queue.claim("other") is None
        stats = queue.stats()
        assert (stats.pending, stats.claimed, stats.done) == (0, 0, 1)
        assert queue.worker_done_counts() == {"zombie": 1}

    def test_ack_drops_a_copy_waiting_in_a_shard(self, make_queue):
        queue = make_queue()
        queue.enqueue("t-0", "payload", shard=1)
        claim = queue.claim("w", shard=1)
        queue.enqueue("t-0", "payload", shard=2)  # the same task, queued again meanwhile
        queue.ack(claim, "w")
        assert queue.pending_ids() == set()
        assert queue.claim("w", shard=2) is None


class TestStealing:
    def test_a_worker_pinned_to_a_shard_with_no_partition_is_fed(self, make_queue):
        """A hand-started ``--shard 9`` worker on a 4-shard queue: the steal
        creates the partition it moves the work into."""
        queue = make_queue()
        for index in range(4):
            queue.enqueue(f"t-{index}", "payload", shard=0)
        assert queue.claim("w", shard=9) is None  # marks shard 9 hungry
        assert {(entry.from_shard, entry.to_shard) for entry in queue.rebalance()} == {(0, 9)}
        assert queue.claim("w", shard=9) is not None


class TestConcurrentClaims:
    def test_racing_pinned_claims_and_steals_hand_each_task_out_once(self, make_queue):
        """More claiming threads than cores, pinned to shards, while the
        coordinator steals: a claim is a sequence of primitive calls, and
        only the move's single winner may run the task."""
        queue = make_queue()
        task_ids = [f"t-{index:03d}" for index in range(60)]
        for index, task_id in enumerate(task_ids):
            queue.enqueue(task_id, index, shard=index % 2)  # shards 2 and 3 start empty
        claimed: dict[str, list[str]] = {}
        lock = threading.Lock()
        deadline = time.monotonic() + 30

        def work(name: str, shard: int) -> None:
            while time.monotonic() < deadline and len(queue.done_ids()) < len(task_ids):
                claim = queue.claim(name, shard=shard)
                if claim is None:
                    time.sleep(0.001)
                    continue
                with lock:
                    claimed.setdefault(claim.task_id, []).append(name)
                queue.ack(claim, name)

        threads = [
            threading.Thread(target=work, args=(f"w-{index}", index % 4), daemon=True)
            for index in range((os.cpu_count() or 1) + 4)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            while time.monotonic() < deadline and len(queue.done_ids()) < len(task_ids):
                queue.rebalance()
                time.sleep(0.002)
            for thread in threads:
                thread.join(timeout=10)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert queue.done_ids() == set(task_ids)
        assert {task: owners for task, owners in claimed.items() if len(owners) > 1} == {}
        stats = queue.stats()
        assert (stats.pending, stats.claimed, stats.done) == (0, 0, len(task_ids))


class TestStoragePrimitives:
    """The contract ``BucketQueue`` is written against, on both storages."""

    def test_of_two_moves_of_one_name_only_the_first_wins(self, make_queue):
        queue = make_queue()
        queue.enqueue("t-0", "payload")
        stamped = queue._stamp(PENDING, "t-0")
        assert queue._move(PENDING, CLAIMED, "t-0")
        assert not queue._move(PENDING, CLAIMED, "t-0")
        assert queue._names(CLAIMED) == ["t-0"] and queue._names(PENDING) == []
        assert queue._stamp(CLAIMED, "t-0") == stamped  # a move carries the stamp
        assert queue._load(CLAIMED, "t-0") == "payload"

    def test_a_gone_entry_is_neither_loaded_nor_touched_back_to_life(self, make_queue):
        queue = make_queue()
        assert not queue._touch(CLAIMED, "ghost")
        assert queue._stamp(CLAIMED, "ghost") is None
        assert queue._names(CLAIMED) == []
        with pytest.raises(KeyError):
            queue._load(CLAIMED, "ghost")
        assert not queue._drop(CLAIMED, "ghost")

    def test_a_shard_partition_is_found_from_its_tasks(self, make_queue):
        queue = make_queue()
        queue.enqueue("t-0", "payload", shard=7)
        assert 7 in queue._shards()
        assert queue.pending_ids() == {"t-0"}
        assert queue.stats().shard_pending == ((7, 1),)


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
