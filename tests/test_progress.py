"""Tests for sweep progress telemetry (`repro.runtime.progress`).

The snapshot arithmetic is exercised on :func:`next_snapshot` with explicit
clock readings, and the coordinator's wait loop
(``ParallelExperimentRunner._feed_forks``) against forks played in process
on real pipes, whose waits advance a fake clock: no sleeping and no worker
processes.
"""

import json
import types
from multiprocessing import Pipe
from multiprocessing.connection import wait as real_wait
from types import SimpleNamespace

import pytest

from repro.config import RuntimeConfig
from repro.core.metrics import MethodRunResult
from repro.errors import ExperimentError
from repro.runtime import parallel
from repro.runtime.parallel import ParallelExperimentRunner, _Sweep
from repro.runtime.progress import ProgressSnapshot, next_snapshot
from repro.runtime.result_store import ResultStore, TaskKey
from repro.runtime.workqueue import ResultUpload


def counts(pending, claimed, done, failed):
    return {"pending": pending, "claimed": claimed, "done": done, "failed": failed}


def chain(readings, total):
    """Snapshots of ``(elapsed_s, counts, workers)`` readings, each after the last."""
    snapshots: list[ProgressSnapshot] = []
    for elapsed_s, observed, workers in readings:
        previous = snapshots[-1] if snapshots else None
        snapshots.append(
            next_snapshot(**observed, workers=workers, total=total, elapsed_s=elapsed_s, previous=previous)
        )
    return snapshots


class TestNextSnapshot:
    def test_throughput_eta_and_deltas(self):
        first, second, third = chain(
            [
                (10.0, counts(pending=8, claimed=2, done=0, failed=0), {}),
                (20.0, counts(pending=4, claimed=2, done=4, failed=0), {"w-0": 2, "w-1": 2}),
                (30.0, counts(pending=0, claimed=0, done=10, failed=0), {"w-0": 5, "w-1": 5}),
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
        (snapshot,) = chain([(0.0, counts(0, 0, 0, 0), {})], total=0)
        assert (snapshot.total, snapshot.remaining, snapshot.eta_s) == (0, 0, 0.0)
        assert snapshot.throughput_per_s == snapshot.recent_throughput_per_s == 0.0
        assert snapshot.describe().startswith("[0/0] | 0 pending")
        assert "eta 0s" in snapshot.describe()

    def test_eta_falls_back_to_overall_rate_when_window_is_idle(self):
        idle = counts(6, 0, 4, 0)  # no progress this window
        _, snapshot = chain([(10.0, idle, {}), (20.0, idle, {})], total=10)
        assert snapshot.recent_throughput_per_s == 0.0
        assert snapshot.eta_s == pytest.approx(6 / (4 / 20.0))

    def test_to_dict_is_json_ready_and_stable(self):
        (snapshot,) = chain([(2.0, counts(1, 2, 3, 4), {"b": 1, "a": 2})], total=10)
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


#: What every played fork answers with.
RESULT = MethodRunResult(method="postgres", split_name="random-0", workload_name="job", training_time_s=0.0)
UPLOAD = ResultUpload(TaskKey("job", "random-0", "postgres"), "ctx", RESULT.to_dict())


def cells(count):
    """``count`` picklable payloads, one per grid index."""
    return {index: SimpleNamespace(task=f"cell-{index}") for index in range(count)}


class PlayedForks:
    """``workers`` forks played in process on real pipes, on a fake clock.

    :meth:`wait` stands in for the coordinator's ``wait``: it records each
    timeout, and a fork answers ``task_s`` of fake time after it took its
    payload, so the clock moves to the next answer or by the timeout.  A
    fork in ``doomed`` closes its end when it takes a payload, as a killed
    fork's end closes.
    """

    def __init__(self, clock, workers, task_s, doomed=()):
        self.clock, self.task_s, self.doomed = clock, task_s, set(doomed)
        pairs = [Pipe() for _ in range(workers)]
        #: The coordinator's ends, with the fork index (what ``_feed_forks`` takes).
        self.conns = {ours: index for index, (ours, _) in enumerate(pairs)}
        self.ends = {index: theirs for index, (_, theirs) in enumerate(pairs)}
        self.answer_at: dict[int, float] = {}
        self.waits: list[float | None] = []

    def wait(self, conns, timeout):
        self.waits.append(timeout)
        for index, end in list(self.ends.items()):
            if index not in self.answer_at and end.poll():
                end.recv()
                if index in self.doomed:
                    end.close()
                    del self.ends[index]
                else:
                    self.answer_at[index] = self.clock.now + self.task_s
        upcoming = min(self.answer_at.values(), default=None)
        if upcoming is not None and (timeout is None or upcoming <= self.clock.now + timeout):
            self.clock.now = upcoming
            for index in [index for index, at in self.answer_at.items() if at <= upcoming]:
                del self.answer_at[index]
                self.ends[index].send(UPLOAD)
        elif self.ends or timeout is not None:
            assert timeout is not None, "the coordinator would wait forever"
            self.clock.now += timeout
        return real_wait(conns, 0)

    def close(self):
        for conn in [*self.conns, *self.ends.values()]:
            conn.close()


def feed(monkeypatch, tmp_path, forks, count, interval, callback=None, procs=()):
    """``_feed_forks`` over ``count`` cells on the played forks; returns the
    sweep and the runner it ran on."""
    monkeypatch.setattr(parallel, "time", SimpleNamespace(monotonic=forks.clock))
    monkeypatch.setattr(parallel, "wait", forks.wait)
    runner = SimpleNamespace(
        runtime_config=RuntimeConfig(progress_interval_s=interval),
        progress_callback=callback,
        result_store=ResultStore(tmp_path / "store"),
        _distributed_requeued=0,
        _distributed_procs=list(procs),
    )
    runner._take_answer = types.MethodType(ParallelExperimentRunner._take_answer, runner)
    sweep = _Sweep(payloads=cells(count), pending=list(range(count)), started_at=forks.clock())
    try:
        ParallelExperimentRunner._feed_forks(runner, sweep, forks.conns, tmp_path / "logs")
    finally:
        forks.close()
    return sweep, runner


class TestSweepSnapshot:
    def test_snapshots_read_the_coordinators_counters(self, monkeypatch):
        """Pending, held, completed and failed cells are the snapshot's
        counts, and ``elapsed_s`` counts from the sweep's start."""
        clock = FakeClock()
        monkeypatch.setattr(parallel, "time", SimpleNamespace(monotonic=clock))
        sweep = _Sweep(payloads=cells(3), pending=[1, 2], started_at=clock())
        holder, other = Pipe()
        sweep.held[holder] = 0
        clock.now += 0.5
        first = sweep.snapshot()
        del sweep.held[holder]
        sweep.results[0] = RESULT
        sweep.done_by["local-0"] += 1
        sweep.pending.remove(2)
        sweep.failed[2] = "RuntimeError: boom"
        clock.now += 1.0
        second = sweep.snapshot()
        holder.close()
        other.close()
        assert [(s.sequence, s.elapsed_s, s.pending, s.claimed, s.done, s.failed) for s in (first, second)] == [
            (0, 0.5, 2, 1, 0, 0), (1, 1.5, 1, 0, 1, 1)
        ]
        assert second.total == 3 and second.workers == {"local-0": 1}
        assert second.recent_throughput_per_s == 1.0 and sweep.last is second


class TestCoordinatorLoop:
    def test_snapshots_fall_due_every_interval_and_an_answer_keeps_the_cadence(self, monkeypatch, tmp_path):
        """With a callback, every wait ends by the next due snapshot; an
        answer arriving mid-wait leaves the due time where it was."""
        clock = FakeClock()
        forks = PlayedForks(clock, workers=1, task_s=1.7)
        reported = []
        callback = lambda snapshot: reported.append(  # noqa: E731
            (clock.now, snapshot.pending, snapshot.claimed, snapshot.done)
        )
        sweep, _ = feed(monkeypatch, tmp_path, forks, 2, 0.5, callback)
        assert [at for at, *_ in reported] == pytest.approx([100.5, 101.0, 101.5, 102.0, 102.5, 103.0])
        assert [tuple(counts) for _, *counts in reported] == [(1, 1, 0)] * 3 + [(0, 1, 1)] * 3
        assert forks.waits == pytest.approx([0.5, 0.5, 0.5, 0.5, 0.3, 0.5, 0.5, 0.5])
        assert sorted(sweep.results) == [0, 1] and sweep.done_by == {"local-0": 2}

    @pytest.mark.parametrize("interval, with_callback", [(None, True), (0.5, False)])
    def test_without_due_snapshots_only_a_fork_ends_a_wait(self, monkeypatch, tmp_path, interval, with_callback):
        """No interval, or one but no callback: each wait has no timeout and
        no snapshot is taken in the loop (the end-of-sweep one is the
        runner's)."""
        forks = PlayedForks(FakeClock(), workers=1, task_s=1.0)
        reported = []
        feed(monkeypatch, tmp_path, forks, 2, interval, reported.append if with_callback else None)
        assert reported == []
        assert forks.waits == [None, None]

    def test_a_raising_callback_leaves_the_loop(self, monkeypatch, tmp_path):
        clock = FakeClock()
        forks = PlayedForks(clock, workers=1, task_s=10.0)

        def broken(snapshot):
            raise TypeError("dashboard bug")

        with pytest.raises(TypeError, match="dashboard bug"):
            feed(monkeypatch, tmp_path, forks, 1, 0.5, broken)
        assert clock.now == pytest.approx(100.5)  # the first due snapshot, not the sweep's end

    def test_a_forks_eof_gives_its_cell_back_to_another_fork(self, monkeypatch, tmp_path):
        """Fork 0's end closes while it holds cell 0: the cell is counted as
        re-queued and fork 1 runs both cells."""
        forks = PlayedForks(FakeClock(), workers=2, task_s=1.0, doomed={0})
        sweep, runner = feed(monkeypatch, tmp_path, forks, 2, None)
        assert runner._distributed_requeued == 1
        assert sorted(sweep.results) == [0, 1] and sweep.done_by == {"local-1": 2}

    def test_every_fork_gone_ends_the_sweep(self, monkeypatch, tmp_path):
        forks = PlayedForks(FakeClock(), workers=2, task_s=1.0, doomed={0, 1})
        procs = [SimpleNamespace(wait=lambda code=code: code) for code in (1, -9)]
        with pytest.raises(ExperimentError, match=r"all 2 local .* codes \[1, -9\]\) with 2 task"):
            feed(monkeypatch, tmp_path, forks, 2, None, procs=procs)
