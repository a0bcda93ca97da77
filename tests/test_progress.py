"""Tests for the sweep progress reporter (`repro.runtime.progress`).

The snapshot math is exercised against a scripted fake queue with a
deterministic clock (no sleeping, no threads), the reporter thread against a
real queue server, and the worker CLI's ``--progress`` flag end to end.
"""

import json

import pytest

from repro.errors import ExperimentError
from repro.runtime.progress import DEFAULT_PROGRESS_INTERVAL_S, ProgressSnapshot, SweepProgress
from repro.runtime.netqueue import NetWorkQueue, QueueServer
from repro.runtime.workqueue import QueueStats


class ScriptedQueue:
    """A queue whose ``stats()`` replays a scripted sequence of snapshots."""

    def __init__(self, stats_script, worker_script=None):
        self.stats_script = list(stats_script)
        self.worker_script = list(worker_script or [])
        self.calls = 0

    def stats(self) -> QueueStats:
        index = min(self.calls, len(self.stats_script) - 1)
        self.calls += 1
        return self.stats_script[index]

    def worker_done_counts(self):
        if not self.worker_script:
            return {}
        return self.worker_script[min(self.calls - 1, len(self.worker_script) - 1)]


class FakeClock:
    def __init__(self, start=100.0):
        self.now = start

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


class TestProgressSnapshotMath:
    def test_throughput_eta_and_deltas(self):
        clock = FakeClock()
        queue = ScriptedQueue(
            [
                QueueStats(pending=8, claimed=2, done=0, failed=0),
                QueueStats(pending=4, claimed=2, done=4, failed=0),
                QueueStats(pending=0, claimed=0, done=10, failed=0),
            ],
            worker_script=[{}, {"w-0": 2, "w-1": 2}, {"w-0": 5, "w-1": 5}],
        )
        reporter = SweepProgress(queue, total=10, interval_s=1.0, clock=clock)

        clock.advance(10.0)
        first = reporter.poll_once()
        assert first.sequence == 0 and first.done == 0 and first.remaining == 10
        assert first.throughput_per_s == 0.0
        assert first.eta_s is None  # no completions yet: no defensible estimate

        clock.advance(10.0)
        second = reporter.poll_once()
        assert second.done == 4 and second.remaining == 6
        assert second.throughput_per_s == pytest.approx(4 / 20.0)
        assert second.recent_throughput_per_s == pytest.approx(4 / 10.0)
        # ETA prefers the recent rate: 6 remaining at 0.4/s.
        assert second.eta_s == pytest.approx(15.0)
        assert second.workers == {"w-0": 2, "w-1": 2}

        clock.advance(10.0)
        third = reporter.poll_once()
        assert third.done == third.total == 10
        assert third.remaining == 0 and third.eta_s == 0.0
        assert len(reporter.snapshots) == 3 and reporter.latest is third

    def test_unknown_total_has_no_eta(self):
        clock = FakeClock()
        reporter = SweepProgress(
            ScriptedQueue([QueueStats(1, 1, 3, 0)]), total=None, interval_s=1.0, clock=clock
        )
        clock.advance(5.0)
        snapshot = reporter.poll_once()
        assert snapshot.total is None and snapshot.remaining is None and snapshot.eta_s is None
        assert snapshot.throughput_per_s == pytest.approx(3 / 5.0)
        assert "[3 done]" in snapshot.describe() and "eta --" in snapshot.describe()

    def test_eta_falls_back_to_overall_rate_when_window_is_idle(self):
        clock = FakeClock()
        queue = ScriptedQueue(
            [QueueStats(6, 0, 4, 0), QueueStats(6, 0, 4, 0)]  # no progress this window
        )
        reporter = SweepProgress(queue, total=10, interval_s=1.0, clock=clock)
        clock.advance(10.0)
        reporter.poll_once()
        clock.advance(10.0)
        snapshot = reporter.poll_once()
        assert snapshot.recent_throughput_per_s == 0.0
        assert snapshot.eta_s == pytest.approx(6 / (4 / 20.0))

    def test_to_dict_is_json_ready_and_stable(self):
        clock = FakeClock()
        reporter = SweepProgress(
            ScriptedQueue([QueueStats(1, 2, 3, 4)], worker_script=[{"b": 1, "a": 2}]),
            total=10,
            interval_s=1.0,
            clock=clock,
        )
        clock.advance(2.0)
        payload = json.loads(reporter.poll_once().to_json())
        assert payload["pending"] == 1 and payload["claimed"] == 2
        assert payload["done"] == 3 and payload["failed"] == 4
        assert payload["total"] == 10 and payload["remaining"] == 7
        assert payload["workers"] == {"a": 2, "b": 1}
        assert set(payload) == {
            "sequence", "elapsed_s", "pending", "claimed", "done", "failed", "total",
            "remaining", "throughput_per_s", "recent_throughput_per_s", "eta_s",
            "workers", "stats_errors",
        }
        assert payload["stats_errors"] == 0

    def test_transport_errors_in_secondary_reads_are_counted_not_silent(self):
        # stats() succeeds but worker_done_counts() fails with a transport
        # error: the snapshot degrades (empty workers) and says so via
        # stats_errors instead of silently reading as idle.
        class CountlessQueue(ScriptedQueue):
            def worker_done_counts(self):
                raise OSError("counts endpoint unreachable")

        clock = FakeClock()
        queue = CountlessQueue([QueueStats(1, 0, 2, 0)])
        reporter = SweepProgress(queue, total=3, interval_s=1.0, clock=clock)
        clock.advance(1.0)
        first = reporter.poll_once()
        assert first.workers == {}
        assert first.stats_errors == 1
        clock.advance(1.0)
        second = reporter.poll_once()
        assert second.stats_errors == 2  # cumulative across polls
        assert "2 stats errors" in second.describe()
        assert second.to_dict()["stats_errors"] == 2

    def test_genuine_bugs_are_not_swallowed_by_the_poll(self):
        # An AttributeError (e.g. from a refactor renaming the counts hook's
        # internals) is a bug, not a transport failure: it must propagate.
        class BrokenQueue(ScriptedQueue):
            def worker_done_counts(self):
                raise AttributeError("'NoneType' object has no attribute 'items'")

        clock = FakeClock()
        reporter = SweepProgress(BrokenQueue([QueueStats(0, 0, 0, 0)]), interval_s=1.0, clock=clock)
        clock.advance(1.0)
        with pytest.raises(AttributeError):
            reporter.poll_once()

    def test_auth_rejection_stays_loud_in_secondary_reads(self):
        # QueueAuthError subclasses ExperimentError, but a mis-keyed reporter
        # must never degrade quietly into "no workers".
        from repro.runtime.netqueue import QueueAuthError

        class MiskeyedQueue(ScriptedQueue):
            def worker_done_counts(self):
                raise QueueAuthError("queue frame signature mismatch")

        clock = FakeClock()
        reporter = SweepProgress(MiskeyedQueue([QueueStats(0, 0, 0, 0)]), interval_s=1.0, clock=clock)
        clock.advance(1.0)
        with pytest.raises(QueueAuthError):
            reporter.poll_once()

    def test_invalid_parameters_rejected(self):
        queue = ScriptedQueue([QueueStats(0, 0, 0, 0)])
        with pytest.raises(ExperimentError):
            SweepProgress(queue, interval_s=0)
        with pytest.raises(ExperimentError):
            SweepProgress(queue, total=-1)

    def test_callback_receives_every_snapshot(self):
        clock = FakeClock()
        seen: list[ProgressSnapshot] = []
        reporter = SweepProgress(
            ScriptedQueue([QueueStats(0, 0, 1, 0)]),
            total=1,
            interval_s=1.0,
            clock=clock,
            callback=seen.append,
        )
        clock.advance(1.0)
        reporter.poll_once()
        clock.advance(1.0)
        reporter.poll_once()
        assert [snapshot.sequence for snapshot in seen] == [0, 1]


class TestPollOrSkip:
    """The reporter thread's poll, also the coordinator's end-of-sweep one."""

    @pytest.mark.parametrize("error", [OSError("queue torn down"), ExperimentError("rejected op")])
    def test_a_transport_failure_skips_the_snapshot_and_is_tallied(self, error):
        class DownQueue(ScriptedQueue):
            def stats(self):
                self.calls += 1
                if self.calls == 1:
                    raise error
                return super().stats()

        clock = FakeClock()
        seen: list[ProgressSnapshot] = []
        reporter = SweepProgress(
            DownQueue([QueueStats(0, 0, 1, 0)]), total=1, interval_s=1.0, clock=clock, callback=seen.append
        )
        clock.advance(1.0)
        assert reporter.poll_or_skip() is None
        assert seen == [] and reporter.latest is None
        clock.advance(1.0)
        snapshot = reporter.poll_or_skip()
        assert snapshot is not None and snapshot.done == 1
        assert snapshot.stats_errors == 1 and seen == [snapshot]

    def test_an_auth_rejection_propagates(self):
        from repro.runtime.netqueue import QueueAuthError

        class MiskeyedQueue(ScriptedQueue):
            def stats(self):
                raise QueueAuthError("queue frame signature mismatch")

        reporter = SweepProgress(MiskeyedQueue([QueueStats(0, 0, 0, 0)]), interval_s=1.0, clock=FakeClock())
        with pytest.raises(QueueAuthError):
            reporter.poll_or_skip()

    def test_a_raising_callback_propagates(self):
        def broken(snapshot):
            raise TypeError("dashboard bug")

        reporter = SweepProgress(
            ScriptedQueue([QueueStats(0, 0, 1, 0)]), total=1, interval_s=1.0, clock=FakeClock(), callback=broken
        )
        with pytest.raises(TypeError, match="dashboard bug"):
            reporter.poll_or_skip()


class TestReporterThread:
    def test_background_polling_over_a_real_queue(self, tmp_path):
        queue = QueueServer()
        queue.enqueue("t-0", "task")
        queue.ack(queue.claim("w"), "w")
        seen = []
        reporter = SweepProgress(queue, total=1, interval_s=0.05, callback=seen.append)
        reporter.start()
        reporter.start()  # idempotent
        deadline = 100
        import time

        for _ in range(deadline):
            if len(seen) >= 2:
                break
            time.sleep(0.05)
        reporter.stop()
        reporter.stop()  # idempotent
        queue.close()
        assert len(seen) >= 2
        assert all(snapshot.done == 1 for snapshot in seen)
        assert seen[-1].workers == {"w": 1}
        polled = len(seen)
        time.sleep(0.15)  # a stopped reporter takes no further snapshots
        assert len(seen) == polled

    def test_background_polling_over_the_wire(self):
        """A worker's reporter sees the coordinator's queue through its
        NetWorkQueue client: the same counts, per-worker completions included."""
        import time

        queue = QueueServer()
        client = NetWorkQueue(queue.url, retries=0)
        seen = []
        try:
            queue.enqueue("t-0", "task")
            queue.enqueue("t-1", "task")
            client.ack(client.claim("w"), "w")
            reporter = SweepProgress(client, total=None, interval_s=0.05, callback=seen.append).start()
            for _ in range(100):
                if seen:
                    break
                time.sleep(0.05)
            reporter.stop()
        finally:
            client.close()
            queue.close()
        assert seen
        snapshot = seen[-1]
        assert (snapshot.pending, snapshot.claimed, snapshot.done, snapshot.failed) == (1, 0, 1, 0)
        assert snapshot.workers == {"w": 1} and snapshot.stats_errors == 0

    def test_failing_poll_does_not_kill_the_reporter(self):
        class FlakyQueue:
            def __init__(self):
                self.calls = 0

            def stats(self):
                self.calls += 1
                if self.calls % 2:
                    raise OSError("transient")
                return QueueStats(0, 0, 1, 0)

        queue = FlakyQueue()
        reporter = SweepProgress(queue, total=1, interval_s=0.02)
        reporter.start()
        import time

        for _ in range(100):
            if reporter.latest is not None:
                break
            time.sleep(0.02)
        reporter.stop()
        assert reporter.latest is not None  # survived the failing polls in between
        assert queue.calls >= 2
        # The swallowed transport errors are visible, not silent: the first
        # stats() call raised, so every later snapshot counts it.
        assert reporter.latest.stats_errors >= 1


class TestWorkerProgressFlag:
    def test_idle_worker_emits_json_snapshots(self, tmp_path, capsys):
        """`--progress` on an idle worker prints parseable JSON snapshot lines
        (no tasks needed: the reporter reads queue state, not results)."""
        from repro.runtime.worker import run_worker

        queue = QueueServer()
        try:
            completed = run_worker(
                queue.url,
                worker_id="idle-w",
                poll_interval_s=0.05,
                idle_timeout_s=0.5,
                progress_interval_s=0.1,
            )
        finally:
            queue.close()
        assert completed == 0
        lines = [line for line in capsys.readouterr().out.splitlines() if line.startswith("{")]
        assert lines, "no progress snapshots were printed"
        for line in lines:
            payload = json.loads(line)
            assert payload["done"] == 0 and payload["total"] is None

    def test_worker_closes_its_queue_client(self, monkeypatch):
        """A worker that finds the sweep already stopped exits and leaves no
        connection to the coordinator open behind it."""
        from repro.runtime import worker as worker_module

        clients = []

        class RecordedClient(NetWorkQueue):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                clients.append(self)

        monkeypatch.setattr(worker_module, "NetWorkQueue", RecordedClient)
        queue = QueueServer()
        queue.write_stop()
        try:
            assert worker_module.run_worker(queue.url, worker_id="w", progress_interval_s=0.1) == 0
        finally:
            queue.close()
        assert len(clients) == 1
        assert clients[0]._sock is None  # the kept connection was closed

    def test_cli_wires_progress_through(self, monkeypatch, tmp_path):
        from repro.runtime import worker as worker_module

        captured = {}

        def fake_run_worker(queue_target, **kwargs):
            captured.update(kwargs, queue_target=queue_target)
            return 0

        monkeypatch.setattr(worker_module, "run_worker", fake_run_worker)
        assert worker_module.main([str(tmp_path / "q"), "--progress"]) == 0
        assert captured["progress_interval_s"] == DEFAULT_PROGRESS_INTERVAL_S

        captured.clear()
        worker_module.main([str(tmp_path / "q"), "--progress", "0.5"])
        assert captured["progress_interval_s"] == 0.5
        assert "shard" not in captured
        with pytest.raises(SystemExit):  # every worker claims from the one pool
            worker_module.main([str(tmp_path / "q"), "--shard", "2"])
