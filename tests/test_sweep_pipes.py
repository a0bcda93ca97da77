"""Tests of a distributed sweep's pipe protocol, played in process.

A sweep's coordinator feeds each forked worker over that worker's own
``multiprocessing.Pipe``: one payload at a time, in grid order, answered
with a :class:`~repro.runtime.workqueue.ResultUpload` or the error text.
These tests drive both ends of that protocol without forking:

* the worker's loop (``_serve_payloads``) on a real pipe, with the task
  execution replaced by a stub;
* the coordinator's loop (``ParallelExperimentRunner._feed_forks`` and
  ``_take_answer``) against forks played by :class:`ScriptedForks`, whose
  ends answer inside the coordinator's ``wait`` from a per-fork script;
* the coordinator's bookkeeping (``_Sweep``) and the worker handle
  (``ForkedWorker``).

The end-to-end sweeps that fork real workers are in ``test_distributed.py``.
"""

import json
import os
import pickle
import signal
import threading
import time
import types
from dataclasses import dataclass
from multiprocessing import Pipe
from multiprocessing.connection import wait as real_wait
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import SIMULATION_CONFIG, RuntimeConfig
from repro.core.experiment import ExperimentConfig
from repro.core.metrics import MethodRunResult
from repro.core.splits import DatasetSplit, SplitSampling
from repro.errors import ExperimentError
from repro.runtime import parallel
from repro.runtime.parallel import ForkedWorker, ParallelExperimentRunner, _Sweep
from repro.runtime.result_store import ResultStore, TaskKey
from repro.runtime.workqueue import ResultUpload
from repro.storage.registry import get_process_registry
from repro.storage.spec import DatabaseSpec
from repro.workloads import build_workload


@dataclass(frozen=True)
class Cell:
    """The task of a played payload: only its grid index and description."""

    index: int

    def describe(self) -> str:
        return f"cell {self.index}"


def payload(index: int) -> SimpleNamespace:
    """A picklable stand-in for the ``SpecTaskPayload`` of grid cell ``index``."""
    return SimpleNamespace(task=Cell(index))


def key_of(index: int) -> TaskKey:
    return TaskKey("job", f"random-{index}", "postgres", seed=index)


def result_of(index: int) -> MethodRunResult:
    return MethodRunResult(
        method="postgres", split_name=f"random-{index}", workload_name="job", training_time_s=float(index)
    )


def upload_of(index: int) -> ResultUpload:
    return ResultUpload(key_of(index), f"ctx-{index}", result_of(index).to_dict())


def stub_execute(calls: list | None = None, failing: dict | None = None):
    """An ``execute_spec_payload_with_identity`` that answers cell ``i`` with
    ``result_of(i)``, or raises ``failing[i]``; every call is logged."""

    def execute(spec_payload):
        index = spec_payload.task.index
        if calls is not None:
            calls.append(index)
        if failing and index in failing:
            raise failing[index]
        return result_of(index), key_of(index), f"ctx-{index}"

    return execute


class RecordingEnd:
    """A worker's pipe end whose ``poll`` never blocks: it records each
    timeout and answers whether something is already there to read, so a
    wait that would outlast the orphan bound reads as its expiry."""

    def __init__(self, end):
        self.end = end
        self.polls: list[float] = []

    def poll(self, timeout):
        self.polls.append(timeout)
        return self.end.poll(0)

    def recv(self):
        return self.end.recv()

    def send(self, answer):
        self.end.send(answer)


# ---------------------------------------------------------------------------
# The worker's loop
# ---------------------------------------------------------------------------


class TestServePayloads:
    @pytest.mark.parametrize("count", [1, 2, 5])
    def test_each_payload_is_answered_with_its_upload_in_order(self, monkeypatch, count):
        calls: list[int] = []
        monkeypatch.setattr(parallel, "execute_spec_payload_with_identity", stub_execute(calls))
        ours, theirs = Pipe()
        for index in range(count):
            ours.send(payload(index))
        assert parallel._serve_payloads(RecordingEnd(theirs), "local-0") == count
        answers = [ours.recv() for _ in range(count)]
        assert not ours.poll(0)  # one answer per payload, nothing more
        assert calls == list(range(count))
        assert answers == [upload_of(index) for index in range(count)]
        ours.close()
        theirs.close()

    @pytest.mark.parametrize(
        "error, text",
        [
            (RuntimeError("transient failure"), "RuntimeError: transient failure"),
            (ExperimentError("fingerprint mismatch"), "ExperimentError: fingerprint mismatch"),
            (KeyError("1a"), "KeyError: '1a'"),
            (ZeroDivisionError(), "ZeroDivisionError: "),
        ],
    )
    def test_a_raising_task_is_answered_with_its_error_text_and_the_loop_goes_on(self, monkeypatch, error, text):
        """The failed cell's answer is the exception's type and message; the
        next payload is still run, and only the result counts as done."""
        monkeypatch.setattr(parallel, "execute_spec_payload_with_identity", stub_execute(failing={0: error}))
        ours, theirs = Pipe()
        ours.send(payload(0))
        ours.send(payload(1))
        assert parallel._serve_payloads(RecordingEnd(theirs), "local-0") == 1
        assert ours.recv() == text
        assert ours.recv() == upload_of(1)
        ours.close()
        theirs.close()

    def test_every_wait_is_a_fresh_orphan_bound(self, monkeypatch):
        """The orphan bound counts from the last payload received: the loop
        waits ``ORPHAN_IDLE_S`` before each receive, and a wait that runs
        out ends it."""
        monkeypatch.setattr(parallel, "execute_spec_payload_with_identity", stub_execute())
        ours, theirs = Pipe()
        for index in range(3):
            ours.send(payload(index))
        end = RecordingEnd(theirs)
        assert parallel._serve_payloads(end, "local-0") == 3
        assert end.polls == [parallel.ORPHAN_IDLE_S] * 4
        ours.close()
        theirs.close()

    def test_a_worker_left_without_payloads_leaves_after_the_orphan_bound(self, monkeypatch):
        """A coordinator that stops sending without closing its end holds a
        worker for the orphan bound, not forever."""
        monkeypatch.setattr(parallel, "ORPHAN_IDLE_S", 0.05)
        ours, theirs = Pipe()
        started = time.monotonic()
        assert parallel._serve_payloads(theirs, "local-0") == 0
        assert 0.04 <= time.monotonic() - started < 5.0
        ours.close()
        theirs.close()

    def test_eof_ends_the_loop_with_the_count_of_results(self, monkeypatch):
        """The coordinator closing its end is how a worker's loop ends: the
        payloads sent before are all answered first."""
        monkeypatch.setattr(parallel, "execute_spec_payload_with_identity", stub_execute(failing={1: RuntimeError("x")}))
        ours, theirs = Pipe()
        done: list[int] = []
        worker = threading.Thread(target=lambda: done.append(parallel._serve_payloads(theirs, "local-0")))
        worker.start()
        answers = []
        for index in range(3):
            ours.send(payload(index))
            assert ours.poll(10)
            answers.append(ours.recv())
        ours.close()
        worker.join(timeout=10)
        assert not worker.is_alive()
        assert done == [2]
        assert answers == [upload_of(0), "RuntimeError: x", upload_of(2)]
        theirs.close()

    def test_a_payload_sent_during_a_wait_is_run_at_once(self, monkeypatch):
        """A waiting worker is woken by the payload itself, not by a poll
        tick: the answer arrives long before any bound could run out."""
        monkeypatch.setattr(parallel, "execute_spec_payload_with_identity", stub_execute())
        ours, theirs = Pipe()
        worker = threading.Thread(target=parallel._serve_payloads, args=(theirs, "local-0"))
        worker.start()
        try:
            time.sleep(0.05)  # the worker is inside its wait now
            sent = time.monotonic()
            ours.send(payload(7))
            assert ours.poll(10)
            assert ours.recv() == upload_of(7)
            assert time.monotonic() - sent < 5.0
        finally:
            ours.close()
            worker.join(timeout=10)
            theirs.close()
        assert not worker.is_alive()

    def test_an_answer_that_cannot_reach_the_coordinator_ends_the_loop(self, monkeypatch):
        """A coordinator gone mid-task leaves nobody to take the answer: the
        loop ends after that task instead of running the next payload."""
        calls: list[int] = []
        monkeypatch.setattr(parallel, "execute_spec_payload_with_identity", stub_execute(calls))
        ours, theirs = Pipe()
        ours.send(payload(0))
        ours.send(payload(1))
        ours.close()
        assert parallel._serve_payloads(theirs, "local-0") == 0
        assert calls == [0]
        theirs.close()

    def test_eof_before_any_payload_answers_nothing(self, monkeypatch):
        calls: list[int] = []
        monkeypatch.setattr(parallel, "execute_spec_payload_with_identity", stub_execute(calls))
        ours, theirs = Pipe()
        ours.close()
        assert parallel._serve_payloads(theirs, "local-3") == 0
        assert calls == []
        theirs.close()

    def test_the_log_names_each_completed_and_failed_cell(self, monkeypatch, capsys):
        monkeypatch.setattr(parallel, "execute_spec_payload_with_identity", stub_execute(failing={1: RuntimeError("boom")}))
        ours, theirs = Pipe()
        ours.send(payload(0))
        ours.send(payload(1))
        parallel._serve_payloads(RecordingEnd(theirs), "local-4")
        captured = capsys.readouterr()
        assert captured.out == "[local-4] completed cell 0\n"
        assert captured.err == "[local-4] FAILED cell 1: boom\n"
        ours.close()
        theirs.close()


class TestRealCellOverAPipe:
    """The worker's loop with the real task execution: what crosses the
    pipe is the serial result and the coordinator's own key and
    fingerprint."""

    @pytest.fixture(scope="class")
    def grid(self):
        spec = DatabaseSpec.create("imdb", scale=0.2, seed=7, config=SIMULATION_CONFIG)
        workload = build_workload("job", get_process_registry().get(spec).schema)
        split = DatasetSplit(
            workload_name=workload.name,
            sampling=SplitSampling.RANDOM,
            split_index=0,
            train_ids=("1a", "2a", "3a"),
            test_ids=("1b", "2b"),
        )
        config = ExperimentConfig(optimizer_kwargs={"bao": {"training_passes": 1}})
        return ParallelExperimentRunner(spec, workload, experiment_config=config), split

    @pytest.mark.parametrize("method", ["postgres", "bao"])
    def test_the_upload_is_the_serial_result_under_the_coordinators_key(self, grid, method):
        runner, split = grid
        (task,) = runner.tasks_for((method,), [split])
        ours, theirs = Pipe()
        ours.send(runner.spec_payload(task))
        assert parallel._serve_payloads(RecordingEnd(theirs), "local-0") == 1
        upload = ours.recv()
        ours.close()
        theirs.close()
        assert isinstance(upload, ResultUpload)
        assert upload.key == runner.task_key(task)
        assert upload.fingerprint == runner.task_fingerprint(task)
        serial = runner.run_task(task).to_dict()
        assert json.dumps(upload.result, sort_keys=True) == json.dumps(serial, sort_keys=True)


# ---------------------------------------------------------------------------
# The coordinator's loop
# ---------------------------------------------------------------------------


class ScriptedForks:
    """``workers`` forks played in process on real pipes.

    :meth:`wait` stands in for the coordinator's ``wait``: every fork with a
    payload on its end takes it and answers at once, by the next entry of
    its script — ``"ok"`` an upload, ``"error"`` error text, ``"die"``
    closing its end unanswered, as a killed fork's end closes.  A fork whose
    script ran out answers ``"ok"``.  Each payload taken is logged in
    ``received`` as ``(fork, cell)``.  Forks in ``gone`` closed their end
    before the sweep began.
    """

    def __init__(self, workers, scripts=None, gone=()):
        pairs = [Pipe() for _ in range(workers)]
        #: The coordinator's ends, with the fork index (what ``_feed_forks`` takes).
        self.conns = {ours: index for index, (ours, _) in enumerate(pairs)}
        self.ends = {index: theirs for index, (_, theirs) in enumerate(pairs)}
        self.scripts = {index: list((scripts or {}).get(index, ())) for index in range(workers)}
        self.received: list[tuple[int, int]] = []
        #: Forks that died holding a cell.
        self.deaths = 0
        self.waits: list[float | None] = []
        for index in gone:
            self.ends.pop(index).close()

    def wait(self, conns, timeout):
        self.waits.append(timeout)
        for index, end in list(self.ends.items()):
            if not end.poll(0):
                continue
            cell = end.recv().task.index
            self.received.append((index, cell))
            outcome = self.scripts[index].pop(0) if self.scripts[index] else "ok"
            if outcome == "die":
                self.deaths += 1
                end.close()
                del self.ends[index]
            elif outcome == "error":
                end.send(f"RuntimeError: {Cell(cell).describe()} failed")
            else:
                end.send(upload_of(cell))
        ready = real_wait(conns, 0)
        assert ready or timeout is not None, "the coordinator would wait forever"
        return ready

    def sends_of(self, cell: int) -> int:
        return sum(1 for _, sent in self.received if sent == cell)

    def close(self):
        for conn in [*self.conns, *self.ends.values()]:
            conn.close()


def coordinator(tmp_path, task_retries=1, procs=()):
    """The parts of a runner that ``_feed_forks`` and ``_take_answer`` use."""
    runner = SimpleNamespace(
        runtime_config=RuntimeConfig(task_retries=task_retries),
        progress_callback=None,
        result_store=ResultStore(tmp_path / "store"),
        _distributed_requeued=0,
        _distributed_procs=list(procs),
    )
    runner._take_answer = types.MethodType(ParallelExperimentRunner._take_answer, runner)
    return runner


def new_sweep(count: int) -> _Sweep:
    return _Sweep(payloads={index: payload(index) for index in range(count)}, pending=list(range(count)))


def feed(monkeypatch, tmp_path, forks, count, task_retries=1, procs=()):
    """``_feed_forks`` over ``count`` cells on the scripted forks; returns
    the sweep and the runner it ran on."""
    monkeypatch.setattr(parallel, "wait", forks.wait)
    runner = coordinator(tmp_path, task_retries, procs)
    sweep = new_sweep(count)
    try:
        ParallelExperimentRunner._feed_forks(runner, sweep, forks.conns, tmp_path / "logs")
    finally:
        forks.close()
    return sweep, runner


def stored_cells(runner) -> list[str]:
    """The split names of the results in the runner's store, sorted."""
    return sorted(
        json.loads(path.read_text())["key"]["split_name"] for path in runner.result_store.completed_files()
    )


class TestFeedForks:
    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_payloads_go_out_in_grid_order(self, monkeypatch, tmp_path, workers):
        """Idle forks get the pending cells lowest index first, fork 0
        first; each fork holds one cell at a time."""
        forks = ScriptedForks(workers)
        sweep, _ = feed(monkeypatch, tmp_path, forks, 6)
        assert [cell for _, cell in forks.received] == list(range(6))
        assert [fork for fork, _ in forks.received[:workers]] == list(range(workers))
        assert sorted(sweep.results) == list(range(6))

    def test_a_failed_cell_goes_back_ahead_of_later_cells(self, monkeypatch, tmp_path):
        """A failed cell re-enters the pending cells in grid order, so the
        next idle fork runs it before any later cell."""
        forks = ScriptedForks(1, scripts={0: ["error"]})
        sweep, runner = feed(monkeypatch, tmp_path, forks, 3)
        assert [cell for _, cell in forks.received] == [0, 0, 1, 2]
        assert sweep.failures == {0: 1} and sweep.failed == {}
        assert runner._distributed_requeued == 0  # a failure is not a dead fork

    def test_each_answer_is_saved_to_the_store_as_it_arrives(self, monkeypatch, tmp_path):
        forks = ScriptedForks(2)
        sweep, runner = feed(monkeypatch, tmp_path, forks, 4)
        assert runner.result_store.stored_count == 4
        assert stored_cells(runner) == [f"random-{index}" for index in range(4)]
        for index in range(4):
            assert runner.result_store.load(key_of(index), f"ctx-{index}") == result_of(index)
            assert sweep.results[index] == result_of(index)
        assert sweep.done_by == {"local-0": 2, "local-1": 2}

    @pytest.mark.parametrize("task_retries", [0, 1, 2, 3])
    def test_a_cell_is_sent_task_retries_plus_one_times_then_fails_the_sweep(
        self, monkeypatch, tmp_path, task_retries
    ):
        forks = ScriptedForks(1, scripts={0: ["ok"] + ["error"] * (task_retries + 1)})
        with pytest.raises(
            ExperimentError,
            match=rf"1 distributed task\(s\) failed permanently: cell 1 after {task_retries + 1} "
            r"attempt\(s\): RuntimeError: cell 1 failed",
        ):
            feed(monkeypatch, tmp_path, forks, 3, task_retries=task_retries)
        assert forks.sends_of(1) == task_retries + 1
        assert forks.sends_of(2) == 0  # the sweep stops: the cell after is never sent

    @pytest.mark.parametrize("task_retries", [1, 2, 3])
    def test_a_cell_that_succeeds_on_its_last_allowed_attempt_completes(self, monkeypatch, tmp_path, task_retries):
        forks = ScriptedForks(1, scripts={0: ["error"] * task_retries})
        sweep, runner = feed(monkeypatch, tmp_path, forks, 2, task_retries=task_retries)
        assert forks.sends_of(0) == task_retries + 1
        assert sorted(sweep.results) == [0, 1] and sweep.failed == {}
        assert runner.result_store.stored_count == 2

    def test_every_cell_out_of_retries_is_named_in_grid_order(self, monkeypatch, tmp_path):
        """Two forks fail their cells in the same wait: one error names both,
        lowest cell first."""
        forks = ScriptedForks(2, scripts={0: ["error"], 1: ["error"]})
        with pytest.raises(ExperimentError) as raised:
            feed(monkeypatch, tmp_path, forks, 3, task_retries=0)
        message = str(raised.value)
        assert message.startswith("2 distributed task(s) failed permanently: cell 0 after 1 attempt(s)")
        assert message.index("cell 0 after") < message.index("cell 1 after")
        assert "cell 2" not in message

    @pytest.mark.parametrize("victim", [0, 1, 2])
    def test_a_dead_forks_cell_is_run_by_another_fork_and_counted(self, monkeypatch, tmp_path, victim):
        forks = ScriptedForks(3, scripts={victim: ["die"]})
        sweep, runner = feed(monkeypatch, tmp_path, forks, 5)
        assert runner._distributed_requeued == 1
        assert forks.sends_of(victim) == 2  # the first holder died; a survivor ran it
        assert sorted(sweep.results) == list(range(5))
        assert f"local-{victim}" not in sweep.done_by
        assert runner.result_store.stored_count == 5

    def test_a_fork_gone_before_its_payload_is_sent_is_not_counted_as_requeued(self, monkeypatch, tmp_path):
        """A send that fails puts the cell straight back: it was never held,
        so nothing is re-queued when the dead end's EOF is read."""
        forks = ScriptedForks(2, gone=[0])
        sweep, runner = feed(monkeypatch, tmp_path, forks, 3)
        assert runner._distributed_requeued == 0
        assert forks.received == [(1, 0), (1, 1), (1, 2)]
        assert sweep.done_by == {"local-1": 3}

    def test_a_fork_that_dies_idle_requeues_nothing(self, monkeypatch, tmp_path):
        """One cell, two forks: fork 1 never holds a cell, and its death is
        no re-queue."""
        forks = ScriptedForks(2, gone=[1])
        sweep, runner = feed(monkeypatch, tmp_path, forks, 1)
        assert runner._distributed_requeued == 0
        assert forks.received == [(0, 0)]
        assert sorted(sweep.results) == [0]

    @pytest.mark.parametrize("codes", [(1,), (1, -9), (0, 0, -15)])
    def test_every_fork_gone_ends_the_sweep_with_their_codes(self, monkeypatch, tmp_path, codes):
        forks = ScriptedForks(len(codes), scripts={index: ["die"] for index in range(len(codes))})
        procs = [SimpleNamespace(wait=lambda code=code: code) for code in codes]
        unfinished = max(len(codes), 4)
        with pytest.raises(
            ExperimentError,
            match=rf"all {len(codes)} local distributed workers exited \(return codes "
            rf"\[{', '.join(map(str, codes))}\]\) with {unfinished} task\(s\) unfinished",
        ):
            feed(monkeypatch, tmp_path, forks, unfinished, procs=procs)

    def test_without_a_callback_no_wait_has_a_timeout(self, monkeypatch, tmp_path):
        forks = ScriptedForks(2)
        feed(monkeypatch, tmp_path, forks, 4)
        assert forks.waits and set(forks.waits) == {None}


SCRIPTS = st.lists(st.lists(st.sampled_from(["ok", "ok", "error", "die"]), max_size=4), min_size=1, max_size=4)


class TestExactlyOnce:
    """Whatever the forks' fates, no cell's result is saved twice, every
    send is answered by a result, an error or a death, and every death of a
    fork holding a cell is one re-queue.  With retries to spare, a sweep
    with a fork left alive finishes every cell."""

    def _check(self, monkeypatch, tmp_path, scripts, count):
        """Feed ``count`` cells to forks scripted by ``scripts``; returns
        the forks and whether the sweep finished."""
        forks = ScriptedForks(len(scripts), scripts=scripts)
        monkeypatch.setattr(parallel, "wait", forks.wait)
        runner = coordinator(tmp_path, task_retries=sum(map(len, scripts.values())))
        sweep = new_sweep(count)
        try:
            ParallelExperimentRunner._feed_forks(runner, sweep, forks.conns, tmp_path / "logs")
            finished = True
        except ExperimentError as exc:
            assert "local distributed workers exited" in str(exc)
            finished = False
        finally:
            forks.close()
        assert finished == bool(forks.ends)
        if finished:
            assert sorted(sweep.results) == list(range(count))
        assert runner._distributed_requeued == forks.deaths
        assert runner.result_store.stored_count == len(sweep.results) == sum(sweep.done_by.values())
        assert stored_cells(runner) == sorted(f"random-{index}" for index in sweep.results)
        assert len(forks.received) == len(sweep.results) + sum(sweep.failures.values()) + forks.deaths
        return forks, finished

    @settings(max_examples=40, deadline=None)
    @given(scripts=SCRIPTS, count=st.integers(min_value=1, max_value=7))
    def test_random_fates(self, tmp_path_factory, scripts, count):
        with pytest.MonkeyPatch.context() as monkeypatch:
            self._check(monkeypatch, tmp_path_factory.mktemp("fates"), dict(enumerate(scripts)), count)

    @pytest.mark.parametrize(
        "scripts, count, deaths, finished",
        [
            ({0: ["die"], 1: ["die"]}, 4, 2, False),
            ({0: ["error", "die"]}, 2, 1, False),
            ({0: ["ok", "die"], 1: ["error", "ok", "error"], 2: []}, 6, 1, True),
            ({0: ["die"], 1: ["ok", "ok", "die"], 2: ["error"], 3: ["ok"]}, 8, 2, True),
        ],
        ids=["both-forks-die", "the-lone-fork-dies", "one-of-three-dies", "two-of-four-die"],
    )
    def test_known_fates(self, monkeypatch, tmp_path, scripts, count, deaths, finished):
        forks, done = self._check(monkeypatch, tmp_path, scripts, count)
        assert (forks.deaths, done) == (deaths, finished)


class TestTakeAnswer:
    def test_an_upload_is_saved_verbatim_and_kept(self, tmp_path):
        runner = coordinator(tmp_path)
        sweep = new_sweep(2)
        sweep.pending = [1]
        ours, theirs = Pipe()
        conns = {ours: 3}
        sweep.held[ours] = 0
        theirs.send(upload_of(0))
        runner._take_answer(sweep, conns, ours)
        path = runner.result_store.path_for(key_of(0), "ctx-0")
        assert json.loads(path.read_text())["result"] == result_of(0).to_dict()
        assert sweep.results == {0: result_of(0)} and sweep.done_by == {"local-3": 1}
        assert sweep.held == {} and sweep.pending == [1] and conns == {ours: 3}
        ours.close()
        theirs.close()

    @pytest.mark.parametrize(
        "held, pending, expected",
        [(0, [1, 2], [0, 1, 2]), (2, [0, 4], [0, 2, 4]), (5, [], [5])],
    )
    def test_a_holders_eof_puts_its_cell_back_in_grid_order(self, tmp_path, held, pending, expected):
        runner = coordinator(tmp_path)
        sweep = new_sweep(6)
        sweep.pending = list(pending)
        ours, theirs = Pipe()
        conns = {ours: 0}
        sweep.held[ours] = held
        theirs.close()
        runner._take_answer(sweep, conns, ours)
        assert sweep.pending == expected
        assert sweep.held == {} and conns == {}
        assert runner._distributed_requeued == 1
        assert ours.closed

    def test_an_error_within_the_retries_requeues_and_past_them_fails(self, tmp_path):
        """With one retry, cell 0's first error puts it back ahead of cell 1;
        its second marks it failed with that error, and nothing is saved."""
        runner = coordinator(tmp_path, task_retries=1)
        sweep = new_sweep(2)
        ours, theirs = Pipe()
        conns = {ours: 0}
        expected = [([0, 1], {}), ([1], {0: "RuntimeError: again"})]
        for attempt, (pending, failed) in enumerate(expected, start=1):
            sweep.pending.remove(0)  # sent to the fork, which holds it
            sweep.held[ours] = 0
            theirs.send("RuntimeError: again")
            runner._take_answer(sweep, conns, ours)
            assert (sweep.pending, sweep.failed, sweep.failures[0]) == (pending, failed, attempt)
        assert sweep.results == {} and runner.result_store.stored_count == 0
        ours.close()
        theirs.close()


# ---------------------------------------------------------------------------
# The coordinator's counters
# ---------------------------------------------------------------------------


class TestSweepCounters:
    def test_an_empty_sweep_reads_complete(self):
        snapshot = _Sweep(started_at=time.monotonic()).snapshot()
        assert (snapshot.total, snapshot.pending, snapshot.claimed, snapshot.done, snapshot.failed) == (0, 0, 0, 0, 0)
        assert snapshot.eta_s == 0.0 and snapshot.workers == {}

    def test_a_sweep_with_only_failed_cells(self):
        """Every cell out of retries: nothing pending, held or done, and no
        rate to estimate an end from."""
        sweep = new_sweep(3)
        sweep.pending = []
        sweep.failed = {index: "RuntimeError: boom" for index in range(3)}
        sweep.started_at = time.monotonic()
        snapshot = sweep.snapshot()
        assert (snapshot.pending, snapshot.claimed, snapshot.done, snapshot.failed) == (0, 0, 0, 3)
        assert snapshot.remaining == 3 and snapshot.eta_s is None

    def test_resumed_cells_are_not_counted(self):
        """A cell loaded from the store was never sent: it is in the
        results, but not in the snapshot's total or done."""
        sweep = new_sweep(2)
        sweep.results[5] = result_of(5)
        sweep.started_at = time.monotonic()
        snapshot = sweep.snapshot()
        assert (snapshot.total, snapshot.done, snapshot.pending) == (2, 0, 2)

    def test_snapshots_are_sequenced_and_kept_as_the_last(self):
        sweep = new_sweep(1)
        sweep.started_at = time.monotonic()
        first, second = sweep.snapshot(), sweep.snapshot()
        assert (first.sequence, second.sequence) == (0, 1) and sweep.last is second


# ---------------------------------------------------------------------------
# Sweeps that send nothing, and the worker handle
# ---------------------------------------------------------------------------


class TestNothingToSend:
    def test_an_empty_grid_forks_nothing_and_reports_nothing(self, tmp_path, monkeypatch):
        def no_fork():
            raise AssertionError("an empty grid must not fork")

        monkeypatch.setattr(os, "fork", no_fork)
        spec = DatabaseSpec.create("imdb", scale=0.2, seed=7, config=SIMULATION_CONFIG)
        workload = build_workload("job", get_process_registry().get(spec).schema)
        reported = []
        runner = ParallelExperimentRunner(
            spec,
            workload,
            runtime_config=RuntimeConfig(workers=2, executor_kind="distributed", store_dir=str(tmp_path)),
            progress_callback=reported.append,
        )
        assert runner.run_tasks([]) == []
        assert runner._distributed_procs == [] and reported == []


def forked(body) -> ForkedWorker:
    """A child process running ``body`` then exiting 0, as a handle."""
    pid = os.fork()
    if pid == 0:
        try:
            body()
        finally:
            os._exit(0)
    return ForkedWorker(pid)


class TestForkedWorkerHandle:
    @pytest.mark.parametrize("code", [0, 1, 3])
    def test_an_exit_code_reads_as_popens(self, code):
        proc = forked(lambda: os._exit(code))
        assert proc.wait(timeout=30) == code
        assert proc.poll() == proc.returncode == code

    @pytest.mark.parametrize("signum", [signal.SIGTERM, signal.SIGKILL])
    def test_a_death_by_signal_reads_minus_the_signal(self, signum):
        proc = forked(lambda: time.sleep(60))
        proc.send_signal(signum)
        assert proc.wait(timeout=30) == -signum

    def test_a_child_reaped_elsewhere_reads_as_exited(self):
        """Its status is lost with the reap: the handle reports 0 instead of
        waiting on a pid that may be reused."""
        proc = forked(lambda: os._exit(5))
        os.waitpid(proc.pid, 0)
        assert proc.poll() == 0
        proc.kill()  # exited: a no-op, never a stray signal


# ---------------------------------------------------------------------------
# What crosses the pipes
# ---------------------------------------------------------------------------


class TestWhatCrossesThePipes:
    def test_an_upload_survives_a_pipe_intact(self):
        ours, theirs = Pipe()
        theirs.send(upload_of(2))
        received = ours.recv()
        ours.close()
        theirs.close()
        assert received == upload_of(2)
        assert MethodRunResult.from_dict(received.result) == result_of(2)

    def test_an_upload_is_immutable(self):
        with pytest.raises(AttributeError):
            upload_of(0).fingerprint = "other"

    def test_a_spec_payload_is_spec_sized(self):
        """A payload names its database, it does not carry it: a few hundred
        bytes to a few kilobytes at any scale, and equal across scales."""
        sizes = []
        for scale in (0.1, 0.2):
            spec = DatabaseSpec.create("imdb", scale=scale, seed=7, config=SIMULATION_CONFIG)
            workload = build_workload("job", get_process_registry().get(spec).schema)
            split = DatasetSplit(workload.name, SplitSampling.RANDOM, 0, train_ids=("1a",), test_ids=("1b",))
            runner = ParallelExperimentRunner(spec, workload)
            (task,) = runner.tasks_for(("postgres",), [split])
            sizes.append(len(pickle.dumps(runner.spec_payload(task))))
        assert sizes[0] == sizes[1] < 16_384
