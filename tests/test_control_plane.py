"""Tests of the sweep control plane: the TCP work queue and its frames.

Covers:

* property tests that claim/requeue/ack/fail interleavings never duplicate
  or drop a task (exactly-once visible completion), hand tasks out from one
  pending pool, lowest id first, and re-queue exactly the claims of workers
  that are gone,
* the HMAC frame authentication of the TCP transport, including a fuzz pass
  asserting malformed/truncated/unsigned frames error cleanly and an
  untrusted peer can never reach ``pickle.loads``,
* the bounded retry/backoff of `NetWorkQueue` against transient socket
  errors,
* `QueueStats`/`describe()` edge cases,
* a 4-worker stress sweep, byte-identical to serial, the progress
  snapshots the coordinator's own loop takes, and the end-of-sweep snapshot
  taken once the local workers exited.
"""

import json
import random
import socket
import struct
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import SIMULATION_CONFIG, RuntimeConfig
from repro.core.experiment import ExperimentConfig
from repro.core.splits import DatasetSplit, SplitSampling
from repro.errors import ExperimentError
from repro.experiments.common import distributed_runtime
from repro.runtime import netqueue
from repro.runtime.netqueue import (
    MAGIC_ERROR,
    FrameAuthError,
    NetWorkQueue,
    QueueAuthError,
    QueueServer,
    recv_frame,
    resolve_queue_secret,
    send_frame,
)
from repro.runtime.parallel import ParallelExperimentRunner
from repro.runtime.workqueue import QueueStats
from repro.storage.registry import get_process_registry
from repro.storage.spec import DatabaseSpec
from repro.workloads import build_workload

from queue_views import WireQueue

TRANSPORTS = ("tcp",)


# ---------------------------------------------------------------------------
# Property: claim/requeue/ack/fail interleavings are exactly-once
# ---------------------------------------------------------------------------


def _drain_all(queue, held, acked):
    """Ack everything held, then claim+ack until the queue is empty."""
    for task_id, claim in sorted(held.items()):
        queue.ack(claim, "drain")
        acked.append(task_id)
    held.clear()
    while True:
        claim = queue.claim("drain")
        if claim is None:
            return
        queue.ack(claim, "drain")
        acked.append(claim.task_id)


WORKERS = ("w0", "w1", "w2")


@st.composite
def interleavings(draw):
    n_tasks = draw(st.integers(min_value=3, max_value=8))
    ops = draw(
        st.lists(
            st.one_of(
                st.tuples(st.just("claim"), st.sampled_from(WORKERS)),
                st.tuples(
                    st.sampled_from(["ack", "fail"]),
                    st.integers(min_value=0, max_value=10 ** 6),
                ),
                st.tuples(st.just("requeue"), st.frozensets(st.sampled_from(WORKERS))),
            ),
            max_size=30,
        )
    )
    return n_tasks, ops


class TestExactlyOnceProperty:
    """Random claim/requeue/ack/fail interleavings: claims come from one pool,
    lowest id first; a sweep re-queues exactly the claims of the workers it
    is not told are live; no task is held by two claims; every task
    completes exactly once."""

    def _run(self, queue, n_tasks, ops):
        task_ids = [f"t-{index:02d}" for index in range(n_tasks)]
        for task_id in reversed(task_ids):  # enqueue order does not decide claim order
            queue.enqueue(task_id, f"payload-{task_id}")
        pending = set(task_ids)
        held: dict[str, object] = {}
        holders: dict[str, str] = {}  # worker by held task id
        acked: list[str] = []
        for op in ops:
            if op[0] == "claim":
                claim = queue.claim(op[1])
                if not pending:
                    assert claim is None
                    continue
                assert claim is not None and claim.task_id == min(pending)
                pending.remove(claim.task_id)
                held[claim.task_id] = claim
                holders[claim.task_id] = op[1]
            elif op[0] == "requeue":
                # The workers outside op[1] were reaped: their claims are claimable again.
                orphaned = sorted(task for task, worker in holders.items() if worker not in op[1])
                assert queue.requeue_orphaned(set(op[1])) == orphaned
                for task_id in orphaned:
                    del held[task_id], holders[task_id]
                pending.update(orphaned)
            elif held:
                task_id = sorted(held)[op[1] % len(held)]
                del holders[task_id]
                if op[0] == "ack":
                    queue.ack(held.pop(task_id), "prop")
                    acked.append(task_id)
                else:  # a failure, retried as the coordinator does
                    queue.fail(held.pop(task_id), "prop", "boom")
                    assert queue.failed_tasks() == {task_id: "boom"}
                    queue.discard_failure(task_id)
                    queue.enqueue(task_id, f"payload-{task_id}")
                    pending.add(task_id)
            assert queue.pending_ids() == pending and queue.claimed_ids() == set(held)
        _drain_all(queue, held, acked)
        assert sorted(acked) == task_ids, "a task was dropped or duplicated"
        assert queue.done_ids() == set(task_ids)
        stats = queue.stats()
        assert (stats.pending, stats.claimed, stats.done, stats.failed) == (0, 0, n_tasks, 0)

    @settings(max_examples=25, deadline=None)
    @given(scenario=interleavings())
    def test_tcp_server(self, scenario):
        n_tasks, ops = scenario
        server = QueueServer()
        try:
            self._run(server, n_tasks, ops)
        finally:
            server.close()

    @settings(max_examples=25, deadline=None)
    @given(scenario=interleavings())
    def test_wire_client(self, scenario):
        """The same interleavings with every worker op sent over a socket."""
        n_tasks, ops = scenario
        queue = WireQueue(QueueServer())
        try:
            self._run(queue, n_tasks, ops)
        finally:
            queue.close()


# ---------------------------------------------------------------------------
# Frame authentication + codec fuzz
# ---------------------------------------------------------------------------


class _ByteSock:
    """A socket stand-in replaying a fixed byte string (recv-only)."""

    def __init__(self, data: bytes):
        self.data = data
        self.offset = 0
        self.sent = b""

    def recv(self, n_bytes: int) -> bytes:
        chunk = self.data[self.offset:self.offset + n_bytes]
        self.offset += len(chunk)
        return chunk

    def sendall(self, blob: bytes) -> None:
        self.sent += blob


def _frame_bytes(payload: object, secret: bytes | None = None) -> bytes:
    sock = _ByteSock(b"")
    send_frame(sock, payload, secret=secret)
    return sock.sent


class TestFrameAuth:
    SECRET = "control-plane-secret"

    def test_resolve_queue_secret_precedence(self, monkeypatch):
        monkeypatch.delenv("REPRO_QUEUE_SECRET", raising=False)
        assert resolve_queue_secret(None) is None
        assert resolve_queue_secret("abc") == b"abc"
        assert resolve_queue_secret(b"abc") == b"abc"
        monkeypatch.setenv("REPRO_QUEUE_SECRET", "from-env")
        assert resolve_queue_secret(None) == b"from-env"
        assert resolve_queue_secret("explicit") == b"explicit"
        assert resolve_queue_secret("") is None  # explicit empty forces auth off
        monkeypatch.setenv("REPRO_QUEUE_SECRET", "")
        assert resolve_queue_secret(None) is None

    def test_secured_roundtrip_end_to_end(self, monkeypatch):
        monkeypatch.delenv("REPRO_QUEUE_SECRET", raising=False)
        server = QueueServer(secret=self.SECRET)
        try:
            with NetWorkQueue(server.url, secret=self.SECRET, retries=0) as client:
                server.enqueue("t-0", {"n": 1})
                claim = client.claim("w")
                assert claim is not None and claim.payload == {"n": 1}
                client.ack(claim, "w")
                assert server.stats().done == 1
                assert server.worker_done_counts() == {"w": 1}
        finally:
            server.close()

    def test_unauthenticated_client_rejected_before_unpickling(self, monkeypatch):
        """With a secret set, an unsigned frame must be rejected while still
        opaque bytes: `pickle.loads` in the transport is never reached."""
        server = QueueServer(secret=self.SECRET)
        try:
            server.enqueue("t-0", "payload")

            def poisoned_loads(blob):
                raise AssertionError("pickle.loads reached with an unauthenticated peer")

            monkeypatch.setattr(netqueue.pickle, "loads", poisoned_loads)
            intruder = NetWorkQueue(server.url, secret="", retries=0)
            with pytest.raises(QueueAuthError, match="unauthenticated"):
                intruder.claim("intruder")
            monkeypatch.undo()
            # The queue is untouched: the task is still claimable by a keyed worker.
            with NetWorkQueue(server.url, secret=self.SECRET, retries=0) as client:
                assert client.claim("w").task_id == "t-0"
        finally:
            server.close()

    def test_large_unsigned_frame_still_rejected_loudly(self):
        """The server drains a rejected frame's payload (bounded) before
        closing, so the error frame survives the round trip even when the
        unsigned request carries a hefty payload — the mis-keyed client gets
        QueueAuthError, never a silent connection reset read as 'sweep over'."""
        server = QueueServer(secret=self.SECRET)
        try:
            intruder = NetWorkQueue(server.url, secret="", retries=0)
            bulky = {"op": "ack", "padding": b"x" * (256 * 1024)}
            with pytest.raises(QueueAuthError, match="unauthenticated"):
                intruder._request(bulky)
        finally:
            server.close()

    def test_wrong_secret_rejected_loudly(self):
        server = QueueServer(secret=self.SECRET)
        try:
            wrong = NetWorkQueue(server.url, secret="not-the-secret", retries=0)
            with pytest.raises(QueueAuthError, match="signature mismatch"):
                wrong.stop_requested()
        finally:
            server.close()

    def test_ack_and_fail_surface_auth_rejection_instead_of_swallowing_it(self):
        """A worker's reports swallow a dead connection (the sweep is over),
        never a mis-keyed secret: ack and fail raise QueueAuthError like claim,
        and the task stays claimed instead of reading as settled."""
        server = QueueServer(secret=self.SECRET)
        try:
            server.enqueue("t-0", "p")
            with NetWorkQueue(server.url, secret=self.SECRET, retries=0) as keyed:
                claim = keyed.claim("w")
            with NetWorkQueue(server.url, secret="rotated-away", retries=0) as mis_keyed:
                with pytest.raises(QueueAuthError):
                    mis_keyed.ack(claim, "w")
                with pytest.raises(QueueAuthError):
                    mis_keyed.fail(claim, "w", "boom")
            assert server.claimed_ids() == {"t-0"}
            assert server.done_ids() == set() and server.failed_tasks() == {}
        finally:
            server.close()

    def test_signed_client_against_open_server_fails_loudly(self, monkeypatch):
        monkeypatch.delenv("REPRO_QUEUE_SECRET", raising=False)
        server = QueueServer()
        try:
            signed = NetWorkQueue(server.url, secret=self.SECRET, retries=0)
            with pytest.raises(QueueAuthError, match="no queue secret"):
                signed.stop_requested()
        finally:
            server.close()

    def test_env_variable_keys_both_sides(self, monkeypatch):
        monkeypatch.setenv("REPRO_QUEUE_SECRET", "env-keyed")
        server = QueueServer()  # picks the secret up from the environment
        try:
            server.enqueue("t-0", "p")
            with NetWorkQueue(server.url) as client:  # ditto
                assert client.claim("w").task_id == "t-0"
        finally:
            server.close()

    def test_tampered_signed_frame_answered_with_error_frame(self):
        """Flipping one payload byte of a correctly-keyed frame must produce a
        plain-text error frame (never a pickled response)."""
        server = QueueServer(secret=self.SECRET)
        try:
            frame = bytearray(_frame_bytes({"op": "poll"}, secret=resolve_queue_secret(self.SECRET)))
            frame[-1] ^= 0xFF
            with socket.create_connection((server.host, server.port), timeout=5) as sock:
                sock.sendall(bytes(frame))
                header = sock.recv(6)
            assert header[:2] == MAGIC_ERROR
        finally:
            server.close()

    def test_auth_error_frames_are_never_pickled(self):
        """The rejection a secured server sends is raw utf-8, parseable
        without trusting the peer."""
        sock = _ByteSock(b"")
        netqueue.send_error_frame(sock, "go away")
        magic, length = struct.unpack(">2sI", sock.sent[:6])
        assert magic == MAGIC_ERROR and sock.sent[6:] == b"go away"
        with pytest.raises(QueueAuthError, match="go away"):
            recv_frame(_ByteSock(sock.sent))


class TestFrameCodecFuzz:
    SECRET = b"fuzz-secret"

    def test_truncated_frames_error_cleanly(self):
        frame = _frame_bytes({"op": "poll", "padding": list(range(32))})
        for cut in range(len(frame)):
            with pytest.raises((ConnectionError, EOFError, ValueError)):
                recv_frame(_ByteSock(frame[:cut]))

    def test_truncated_signed_frames_error_cleanly(self):
        frame = _frame_bytes({"op": "poll"}, secret=self.SECRET)
        for cut in range(len(frame)):
            with pytest.raises((ConnectionError, EOFError, ValueError)):
                recv_frame(_ByteSock(frame[:cut]), secret=self.SECRET)

    def test_mutations_never_reach_unpickling_on_a_secured_endpoint(self, monkeypatch):
        """Byte-level fuzz of a validly-signed frame: any mutation must raise a
        clean frame error before `pickle.loads` is reached."""
        frame = _frame_bytes({"op": "claim", "worker_id": "w"}, secret=self.SECRET)

        def poisoned_loads(blob):
            raise AssertionError("pickle.loads reached on a mutated frame")

        monkeypatch.setattr(netqueue.pickle, "loads", poisoned_loads)
        rng = random.Random(0xC0FFEE)
        for _ in range(300):
            mutated = bytearray(frame)
            for _ in range(rng.randint(1, 3)):
                position = rng.randrange(len(mutated))
                flip = rng.randrange(1, 256)
                mutated[position] ^= flip
            with pytest.raises((ConnectionError, QueueAuthError)):
                recv_frame(_ByteSock(bytes(mutated)), secret=self.SECRET)

    def test_unsigned_and_garbage_frames_rejected_on_secured_endpoint(self, monkeypatch):
        def poisoned_loads(blob):
            raise AssertionError("pickle.loads reached for an unsigned frame")

        monkeypatch.setattr(netqueue.pickle, "loads", poisoned_loads)
        unsigned = _frame_bytes({"op": "claim"})
        with pytest.raises(FrameAuthError, match="unauthenticated"):
            recv_frame(_ByteSock(unsigned), secret=self.SECRET)
        rng = random.Random(42)
        for length in (0, 1, 6, 64):
            garbage = bytes(rng.randrange(256) for _ in range(length))
            with pytest.raises((ConnectionError, QueueAuthError)):
                recv_frame(_ByteSock(garbage), secret=self.SECRET)

    def test_header_mutations_error_cleanly_on_open_endpoint(self):
        """An *open* endpoint may reach the unpickler with garbage (that is
        its documented trust model) but must always raise cleanly: a mutated
        magic/length can shorten the payload into truncated pickle bytes."""
        import pickle as pickle_module

        frame = _frame_bytes({"op": "poll"})
        clean_errors = (
            ConnectionError, QueueAuthError, EOFError, pickle_module.UnpicklingError, ValueError,
        )
        for position in range(6):  # magic + length header
            for flip in (0x01, 0x80, 0xFF):
                mutated = bytearray(frame)
                mutated[position] ^= flip
                with pytest.raises(clean_errors):
                    recv_frame(_ByteSock(bytes(mutated)))

    def test_frame_deadline_defeats_a_trickling_peer(self, monkeypatch):
        """A peer feeding one byte per recv cannot stretch a frame read past
        the deadline: the budget covers the whole frame, not each recv."""
        frame = _frame_bytes({"op": "poll", "padding": "x" * 64})

        class TricklingSock(_ByteSock):
            def __init__(self, data, clock):
                super().__init__(data)
                self.clock = clock

            def settimeout(self, value):
                pass

            def recv(self, n_bytes):
                self.clock["now"] += 1.0  # each byte costs a second
                return super().recv(1)

        clock = {"now": 0.0}
        monkeypatch.setattr(netqueue.time, "monotonic", lambda: clock["now"])
        with pytest.raises(ConnectionError, match="deadline"):
            recv_frame(TricklingSock(frame, clock), deadline=10.0)
        # The same trickle with enough budget succeeds.
        clock["now"] = 0.0
        assert recv_frame(TricklingSock(frame, clock), deadline=10_000.0)["op"] == "poll"

    def test_oversized_length_rejected_without_allocation(self):
        header = struct.pack(">2sI", b"RQ", netqueue.MAX_FRAME_BYTES + 1)
        with pytest.raises(ConnectionError, match="oversized"):
            recv_frame(_ByteSock(header))
        error_header = struct.pack(">2sI", b"RE", netqueue.MAX_ERROR_BYTES + 1)
        with pytest.raises(ConnectionError, match="oversized"):
            recv_frame(_ByteSock(error_header))


# ---------------------------------------------------------------------------
# Client retry/backoff (satellite: coordinator restart must not kill workers)
# ---------------------------------------------------------------------------


class TestClientRetries:
    def test_transient_connection_refused_is_retried(self, monkeypatch):
        server = QueueServer()
        try:
            server.enqueue("t-0", "payload")
            real_connect = socket.create_connection
            attempts = {"n": 0}

            def flaky(address, timeout=None):
                attempts["n"] += 1
                if attempts["n"] <= 2:
                    raise ConnectionRefusedError("coordinator restarting")
                return real_connect(address, timeout=timeout)

            monkeypatch.setattr(netqueue.socket, "create_connection", flaky)
            with NetWorkQueue(server.url, retries=3, backoff_s=0.01) as client:
                claim = client.claim("w")
            assert claim is not None and claim.task_id == "t-0"
            assert attempts["n"] == 3  # two refusals + the success
        finally:
            server.close()

    def test_exhausted_retries_then_reads_as_stop(self, monkeypatch):
        attempts = {"n": 0}

        def always_refused(address, timeout=None):
            attempts["n"] += 1
            raise ConnectionRefusedError("gone for good")

        monkeypatch.setattr(netqueue.socket, "create_connection", always_refused)
        client = NetWorkQueue("tcp://127.0.0.1:1", retries=2, backoff_s=0.01)
        assert client.claim("w") is None
        assert attempts["n"] == 3  # initial + 2 retries, bounded
        attempts["n"] = 0
        assert client.stop_requested() is True
        assert attempts["n"] == 3

    def test_auth_rejection_is_not_retried(self, monkeypatch):
        server = QueueServer(secret="the-secret")
        try:
            real_connect = socket.create_connection
            attempts = {"n": 0}

            def counting(address, timeout=None):
                attempts["n"] += 1
                return real_connect(address, timeout=timeout)

            monkeypatch.setattr(netqueue.socket, "create_connection", counting)
            intruder = NetWorkQueue(server.url, secret="", retries=5, backoff_s=0.01)
            with pytest.raises(QueueAuthError):
                intruder.claim("w")
            assert attempts["n"] == 1  # retrying cannot fix a missing secret
        finally:
            server.close()

    def test_negative_retries_rejected(self):
        with pytest.raises(ExperimentError):
            NetWorkQueue("tcp://127.0.0.1:1", retries=-1)


# ---------------------------------------------------------------------------
# QueueStats / describe edge cases (satellite)
# ---------------------------------------------------------------------------


@pytest.fixture
def plain_queue(make_queue):
    return make_queue()


class TestQueueStatsEdgeCases:
    def test_empty_queue(self, plain_queue):
        stats = plain_queue.stats()
        assert stats == QueueStats(pending=0, claimed=0, done=0, failed=0)
        assert stats.describe() == "0 pending, 0 claimed, 0 done, 0 failed"
        assert plain_queue.worker_done_counts() == {}

    def test_failed_only_queue(self, plain_queue):
        for index in range(2):
            plain_queue.enqueue(f"t-{index}", "p")
            plain_queue.fail(plain_queue.claim("w"), "w", "boom")
        stats = plain_queue.stats()
        assert (stats.pending, stats.claimed, stats.done, stats.failed) == (0, 0, 0, 2)
        assert stats.describe() == "0 pending, 0 claimed, 0 done, 2 failed"
        assert plain_queue.worker_done_counts() == {}  # failures are not completions

    def test_stats_are_sane_under_concurrent_claims(self, plain_queue):
        """The coordinator reads stats() while workers claim/ack: every
        observation must be internally consistent (no negative or impossible
        counts), and the final state must be exact."""
        total = 30
        for index in range(total):
            plain_queue.enqueue(f"t-{index:02d}", index)

        errors: list[str] = []
        stop = threading.Event()

        def churn(name: str):
            while not stop.is_set():
                claim = plain_queue.claim(name)
                if claim is None:
                    return
                plain_queue.ack(claim, name)

        def observe():
            while not stop.is_set():
                stats = plain_queue.stats()
                counts = (stats.pending, stats.claimed, stats.done, stats.failed)
                if any(value < 0 for value in counts):
                    errors.append(f"negative count in {counts}")
                if stats.done > total:
                    errors.append(f"done overshot: {counts}")
                described = stats.describe()
                if f"{stats.done} done" not in described:
                    errors.append(f"describe out of sync: {described}")

        workers = [threading.Thread(target=churn, args=(f"w-{i}",)) for i in range(3)]
        observer = threading.Thread(target=observe, daemon=True)
        observer.start()
        for thread in workers:
            thread.start()
        for thread in workers:
            thread.join(timeout=60)
        stop.set()
        observer.join(timeout=10)
        assert not errors, errors[:3]
        final = plain_queue.stats()
        assert (final.pending, final.claimed, final.done) == (0, 0, total)
        assert sum(plain_queue.worker_done_counts().values()) == total


# ---------------------------------------------------------------------------
# Stress: 4-worker sweeps stay byte-identical to serial (acceptance)
# ---------------------------------------------------------------------------


def _grid_parts(scale: float = 0.2):
    spec = DatabaseSpec.create("imdb", scale=scale, seed=7, config=SIMULATION_CONFIG)
    database = get_process_registry().get(spec)
    workload = build_workload("job", database.schema)
    splits = [
        DatasetSplit(workload.name, SplitSampling.RANDOM, 0,
                     train_ids=("1a", "2a", "3a"), test_ids=("1b", "2b")),
        DatasetSplit(workload.name, SplitSampling.RANDOM, 1,
                     train_ids=("6a", "8a", "4a"), test_ids=("3a", "1a")),
        DatasetSplit(workload.name, SplitSampling.RANDOM, 2,
                     train_ids=("10a", "17a", "6b"), test_ids=("2a", "20a")),
    ]
    return spec, workload, splits


GRID_CONFIG = ExperimentConfig(optimizer_kwargs={"bao": {"training_passes": 1}})


class TestSweepStress:
    @pytest.mark.parametrize("transport", TRANSPORTS)
    def test_four_worker_sweep_byte_identical_with_progress(self, tmp_path, transport):
        """A 4-worker sweep into a 4-shard store is byte-identical to serial
        while emitting at least one valid progress snapshot and running fully
        HMAC-authenticated (with the secret the sweep mints)."""
        spec, workload, splits = _grid_parts()
        methods = ("postgres", "bao")
        snapshots = []
        runner = ParallelExperimentRunner(
            spec,
            workload,
            experiment_config=GRID_CONFIG,
            runtime_config=distributed_runtime(
                tmp_path / "store",
                workers=4,
                shard_count=4,
                queue_url=f"{transport}://127.0.0.1:0",
                progress_interval_s=0.25,
            ),
            progress_callback=snapshots.append,
        )
        distributed = [
            json.dumps(r.to_dict(), sort_keys=True) for r in runner.run_grid(methods, splits)
        ]

        serial = ParallelExperimentRunner(
            spec, workload, experiment_config=GRID_CONFIG, runtime_config=RuntimeConfig(workers=1)
        )
        expected = [
            json.dumps(r.to_dict(), sort_keys=True) for r in serial.run_grid(methods, splits)
        ]
        assert distributed == expected  # which worker ran a task never changes its bytes

        assert snapshots, "the sweep emitted no progress snapshot"
        final = snapshots[-1]
        assert final.total == len(methods) * len(splits)
        assert final.done == final.total and final.remaining == 0
        json.loads(final.to_json())  # machine-readable end to end
        assert sum(final.workers.values()) == final.total

    def test_every_callback_runs_on_the_coordinators_thread(self, tmp_path, slow_tasks):
        """Periodic and final snapshots come from the coordinator's wait loop:
        every callback runs on the main thread and no progress thread exists."""
        spec, workload, splits = _grid_parts()
        slow_tasks(0.2)  # the sweep outlasts several progress intervals
        seen = []

        def on_progress(snapshot):
            seen.append((
                snapshot,
                threading.current_thread() is threading.main_thread(),
                sorted(thread.name for thread in threading.enumerate()),
            ))

        runner = ParallelExperimentRunner(
            spec,
            workload,
            experiment_config=GRID_CONFIG,
            runtime_config=distributed_runtime(
                tmp_path / "store", workers=1, shard_count=2,
                progress_interval_s=0.05,
            ),
            progress_callback=on_progress,
        )
        runner.run_grid(("postgres",), splits[:2])
        assert len(seen) >= 2, "no periodic snapshot before the final one"
        assert all(on_main for _, on_main, _ in seen)
        assert not any("repro-sweep-progress" in names for _, _, names in seen)
        snapshots = [snapshot for snapshot, _, _ in seen]
        assert [s.sequence for s in snapshots] == list(range(len(snapshots)))
        assert snapshots[0].elapsed_s >= 0.05  # the first falls due one interval after the spawn
        elapsed = [s.elapsed_s for s in snapshots]
        assert elapsed == sorted(elapsed)
        assert (snapshots[-1].done, snapshots[-1].total) == (2, 2)

    def test_callback_without_interval_gets_only_the_final_snapshot(self, tmp_path):
        """progress_interval_s=None disables *periodic* polling (as documented
        on RuntimeConfig): a bare progress_callback still receives exactly the
        end-of-sweep snapshot."""
        spec, workload, splits = _grid_parts()
        snapshots = []
        runner = ParallelExperimentRunner(
            spec,
            workload,
            experiment_config=GRID_CONFIG,
            runtime_config=distributed_runtime(
                tmp_path / "store", workers=1, shard_count=2
            ),
            progress_callback=snapshots.append,
        )
        runner.run_grid(("postgres",), splits[:1])
        assert len(snapshots) == 1
        assert snapshots[0].done == snapshots[0].total == 1

        # A fully-resumed re-run (nothing enqueued) still emits its final
        # completion snapshot — a dashboard must see the sweep finish.
        runner.run_grid(("postgres",), splits[:1])
        assert len(snapshots) == 2
        assert snapshots[1].total == 0 and snapshots[1].remaining == 0

    def test_a_failed_sweep_still_delivers_its_final_snapshot(self, tmp_path):
        """The end-of-sweep snapshot is taken on failure too: a sweep whose
        one task fails for good raises, and the callback has seen that task
        failed, after the worker exited."""
        spec, workload, splits = _grid_parts()
        # Shares the registered name but not the content: the worker's rebuild
        # refuses it, so the task fails on every attempt.
        lookalike = workload.subset(["1a", "1b", "2a", "2b", "3a"], name="job")
        observed = []
        runner = ParallelExperimentRunner(
            spec,
            lookalike,
            experiment_config=GRID_CONFIG,
            runtime_config=distributed_runtime(
                tmp_path / "store", workers=1, shard_count=2, task_retries=0
            ),
            progress_callback=lambda snapshot: observed.append(
                (snapshot, [proc.poll() for proc in runner._distributed_procs])
            ),
        )
        with pytest.raises(ExperimentError, match="failed permanently"):
            runner.run_grid(("postgres",), splits[:1])
        assert len(observed) == 1
        final, return_codes = observed[0]
        assert (final.total, final.done, final.failed, final.claimed) == (1, 0, 1, 0)
        assert return_codes and None not in return_codes

    def test_an_aborted_sweep_runs_no_pending_task(self, tmp_path, slow_tasks):
        """A callback that raises at the first snapshot aborts the sweep: the
        stop ends every claim, so the worker finishes the task it holds and
        leaves the rest of the grid unrun."""
        spec, workload, splits = _grid_parts()
        slow_tasks(0.5)  # no cell is done at the first snapshot
        seen = []

        def abort_at_first(snapshot):
            seen.append(snapshot)
            if len(seen) == 1:
                raise TypeError("dashboard bug")

        runner = ParallelExperimentRunner(
            spec,
            workload,
            experiment_config=GRID_CONFIG,
            runtime_config=distributed_runtime(
                tmp_path / "store", workers=1, shard_count=2,
                progress_interval_s=0.05,
            ),
            progress_callback=abort_at_first,
        )
        with pytest.raises(TypeError, match="dashboard bug"):
            runner.run_grid(("postgres", "bao"), splits)
        first, final = seen
        assert (first.total, first.done) == (6, 0)
        assert final.done < 6 and final.claimed == 0
        assert len(list(runner.result_store.completed_files())) == final.done

    def test_a_raising_final_callback_propagates_once_the_workers_exited(self, tmp_path):
        """The end-of-sweep snapshot is taken after the stop, the reaping and
        the close: a raising callback is a bug, not a transport failure, so it
        leaves run_grid — and no local worker outlives it."""
        spec, workload, splits = _grid_parts()

        def broken_callback(snapshot):
            raise TypeError("dashboard bug")

        runner = ParallelExperimentRunner(
            spec,
            workload,
            experiment_config=GRID_CONFIG,
            runtime_config=distributed_runtime(
                tmp_path / "store", workers=1, shard_count=2
            ),
            progress_callback=broken_callback,
        )
        with pytest.raises(TypeError, match="dashboard bug"):
            runner.run_grid(("postgres",), splits[:1])
        assert runner._distributed_procs
        assert all(proc.poll() is not None for proc in runner._distributed_procs)

    @pytest.mark.parametrize("transport", TRANSPORTS)
    def test_the_final_snapshot_is_exact_and_taken_after_the_workers_exited(self, tmp_path, transport):
        """The server answers ``stats()`` in process after ``close()``:
        the end-of-sweep snapshot sees every task done, none pending or
        claimed, and no local worker still running."""
        spec, workload, splits = _grid_parts()
        observed = []
        runner = ParallelExperimentRunner(
            spec,
            workload,
            experiment_config=GRID_CONFIG,
            runtime_config=distributed_runtime(
                tmp_path / "store",
                workers=2,
                queue_url=f"{transport}://127.0.0.1:0",
            ),
            progress_callback=lambda snapshot: observed.append(
                (snapshot, [proc.poll() for proc in runner._distributed_procs])
            ),
        )
        runner.run_grid(("postgres",), splits[:2])
        assert len(observed) == 1
        final, return_codes = observed[0]
        assert (final.total, final.done, final.pending, final.claimed, final.failed) == (2, 2, 0, 0, 0)
        assert len(return_codes) == 2 and None not in return_codes


class TestPollOp:
    def test_poll_answers_only_the_stop_flag(self):
        """Workers read ``stop`` alone; the reply carries no queue counts."""
        server = QueueServer()
        client = NetWorkQueue(server.url, retries=0)
        try:
            server.enqueue("t-0", "p")
            assert client._request({"op": "poll"}) == {"ok": True, "stop": False}
            server.write_stop()
            assert client._request({"op": "poll"}) == {"ok": True, "stop": True}
            assert client.stop_requested() is True
        finally:
            client.close()
            server.close()

