"""Tests of the frame codec and of sweeps seen from the progress callback.

Covers:

* the HMAC frame authentication of the TCP transport, including a fuzz pass
  asserting malformed/truncated/unsigned frames error cleanly and an
  untrusted peer can never reach ``pickle.loads``,
* the codec's round trip of every payload shape, open and signed, and a
  ``FrameServer``/``FrameClient`` pair end to end,
* the bounded retry/backoff of ``FrameClient`` against transient socket
  errors,
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

from repro.config import SIMULATION_CONFIG, RuntimeConfig
from repro.core.experiment import ExperimentConfig
from repro.core.splits import DatasetSplit, SplitSampling
from repro.errors import ExperimentError
from repro.experiments.common import distributed_runtime
from repro.runtime import netqueue
from repro.runtime.netqueue import (
    MAGIC_ERROR,
    FrameAuthError,
    FrameClient,
    FrameServer,
    QueueAuthError,
    recv_frame,
    resolve_queue_secret,
    send_frame,
)
from repro.runtime.parallel import ParallelExperimentRunner
from repro.runtime.result_store import TaskKey
from repro.storage.registry import get_process_registry
from repro.storage.spec import DatabaseSpec
from repro.workloads import build_workload


def echo(request, peer):
    return {"ok": True, "echo": request}


def echo_server(secret: str | None = None) -> FrameServer:
    """A frame server on a loopback port answering each request with itself."""
    return FrameServer(("127.0.0.1", 0), echo, secret, name="echo-server")


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

    def test_unauthenticated_client_rejected_before_unpickling(self, monkeypatch):
        """With a secret set, an unsigned frame must be rejected while still
        opaque bytes: `pickle.loads` in the transport is never reached, and
        a keyed client is served afterwards."""
        server = echo_server(self.SECRET)
        try:

            def poisoned_loads(blob):
                raise AssertionError("pickle.loads reached with an unauthenticated peer")

            monkeypatch.setattr(netqueue.pickle, "loads", poisoned_loads)
            with FrameClient(server.url, secret="", retries=0) as intruder:
                with pytest.raises(QueueAuthError, match="unauthenticated"):
                    intruder.request({"op": "ping"})
            monkeypatch.undo()
            with FrameClient(server.url, secret=self.SECRET, retries=0) as client:
                assert client.request({"n": 1})["echo"] == {"n": 1}
            assert server.counters()["auth_rejects"] == 1
        finally:
            server.close()

    def test_large_unsigned_frame_still_rejected_loudly(self):
        """The server drains a rejected frame's payload (bounded) before
        closing, so the error frame survives the round trip even when the
        unsigned request carries a hefty payload — the mis-keyed client gets
        QueueAuthError, never a silent connection reset."""
        server = echo_server(self.SECRET)
        try:
            with FrameClient(server.url, secret="", retries=0) as intruder:
                with pytest.raises(QueueAuthError, match="unauthenticated"):
                    intruder.request({"op": "ping", "padding": b"x" * (256 * 1024)})
        finally:
            server.close()

    def test_wrong_secret_rejected_loudly(self):
        server = echo_server(self.SECRET)
        try:
            with FrameClient(server.url, secret="not-the-secret", retries=0) as wrong:
                with pytest.raises(QueueAuthError, match="signature mismatch"):
                    wrong.request({"op": "ping"})
        finally:
            server.close()

    def test_signed_client_against_open_server_fails_loudly(self, monkeypatch):
        monkeypatch.delenv("REPRO_QUEUE_SECRET", raising=False)
        server = echo_server()
        try:
            with FrameClient(server.url, secret=self.SECRET, retries=0) as signed:
                with pytest.raises(QueueAuthError, match="no queue secret"):
                    signed.request({"op": "ping"})
        finally:
            server.close()

    def test_env_variable_keys_both_sides(self, monkeypatch):
        monkeypatch.setenv("REPRO_QUEUE_SECRET", "env-keyed")
        server = echo_server()  # picks the secret up from the environment
        try:
            with FrameClient(server.url) as client:  # ditto
                assert client.request("hello")["echo"] == "hello"
            assert server.secret == b"env-keyed"
        finally:
            server.close()

    def test_tampered_signed_frame_answered_with_error_frame(self):
        """Flipping one payload byte of a correctly-keyed frame must produce a
        plain-text error frame (never a pickled response)."""
        server = echo_server(self.SECRET)
        try:
            frame = bytearray(_frame_bytes({"op": "ping"}, secret=resolve_queue_secret(self.SECRET)))
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


#: Payloads of every shape a frame carries: scalars, containers, the plan
#: server's request dicts and a value of a repro class.
ROUND_TRIP_PAYLOADS = [
    None,
    -7,
    3.5,
    "text with ünïcode",
    b"\x00\xffbytes",
    ("tuple", 1, None),
    [1, [2, [3, []]]],
    {"op": "plan", "sql": "SELECT COUNT(*) FROM title AS t", "hints": None},
    frozenset({"a", "b"}),
    TaskKey("job", "random-0", "postgres", seed=3),
]


class TestFrameRoundTrip:
    @pytest.mark.parametrize("secret", [None, b"round-trip-secret"], ids=["open", "signed"])
    @pytest.mark.parametrize("payload", ROUND_TRIP_PAYLOADS, ids=lambda payload: type(payload).__name__)
    def test_a_frame_decodes_to_what_was_sent(self, payload, secret):
        frame = _frame_bytes(payload, secret=secret)
        sock = _ByteSock(frame)
        assert recv_frame(sock, secret=secret) == payload
        assert sock.offset == len(frame)  # exactly one frame consumed

    def test_frames_on_one_stream_decode_one_at_a_time(self):
        stream = b"".join(_frame_bytes(payload, secret=b"k") for payload in ROUND_TRIP_PAYLOADS)
        sock = _ByteSock(stream)
        assert [recv_frame(sock, secret=b"k") for _ in ROUND_TRIP_PAYLOADS] == ROUND_TRIP_PAYLOADS
        assert sock.offset == len(stream)

    def test_a_signed_frame_is_the_open_one_plus_a_digest(self):
        open_frame = _frame_bytes({"op": "ping"})
        signed = _frame_bytes({"op": "ping"}, secret=b"k")
        assert (open_frame[:2], signed[:2]) == (netqueue.MAGIC, netqueue.MAGIC_SIGNED)
        assert open_frame[2:6] == signed[2:6]  # the length counts the payload only
        assert len(signed) == len(open_frame) + netqueue.DIGEST_SIZE
        assert signed[6 + netqueue.DIGEST_SIZE:] == open_frame[6:]

    def test_an_oversized_payload_is_refused_before_anything_is_sent(self, monkeypatch):
        monkeypatch.setattr(netqueue, "MAX_FRAME_BYTES", 64)
        sock = _ByteSock(b"")
        with pytest.raises(ExperimentError, match="exceeds 64"):
            send_frame(sock, "x" * 100)
        assert sock.sent == b""

    def test_a_long_error_message_is_cut_to_the_bound(self):
        sock = _ByteSock(b"")
        netqueue.send_error_frame(sock, "é" * netqueue.MAX_ERROR_BYTES)
        assert len(sock.sent) == 6 + netqueue.MAX_ERROR_BYTES
        with pytest.raises(QueueAuthError):
            recv_frame(_ByteSock(sock.sent))


class TestFrameServerEndToEnd:
    SECRET = "end-to-end-secret"

    def test_a_secured_round_trip_keeps_one_connection(self):
        """Every value of a keyed client comes back intact over one kept
        connection, and the server counts no rejection or error."""
        server = echo_server(self.SECRET)
        try:
            with FrameClient(server.url, secret=self.SECRET, retries=0) as client:
                for payload in ROUND_TRIP_PAYLOADS:
                    assert client.request(payload) == {"ok": True, "echo": payload}
            assert server.counters() == {"connections": 1, "auth_rejects": 0, "errors": 0}
        finally:
            server.close()

    def test_every_request_of_a_mis_keyed_client_raises(self):
        """A rejection is never swallowed: each request raises, and each is
        one more rejection on the server."""
        server = echo_server(self.SECRET)
        try:
            with FrameClient(server.url, secret="stale-secret", retries=0) as client:
                for _ in range(3):
                    with pytest.raises(QueueAuthError, match="signature mismatch"):
                        client.request({"op": "ping"})
            assert server.counters()["auth_rejects"] == 3
        finally:
            server.close()

    def test_a_raising_dispatch_is_answered_and_the_connection_kept(self):
        def dispatch(request, peer):
            if request == "bad":
                raise ValueError("cannot answer that")
            return {"ok": True, "peer": peer}

        server = FrameServer(("127.0.0.1", 0), dispatch, self.SECRET, name="raising-server")
        try:
            with FrameClient(server.url, secret=self.SECRET, retries=0) as client:
                assert client.request("bad") == {"ok": False, "error": "ValueError: cannot answer that"}
                assert client.request("good") == {"ok": True, "peer": "127.0.0.1"}
            assert server.counters()["connections"] == 1
        finally:
            server.close()

    def test_a_wildcard_server_is_reached_on_the_loopback_url(self):
        server = FrameServer(("0.0.0.0", 0), echo, self.SECRET, name="wildcard-server")
        try:
            assert server.url == f"tcp://127.0.0.1:{server.port}"
            with FrameClient(server.url, secret=self.SECRET, retries=0) as client:
                assert client.request("hi")["echo"] == "hi"
                assert client.describe() == f"FrameClient(tcp://127.0.0.1:{server.port})"
        finally:
            server.close()

    def test_close_is_idempotent(self):
        server = echo_server(self.SECRET)
        server.close()
        server.close()
        with pytest.raises(OSError):
            socket.create_connection((server.host, server.port), timeout=1).close()

    @pytest.mark.parametrize("url", ["file:///shared/q", "tcp://host", "tcp://host:70777", "127.0.0.1:7077"])
    def test_a_client_refuses_a_url_that_is_not_tcp(self, url):
        with pytest.raises(ExperimentError, match="tcp://<host>:<port>"):
            FrameClient(url)


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
# Client retry/backoff: a server restart must not read as a dead server
# ---------------------------------------------------------------------------


class TestClientRetries:
    def test_transient_connection_refused_is_retried(self, monkeypatch):
        server = echo_server()
        try:
            real_connect = socket.create_connection
            attempts = {"n": 0}

            def flaky(address, timeout=None):
                attempts["n"] += 1
                if attempts["n"] <= 2:
                    raise ConnectionRefusedError("server restarting")
                return real_connect(address, timeout=timeout)

            monkeypatch.setattr(netqueue.socket, "create_connection", flaky)
            with FrameClient(server.url, secret="", retries=3, backoff_s=0.01) as client:
                assert client.request("t-0")["echo"] == "t-0"
            assert attempts["n"] == 3  # two refusals + the success
        finally:
            server.close()

    def test_exhausted_retries_raise_the_connection_error(self, monkeypatch):
        attempts = {"n": 0}

        def always_refused(address, timeout=None):
            attempts["n"] += 1
            raise ConnectionRefusedError("gone for good")

        monkeypatch.setattr(netqueue.socket, "create_connection", always_refused)
        client = FrameClient("tcp://127.0.0.1:1", retries=2, backoff_s=0.01)
        with pytest.raises(ConnectionRefusedError, match="gone for good"):
            client.request("t-0")
        assert attempts["n"] == 3  # initial + 2 retries, bounded

    def test_auth_rejection_is_not_retried(self, monkeypatch):
        server = echo_server("the-secret")
        try:
            real_connect = socket.create_connection
            attempts = {"n": 0}

            def counting(address, timeout=None):
                attempts["n"] += 1
                return real_connect(address, timeout=timeout)

            monkeypatch.setattr(netqueue.socket, "create_connection", counting)
            with FrameClient(server.url, secret="", retries=5, backoff_s=0.01) as intruder:
                with pytest.raises(QueueAuthError):
                    intruder.request("t-0")
            assert attempts["n"] == 1  # retrying cannot fix a missing secret
        finally:
            server.close()

    def test_negative_retries_rejected(self):
        with pytest.raises(ExperimentError):
            FrameClient("tcp://127.0.0.1:1", retries=-1)


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
    def test_four_worker_sweep_byte_identical_with_progress(self, tmp_path):
        """A 4-worker sweep into a 4-shard store is byte-identical to serial
        while emitting at least one valid progress snapshot."""
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
        every callback runs on the main thread, the only thread there is."""
        spec, workload, splits = _grid_parts()
        slow_tasks(0.2)  # the sweep outlasts several progress intervals
        seen = []

        def on_progress(snapshot):
            seen.append((
                snapshot,
                threading.current_thread() is threading.main_thread(),
                threading.active_count(),
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
        assert {count for _, _, count in seen} == {1}
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

        # A fully-resumed re-run (nothing sent) still emits its final
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
        coordinator sends no further cell and kills the fork still holding
        one, so the rest of the grid stays unrun and counts as pending."""
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
        assert final.done < 6 and final.claimed == 0 and final.pending == 6 - final.done
        assert runner._distributed_procs[0].returncode == -9
        assert len(list(runner.result_store.completed_files())) == final.done

    def test_a_raising_final_callback_propagates_once_the_workers_exited(self, tmp_path):
        """The end-of-sweep snapshot is taken once every fork was reaped: a
        raising callback is a bug, not a worker failure, so it leaves
        run_grid — and no local worker outlives it."""
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

    def test_the_final_snapshot_is_exact_and_taken_after_the_workers_exited(self, tmp_path):
        """The end-of-sweep snapshot reads the coordinator's counters once
        the forks exited: every task done, none pending or claimed, and no
        local worker still running."""
        spec, workload, splits = _grid_parts()
        observed = []
        runner = ParallelExperimentRunner(
            spec,
            workload,
            experiment_config=GRID_CONFIG,
            runtime_config=distributed_runtime(tmp_path / "store", workers=2),
            progress_callback=lambda snapshot: observed.append(
                (snapshot, [proc.poll() for proc in runner._distributed_procs])
            ),
        )
        runner.run_grid(("postgres",), splits[:2])
        assert len(observed) == 1
        final, return_codes = observed[0]
        assert (final.total, final.done, final.pending, final.claimed, final.failed) == (2, 2, 0, 0, 0)
        assert len(return_codes) == 2 and None not in return_codes
