"""Tests of the shared frame transport: ``FrameServer`` / ``FrameClient``.

One connection carries any number of frame pairs, so the failure modes that
one-frame-per-connection could not have are pinned here: a kept socket going
stale (idle deadline, server restart), a bad frame arriving *after* good ones,
``close()`` with live connections, and two threads sharing one client.
"""

import hashlib
import hmac
import logging
import pickle
import socket
import struct
import sys
import threading
import time

import pytest

from repro.config import SIMULATION_CONFIG
from repro.runtime import netqueue
from repro.runtime.netqueue import (
    MAGIC_ERROR,
    FrameClient,
    FrameServer,
    NetWorkQueue,
    QueueServer,
    recv_frame,
    resolve_queue_secret,
    send_frame,
)
from repro.runtime.planclient import PlanClient
from repro.runtime.planserver import PlanServer
from repro.storage.registry import get_process_registry
from repro.storage.spec import DatabaseSpec

SECRET = "frame-transport-secret"
KEY = resolve_queue_secret(SECRET)
TWO_WAY = "SELECT COUNT(*) FROM title AS t JOIN movie_companies AS mc ON t.id = mc.movie_id"


def echo(request, peer):
    return {"ok": True, "echo": request}


@pytest.fixture()
def echo_server():
    server = FrameServer(("127.0.0.1", 0), echo, SECRET, name="echo-server")
    yield server
    server.close()


@pytest.fixture(scope="module")
def database():
    spec = DatabaseSpec.create("imdb", scale=0.1, seed=42, config=SIMULATION_CONFIG)
    return get_process_registry().get(spec)


@pytest.fixture()
def plan_server(database):
    server = PlanServer(database, secret=SECRET)
    yield server
    server.close()


def signed_frame(blob: bytes) -> bytes:
    """A correctly signed frame around arbitrary payload bytes."""
    header = struct.pack(">2sI", b"RS", len(blob))
    return header + hmac.new(KEY, header + blob, hashlib.sha256).digest() + blob


def read_until_closed(sock: socket.socket, timeout_s: float = 5.0) -> bytes:
    """Everything the peer still sends, up to its EOF (fails on timeout)."""
    sock.settimeout(timeout_s)
    chunks = []
    while chunk := sock.recv(4096):
        chunks.append(chunk)
    return b"".join(chunks)


class TestPersistentConnection:
    def test_many_plan_calls_are_one_connection(self, plan_server):
        client = PlanClient(plan_server.url, client_id="one", secret=SECRET, retries=0)
        for _ in range(200):
            client.plan(TWO_WAY)
        stats = client.stats()
        assert stats["served"] == 200
        assert stats["connections"] == 1
        client.close()

    def test_idle_connection_is_closed_and_the_next_call_reconnects(
        self, echo_server, monkeypatch, caplog
    ):
        monkeypatch.setattr(netqueue, "SERVER_TIMEOUT_S", 0.2)
        client = FrameClient(echo_server.url, secret=SECRET, retries=0)
        with caplog.at_level(logging.INFO, logger="repro.runtime"):
            assert client.request({"n": 1})["echo"] == {"n": 1}
            deadline = time.monotonic() + 5
            while "frame deadline" not in caplog.text and time.monotonic() < deadline:
                time.sleep(0.05)
        assert "frame deadline" in caplog.text
        # The kept socket is dead; with no retry budget the call still succeeds.
        assert client.request({"n": 2})["echo"] == {"n": 2}
        assert echo_server.counters()["connections"] == 2
        client.close()

    def test_trickled_second_frame_is_cut_at_the_deadline(self, echo_server, monkeypatch):
        monkeypatch.setattr(netqueue, "SERVER_TIMEOUT_S", 0.3)
        with socket.create_connection((echo_server.host, echo_server.port), timeout=5) as sock:
            send_frame(sock, {"n": 1}, secret=KEY)
            assert recv_frame(sock, secret=KEY)["echo"] == {"n": 1}
            frame = signed_frame(pickle.dumps({"n": 2}))
            started = time.monotonic()
            sock.sendall(frame[: len(frame) // 2])  # ... and never the rest
            assert read_until_closed(sock) == b""
            assert time.monotonic() - started < 3.0


class TestRestartAndClose:
    def test_restart_on_the_same_port_raises_once_without_budget_then_recovers(self):
        first = FrameServer(("127.0.0.1", 0), echo, SECRET, name="echo-server")
        client = FrameClient(first.url, secret=SECRET, retries=0)
        assert client.request("a")["echo"] == "a"
        first.close()
        with pytest.raises(OSError):
            client.request("b")
        second = FrameServer(("127.0.0.1", first.port), echo, SECRET, name="echo-server")
        try:
            assert client.request("c")["echo"] == "c"
        finally:
            client.close()
            second.close()

    def test_restart_is_reached_through_the_retry_budget(self):
        first = FrameServer(("127.0.0.1", 0), echo, SECRET, name="echo-server")
        client = FrameClient(first.url, secret=SECRET, retries=6, backoff_s=0.05)
        assert client.request("a")["echo"] == "a"
        first.close()
        restarted = []

        def restart():
            time.sleep(0.2)
            restarted.append(FrameServer(("127.0.0.1", first.port), echo, SECRET, name="echo-server"))

        thread = threading.Thread(target=restart)
        thread.start()
        try:
            assert client.request("b")["echo"] == "b"
        finally:
            thread.join(timeout=10)
            client.close()
            for server in restarted:
                server.close()
        assert not thread.is_alive() and restarted

    def test_close_drops_live_connections_and_the_worker_reads_it_as_stop(self):
        server = QueueServer(secret=SECRET)
        worker = NetWorkQueue(server.url, secret=SECRET, retries=1, backoff_s=0.01)
        assert worker.stop_requested() is False  # connection established and kept
        with socket.create_connection((server.host, server.port), timeout=5) as idle:
            send_frame(idle, {"op": "poll"}, secret=KEY)  # accepted and served, now idle
            assert recv_frame(idle, secret=KEY)["ok"] is True
            server.close()
            assert read_until_closed(idle) == b""  # not left to the idle deadline
        assert worker.claim("w") is None
        assert worker.stop_requested() is True
        with pytest.raises(OSError):
            worker.stats()


class TestBadFramesOnAnEstablishedConnection:
    def test_tampered_frame_gets_an_error_frame_and_the_connection_is_closed(self, plan_server):
        with socket.create_connection((plan_server.host, plan_server.port), timeout=5) as sock:
            send_frame(sock, {"op": "ping"}, secret=KEY)
            assert recv_frame(sock, secret=KEY)["ok"] is True
            frame = bytearray(signed_frame(pickle.dumps({"op": "ping"})))
            frame[-1] ^= 0xFF
            sock.sendall(bytes(frame))
            reply = read_until_closed(sock)  # the error frame, then EOF: nothing more is served
        magic, length = struct.unpack(">2sI", reply[:6])
        assert magic == MAGIC_ERROR and len(reply) == 6 + length
        stats = plan_server.stats()
        assert stats.auth_rejects == 1
        assert stats.connections == 1

    @pytest.mark.parametrize(
        "blob",
        [
            pickle.dumps({"op": "ping", "padding": list(range(64))})[:-20],  # truncated: EOFError
            b"cno_such_module_xyz\nNoSuchClass\n.",  # unknown class: ModuleNotFoundError
            b"crepro.runtime.netqueue\nNoSuchClass\n.",  # AttributeError
        ],
    )
    @pytest.mark.parametrize("kind", ["plan", "queue"])
    def test_verified_but_unloadable_frame_is_answered_counted_and_dropped(
        self, kind, blob, database, caplog
    ):
        server = PlanServer(database, secret=SECRET) if kind == "plan" else QueueServer(secret=SECRET)
        try:
            with caplog.at_level(logging.WARNING, logger="repro.runtime"):
                with socket.create_connection((server.host, server.port), timeout=5) as sock:
                    sock.sendall(signed_frame(blob))
                    response = recv_frame(sock, secret=KEY)
                    assert read_until_closed(sock) == b""
            assert response["ok"] is False and response["kind"] == "protocol"
            assert "cannot be unpickled" in response["error"]
            assert "unloadable frame" in caplog.text
            if kind == "plan":
                assert server.stats().errors == 1
            assert server._server.counters()["errors"] == 1
        finally:
            server.close()


class TestSharedClient:
    def test_concurrent_callers_never_interleave_frames(self, echo_server):
        """A worker's heartbeat ``renew`` and its main loop's ``ack`` share one
        client: every caller must get the response to *its* request."""
        queue = NetWorkQueue(echo_server.url, secret=SECRET, retries=0)
        threads_n, requests_n = 8, 150
        mismatches: list[tuple] = []

        def caller(index: int) -> None:
            for step in range(requests_n):
                # Sizes differ per thread, so interleaved frames cannot line up.
                request = {"op": "renew", "task_id": f"{index}-{step}", "pad": "x" * (index * 37)}
                response = queue._request(request)
                if response["echo"] != request:
                    mismatches.append((index, step))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=caller, args=(i,)) for i in range(threads_n)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert mismatches == []
        assert echo_server.counters()["connections"] == 1
        queue.close()
