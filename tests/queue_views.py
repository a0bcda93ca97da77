"""Two views of one work queue, for tests that pin the queue's rules.

``tcp``: a :class:`QueueServer` called in process, as the coordinator calls it.
``wire``: the same server as a sweep's workers see it — every worker-side op
(claim, ack, fail, ...) travels over a socket through a
:class:`NetWorkQueue` client, one client per calling thread, while the
coordinator's ops (enqueue, requeue_orphaned, write_stop, ...) stay in process.
"""

from __future__ import annotations

import threading

from repro.runtime.netqueue import NetWorkQueue, QueueServer

QUEUE_VIEWS = ("tcp", "wire")

#: The ops a worker sends over the wire (``NetWorkQueue``'s surface).
WORKER_OPS = frozenset(
    {"claim", "ack", "fail", "stop_requested", "wait_for_work"}
)


class WireQueue:
    """A :class:`QueueServer` whose worker ops go through :class:`NetWorkQueue` clients."""

    def __init__(self, server: QueueServer) -> None:
        self.server = server
        self._local = threading.local()
        self._clients: list[NetWorkQueue] = []
        self._clients_lock = threading.Lock()

    def client(self) -> NetWorkQueue:
        """The calling thread's client (a worker process holds one connection)."""
        client = getattr(self._local, "client", None)
        if client is None:
            client = self._local.client = NetWorkQueue(self.server.url)
            with self._clients_lock:
                self._clients.append(client)
        return client

    def __getattr__(self, name: str):
        return getattr(self.client() if name in WORKER_OPS else self.server, name)

    def close(self) -> None:
        with self._clients_lock:
            for client in self._clients:
                client.close()
        self.server.close()


def open_queue(view: str) -> QueueServer | WireQueue:
    """A fresh queue server seen through ``view`` (one of :data:`QUEUE_VIEWS`)."""
    server = QueueServer()
    return server if view == "tcp" else WireQueue(server)
