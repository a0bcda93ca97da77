"""The authenticated TCP frame transport under the plan server.

The plan server (:mod:`repro.runtime.planserver`) answers SQL-text planning
requests over it, and its clients (:mod:`repro.runtime.planclient`) reach it
through a :class:`FrameClient`.  Sweeps do not use it: a distributed sweep's
tasks and results cross the pipes of its forked workers
(:mod:`repro.runtime.parallel`).

Wire protocol — a connection carries any number of request/response frame
pairs, strictly alternating (no pipelining)::

    unsigned: MAGIC b"RQ" | length (4 bytes, big endian) | pickle(payload)
    signed:   MAGIC b"RS" | length (4 bytes, big endian)
              | HMAC-SHA256(secret, header + payload) (32 bytes) | pickle(payload)
    error:    MAGIC b"RE" | length (4 bytes, big endian) | utf-8 message

Connection lifetime (:class:`FrameServer` / :class:`FrameClient`): the server answers frames
on a connection until the peer hangs up, a frame fails authentication (``RE``
frame, then close — nothing more is read from that peer), a verified frame
cannot be unpickled (signed ``kind: "protocol"`` error, then close) or
``SERVER_TIMEOUT_S`` passes without a complete next frame, trickled or idle.
The client keeps its socket and serialises its callers on it.  A kept socket
the server has meanwhile closed fails the next request with a connection error
before any response byte; the client then reconnects and resends **once**,
outside the ``retries`` budget (ops tolerate a second delivery, as retries
always required).  Connect failures, and failures once a response began, spend
``retries`` with backoff.  :meth:`FrameServer.close` also shuts down every live
connection: clients of a closed server read EOF, reconnect and are refused.

Frames are pickled because their payloads are arbitrary Python objects
(plans, hint sets).  A top-level value of a
dict payload may travel *pre-pickled* as a :class:`Pickled` wrapper: a sender
that ships the same value many times (the plan server's cached plans) pickles
it once, and ``recv_frame`` decodes it after the frame is verified — through
the caller's bytes → object memo, so a receiver decodes each distinct value
once.

``pickle.loads`` on bytes from the network is remote code execution for
whoever can write those bytes, so frames carry a **shared secret** (the
plan server's ``secret`` argument, else ``REPRO_QUEUE_SECRET``): both
sides sign every frame with HMAC-SHA256 and *verify the signature before
unpickling* — an unsigned, tampered or wrongly-keyed frame is rejected while
still opaque bytes, and the peer gets a plain-text ``RE`` error frame (never
a pickled response).  The HMAC authenticates and integrity-protects frames; it does **not** encrypt
them (payloads are readable on the wire) and does not prevent replay — for
confidentiality run the port through a TLS tunnel or private network.
"""

from __future__ import annotations

import hashlib
import hmac
import logging
import os
import pickle
import socket
import socketserver
import struct
import threading
import time
from collections.abc import Callable

from repro.config import parse_tcp_url
from repro.errors import ExperimentError

#: Frame header: magic + payload length.
MAGIC = b"RQ"
#: Magic of an HMAC-signed frame (header + 32-byte digest + payload).
MAGIC_SIGNED = b"RS"
#: Magic of a plain-text error frame (sent instead of a pickled response when
#: a request fails authentication — the peer is untrusted by definition).
MAGIC_ERROR = b"RE"
_HEADER = struct.Struct(">2sI")

#: Size of the HMAC-SHA256 digest carried by signed frames.
DIGEST_SIZE = hashlib.sha256().digest_size

#: Hard bound on one frame; a SpecTaskPayload or result dict is kilobytes.
MAX_FRAME_BYTES = 64 * 1024 * 1024

#: Hard bound on an error frame's message.
MAX_ERROR_BYTES = 4096

#: How much of a rejected *unsigned* frame's payload is drained before the
#: connection is dropped.  Draining lets the error frame reach a
#: legitimate-but-misconfigured client — closing with unread bytes in the
#: receive queue makes the TCP stack RST and discard our just-written reply —
#: while the bound keeps an unsigned frame from feeding us 64 MB pre-auth.
#: (A *signed* frame must be read in full before its MAC can be checked; the
#: per-frame deadline below bounds how long such a read can be strung out.)
MAX_AUTH_DRAIN_BYTES = 1024 * 1024

#: Server-side deadline for a connection's next complete frame: a peer that
#: trickles bytes, stalls mid-frame or sits idle frees its handler thread —
#: and the buffer it accumulated — after this long, not at the sweep's end.  A
#: deadline, not a per-recv timeout: a byte every few seconds does not reset it.
SERVER_TIMEOUT_S = 30.0

#: Default client-side socket timeout (connect, and each send/recv of a pair).
CLIENT_TIMEOUT_S = 30.0

#: Environment variable carrying the shared frame-signing secret.
QUEUE_SECRET_ENV = "REPRO_QUEUE_SECRET"

#: Default transient-connection retry budget of :class:`FrameClient` — a
#: refused/reset connection is retried with exponential backoff this many
#: times before it is treated as a dead server.
CLIENT_RETRIES = 3
CLIENT_BACKOFF_S = 0.2

#: Distinct pre-pickled values a :class:`FrameClient` keeps decoded before it
#: starts over, as many as a default plan cache holds: a decoded JOB plan and
#: its bytes take ~13 KB, so a full memo is ~13 MB.
DECODE_MEMO_MAX = 1024

#: Operational messages only; never read back, so logging cannot reach a result.
_log = logging.getLogger("repro.runtime")


class FrameAuthError(ConnectionError):
    """A frame failed authentication (wrong/missing signature or secret).

    Raised *before* the payload is unpickled: the frame is still opaque bytes
    when rejected.  Subclasses :class:`ConnectionError` so transport plumbing
    that drops broken connections drops unauthenticated peers the same way.
    """


class QueueAuthError(ExperimentError):
    """The peer rejected our frames as unauthenticated/mis-keyed.

    Deliberately *not* an :class:`OSError`: a client whose secret does not
    match the server's must fail loudly, not spend its retry budget on a
    rejection that no retry can fix.
    """


def resolve_queue_secret(value: str | bytes | None = None) -> bytes | None:
    """Normalize a queue secret: explicit value, else ``REPRO_QUEUE_SECRET``.

    Returns ``None`` (authentication disabled) for an unset/empty secret; an
    explicit empty string forces authentication off even when the environment
    variable is set.
    """
    if value is None:
        value = os.environ.get(QUEUE_SECRET_ENV)
    if not value:
        return None
    return value.encode("utf-8") if isinstance(value, str) else bytes(value)


class Pickled:
    """A payload value that travels as bytes it was pickled to once.

    Put one as a top-level value of a dict payload; the receiving
    :func:`recv_frame` hands back the decoded object in its place.  The
    bytes ride inside the signed frame, so they are verified with it.
    """

    __slots__ = ("blob",)

    def __init__(self, blob: bytes) -> None:
        self.blob = blob

    @classmethod
    def of(cls, value: object) -> "Pickled":
        return cls(pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL))

    def __reduce__(self) -> tuple:
        return Pickled, (self.blob,)


def _frame_digest(secret: bytes, header: bytes, blob: bytes) -> bytes:
    return hmac.new(secret, header + blob, hashlib.sha256).digest()


def _recv_exact(sock: socket.socket, n_bytes: int, deadline: float | None = None) -> bytes:
    """Read exactly ``n_bytes``; with a ``deadline`` (monotonic), the whole
    read must finish by then — each recv's timeout is the remaining budget,
    so a trickling peer cannot reset the clock chunk by chunk."""
    chunks = []
    remaining = n_bytes
    while remaining:
        if deadline is not None:
            budget = deadline - time.monotonic()
            if budget <= 0:
                raise ConnectionError("peer exceeded the frame deadline")
            sock.settimeout(budget)
        chunk = sock.recv(remaining)
        if not chunk:
            raise ConnectionError("peer closed the connection mid-frame")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def send_frame(sock: socket.socket, payload: object, secret: bytes | None = None) -> None:
    blob = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
    if len(blob) > MAX_FRAME_BYTES:
        raise ExperimentError(f"queue frame of {len(blob)} bytes exceeds {MAX_FRAME_BYTES}")
    if secret is None:
        sock.sendall(_HEADER.pack(MAGIC, len(blob)) + blob)
    else:
        header = _HEADER.pack(MAGIC_SIGNED, len(blob))
        sock.sendall(header + _frame_digest(secret, header, blob) + blob)


def send_error_frame(sock: socket.socket, message: str) -> None:
    """Send a plain-text (never pickled) rejection to an untrusted peer."""
    blob = message.encode("utf-8")[:MAX_ERROR_BYTES]
    sock.sendall(_HEADER.pack(MAGIC_ERROR, len(blob)) + blob)


def recv_frame(
    sock: socket.socket,
    secret: bytes | None = None,
    deadline: float | None = None,
    memo: dict[bytes, object] | None = None,
) -> object:
    """Receive one frame; with a ``secret``, authenticate it *before* unpickling.

    Raises :class:`FrameAuthError` for unsigned/mis-signed frames while the
    payload is still opaque bytes — an untrusted peer can never reach
    ``pickle.loads`` on a secret-bearing endpoint — and :class:`QueueAuthError`
    when the *peer* sent back an error frame rejecting us.  ``deadline``
    (monotonic) bounds the whole receive, recv by recv.

    The :class:`Pickled` values of a verified dict payload are replaced by
    what they decode to, looked up first in ``memo`` (bytes → object, owned
    by the caller and cleared at ``DECODE_MEMO_MAX`` entries): identical
    bytes then decode once and share one object.
    """
    header = _recv_exact(sock, _HEADER.size, deadline)
    magic, length = _HEADER.unpack(header)
    if magic == MAGIC_ERROR:
        if length > MAX_ERROR_BYTES:
            raise ConnectionError(f"oversized queue error frame ({length} bytes)")
        raise QueueAuthError(_recv_exact(sock, length, deadline).decode("utf-8", errors="replace"))
    if length > MAX_FRAME_BYTES:
        raise ConnectionError(f"oversized queue frame ({length} bytes)")
    if magic == MAGIC_SIGNED:
        digest = _recv_exact(sock, DIGEST_SIZE, deadline)
        blob = _recv_exact(sock, length, deadline)
        if secret is None:
            raise FrameAuthError(
                "peer sent a signed queue frame but no queue secret is configured here "
                f"(the server's secret, else {QUEUE_SECRET_ENV})"
            )
        if not hmac.compare_digest(digest, _frame_digest(secret, header, blob)):
            raise FrameAuthError("queue frame signature mismatch (wrong or stale secret)")
        payload = pickle.loads(blob)
    elif magic == MAGIC:
        if secret is not None:
            # Authenticate-then-parse: the unsigned payload is drained (so the
            # error reply is not lost to a TCP reset over unread bytes, see
            # MAX_AUTH_DRAIN_BYTES) but never unpickled.
            _recv_exact(sock, min(length, MAX_AUTH_DRAIN_BYTES), deadline)
            raise FrameAuthError(
                "unauthenticated queue frame rejected: this endpoint requires HMAC-signed "
                f"frames (the server's secret, else {QUEUE_SECRET_ENV})"
            )
        payload = pickle.loads(_recv_exact(sock, length, deadline))
    else:
        raise ConnectionError(f"bad queue frame magic {magic!r}")
    if isinstance(payload, dict):
        for key in [key for key, value in payload.items() if isinstance(value, Pickled)]:
            blob = payload[key].blob
            value = None if memo is None else memo.get(blob)
            if value is None:
                value = pickle.loads(blob)
                if memo is not None:
                    if len(memo) >= DECODE_MEMO_MAX:
                        memo.clear()
                    memo[blob] = value
            payload[key] = value
    return payload


class FrameServer(socketserver.ThreadingTCPServer):
    """Threaded TCP endpoint of the frame codec; ``dispatch(request, peer)`` answers.

    One daemon thread per connection loops ``recv_frame`` → ``dispatch`` →
    ``send_frame`` until the connection ends (module docstring).  The codec's
    promises — verify before unpickling, a deadline per frame, plain text for
    a peer that fails authentication — are enforced here for every server.
    """

    allow_reuse_address = True
    daemon_threads = True

    def __init__(
        self, address: tuple[str, int], dispatch: Callable[[object, str], dict],
        secret: str | bytes | None, name: str, backlog: int = 5,
    ) -> None:
        self._dispatch = dispatch
        #: Frame-signing secret (explicit, else REPRO_QUEUE_SECRET, else off).
        self.secret = resolve_queue_secret(secret)
        self._name = name
        self._lock = threading.Lock()
        self._live: set[socket.socket] = set()
        self._closed = False
        self._counters = {"connections": 0, "auth_rejects": 0, "errors": 0}
        # ``listen()`` reads this during activation: the accept queue is
        # bounded before the first client can connect.
        self.request_queue_size = backlog
        super().__init__(address, None)  # finish_request below is the handler
        self.host, self.port = self.server_address[:2]
        #: The address clients connect to.
        self.url = f"tcp://{'127.0.0.1' if self.host in ('0.0.0.0', '::') else self.host}:{self.port}"
        self._thread = threading.Thread(target=self._accept_loop, name=name, daemon=True)
        self._thread.start()

    def _accept_loop(self) -> None:
        """Hand every accepted connection to a thread of its own, until :meth:`close`.

        A blocking ``accept`` instead of ``serve_forever``'s poll: shutting
        the listening socket down fails the ``accept`` at once, where the
        poll would notice a shutdown request only at its next 0.5 s tick.
        """
        while True:
            try:
                sock, address = self.socket.accept()
            except OSError:
                return
            try:
                self.process_request(sock, address)
            except Exception:  # no handler thread: drop this connection, keep accepting
                _log.exception("%s: could not serve %s", self._name, address)
                self.shutdown_request(sock)

    def counters(self) -> dict[str, int]:
        """Accepted ``connections``, ``auth_rejects`` and unloadable-frame ``errors``."""
        with self._lock:
            return dict(self._counters)

    def close(self) -> None:
        """Stop accepting and drop every live connection (idempotent): a handler
        blocked in ``recv`` reads EOF, one busy in ``dispatch`` fails its send,
        so nobody is served on by the threads of a server its owner shut down."""
        with self._lock:
            if self._closed:
                return
            self._closed = True  # a connection accepted from here on is dropped unserved
        try:
            self.socket.shutdown(socket.SHUT_RDWR)  # fails the accept loop's accept()
        except OSError:
            pass
        self._thread.join(timeout=10)
        self.server_close()
        with self._lock:
            live = list(self._live)
        for sock in live:
            try:
                sock.shutdown(socket.SHUT_RDWR)  # its own thread closes it
            except OSError:
                pass

    def finish_request(self, sock: socket.socket, address: tuple) -> None:
        """Serve one accepted connection on its own thread (socketserver hook)."""
        with self._lock:
            if self._closed:
                return
            self._live.add(sock)
            self._counters["connections"] += 1
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            while self._serve_frame(sock, address[0] if address else "unknown"):
                pass
        finally:
            with self._lock:
                self._live.discard(sock)

    def _serve_frame(self, sock: socket.socket, peer: str) -> bool:
        """Answer the connection's next frame; ``False`` ends the connection."""
        # One deadline for the next frame, idle wait included: a trickling or
        # silent peer cannot pin this thread (or its growing buffer) for good.
        deadline = time.monotonic() + SERVER_TIMEOUT_S
        keep = True
        try:
            request = recv_frame(sock, secret=self.secret, deadline=deadline)
        except FrameAuthError as exc:
            # Plain text (a misconfigured peer learns why it is turned away),
            # never a pickled response, and nothing more is read from this peer.
            with self._lock:
                self._counters["auth_rejects"] += 1
            _log.warning("%s: rejected a frame from %s: %s", self._name, peer, exc)
            try:
                send_error_frame(sock, f"{self._name} rejected the frame: {exc}")
            except OSError:
                pass
            return False
        except (QueueAuthError, OSError) as exc:
            # The peer hanging up between frames is how every connection ends.
            if time.monotonic() >= deadline:
                _log.info("%s: dropped %s at the frame deadline: %s", self._name, peer, exc)
            return False
        except Exception as exc:
            # Only ``pickle.loads`` raises anything else, and only after
            # verification: an authentic frame, truncated or of an unknown class.
            with self._lock:
                self._counters["errors"] += 1
            _log.warning("%s: unloadable frame from %s: %r", self._name, peer, exc)
            error = f"verified frame cannot be unpickled: {type(exc).__name__}: {exc}"
            response, keep = {"ok": False, "kind": "protocol", "error": error}, False
        else:
            try:
                response = self._dispatch(request, peer)
            except Exception as exc:  # surface server-side errors to the caller
                _log.exception("%s: dispatch failed for %s", self._name, peer)
                response = {"ok": False, "error": f"{type(exc).__name__}: {exc}"}
        try:
            send_frame(sock, response, secret=self.secret)
        except OSError:
            return False
        return keep


class FrameClient:
    """One kept connection to a :class:`FrameServer`, shared by its callers.

    Base of :class:`~repro.runtime.planclient.PlanClient`: the socket, the lock that keeps two callers' frames from
    interleaving on it (a plan client may be shared by threads), the resend
    rule and the retry policy (module docstring).  A
    context manager: leaving the ``with`` block closes the connection.
    """

    def __init__(
        self, url: str, timeout_s: float = CLIENT_TIMEOUT_S, secret: str | bytes | None = None,
        retries: int = CLIENT_RETRIES, backoff_s: float = CLIENT_BACKOFF_S,
    ) -> None:
        self.host, self.port = parse_tcp_url(url)
        if retries < 0:
            raise ExperimentError(f"{type(self).__name__}.retries must be >= 0")
        self.timeout_s = timeout_s
        self.secret = resolve_queue_secret(secret)
        self.retries = int(retries)
        self.backoff_s = float(backoff_s)
        self._lock = threading.Lock()
        self._sock: socket.socket | None = None
        #: Pre-pickled response values by their bytes (:func:`recv_frame`),
        #: used under ``_lock`` only.
        self._decoded: dict[bytes, object] = {}

    def __enter__(self) -> "FrameClient":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def close(self) -> None:
        """Drop the kept connection (the next request reconnects)."""
        with self._lock:
            sock, self._sock = self._sock, None
        if sock is not None:
            sock.close()

    def exchange(self, request: object) -> object:
        """One frame pair on the kept socket (connecting if there is none).

        A kept socket that fails with a connection error before the first
        response byte was closed under us: reconnect and resend once.  Any
        other failure drops the socket and goes to :meth:`request`'s budget.
        """
        with self._lock:
            sock, self._sock = self._sock, None  # an exception below leaves none kept
            try:
                if sock is not None:
                    try:
                        send_frame(sock, request, secret=self.secret)
                        if not sock.recv(1, socket.MSG_PEEK):
                            raise ConnectionError("server closed the kept connection")
                    except ConnectionError:
                        sock.close()
                        sock = None
                if sock is None:
                    sock = socket.create_connection((self.host, self.port), timeout=self.timeout_s)
                    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                    send_frame(sock, request, secret=self.secret)
                response = recv_frame(sock, secret=self.secret, memo=self._decoded)
            except BaseException:
                if sock is not None:
                    sock.close()
                raise
            self._sock = sock
        return response

    def request(self, request: object) -> object:
        """:meth:`exchange`, retrying ``OSError`` ``retries`` times with backoff.

        One refused connection — the server's listen socket bouncing during a
        restart — must not read as a dead server.  :class:`QueueAuthError` is
        not an ``OSError``: a mis-keyed secret propagates at once.
        """
        delay = self.backoff_s
        retries_left = self.retries
        while True:
            try:
                return self.exchange(request)
            except OSError:
                if retries_left <= 0:
                    raise
                retries_left -= 1
                time.sleep(delay)
                delay *= 2

    def describe(self) -> str:
        return f"{type(self).__name__}(tcp://{self.host}:{self.port})"
