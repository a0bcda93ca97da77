"""Client of the plan-serving control plane (:mod:`repro.runtime.planserver`).

:class:`PlanClient` keeps one connection to a
:class:`~repro.runtime.planserver.PlanServer` and sends its requests over it as
frame pairs of the authenticated codec of :mod:`repro.runtime.netqueue`: with a
shared secret every frame is HMAC-signed, responses are verified before
unpickling, and a mis-keyed or unconfigured client fails loudly with
:class:`~repro.runtime.netqueue.QueueAuthError` — never by silently planning
nothing.  Close it (or use it as a context manager) when done.

Failure taxonomy, deliberately three-way:

* **Transient transport errors** (refused connection during a server restart,
  a dropped SYN) are retried with exponential backoff — the shared
  :meth:`~repro.runtime.netqueue.FrameClient.request` policy.
* **Admission-control rejections** raise :class:`repro.errors.PlanRejected`
  carrying the server's ``retry_after_s`` hint.  They are *not* retried
  internally by default — backpressure is the caller's signal to slow down,
  and hiding it would turn an overloaded server back into a silent stall.
  Pass ``reject_retries`` to opt into bounded client-side backoff instead.
* **Request errors** (unparseable SQL, unknown tables, invalid hints) raise
  :class:`repro.errors.PlanServiceError` immediately; retrying cannot help.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.config import PostgresConfig
from repro.errors import ExperimentError, PlanRejected, PlanServiceError
from repro.plans.hints import HintSet, NO_HINTS
from repro.plans.physical import PlanNode
from repro.runtime.netqueue import (
    CLIENT_BACKOFF_S,
    CLIENT_RETRIES,
    CLIENT_TIMEOUT_S,
    FrameClient,
)


@dataclass(frozen=True)
class ServedPlan:
    """One planned query as answered by the server.

    ``plan`` is byte-identical (under ``pickle.dumps``, after one
    serialization hop on both sides — this plan has already crossed the
    wire) to what a local :class:`~repro.optimizer.planner.Planner` produces
    for the same (query, config, hints) — the serving layer adds only
    metadata:
    ``cache_hit`` says whether the shared server cache answered,
    ``server_latency_ms`` is the server-side request latency, and
    ``generation`` is the cache generation the plan was served under (it
    changes when the server's catalog/statistics are invalidated).

    The server sends a cached plan as the bytes it pickled once, and a
    client decodes bytes it has seen before from its memo: repeated
    identical replies to one client share one :class:`PlanNode`.  Plans are
    immutable, so sharing is safe; a caller must not mutate one.
    """

    plan: PlanNode
    strategy: str
    planning_time_ms: float
    estimated_cost: float
    estimated_rows: float
    cache_hit: bool
    server_latency_ms: float
    generation: int
    round_trip_ms: float = field(default=0.0, compare=False)


class PlanClient(FrameClient):
    """Blocking client; all requests share one kept connection."""

    def __init__(
        self,
        url: str,
        client_id: str = "",
        timeout_s: float = CLIENT_TIMEOUT_S,
        secret: str | bytes | None = None,
        retries: int = CLIENT_RETRIES,
        backoff_s: float = CLIENT_BACKOFF_S,
        reject_retries: int = 0,
    ) -> None:
        super().__init__(url, timeout_s, secret, retries, backoff_s)
        if reject_retries < 0:
            raise ExperimentError("PlanClient.reject_retries must be >= 0")
        self.client_id = client_id
        self.reject_retries = int(reject_retries)

    # ------------------------------------------------------------------ transport
    def _request_once(self, request: dict) -> dict:
        """One answered request (transport retries included), errors raised."""
        response = self.request(request)
        if not isinstance(response, dict):
            raise PlanServiceError(f"plan server at {self.host}:{self.port} sent a malformed response")
        if response.get("rejected"):
            raise PlanRejected(
                str(response.get("error", "plan server at capacity")),
                retry_after_s=float(response.get("retry_after_s", 0.05)),
            )
        if not response.get("ok"):
            raise PlanServiceError(
                f"plan server at {self.host}:{self.port} rejected "
                f"{request.get('op')!r}: {response.get('error', 'unknown error')}"
            )
        return response

    def _request(self, request: dict) -> dict:
        """:meth:`_request_once`, re-sent while the server answers "busy".

        Backpressure rejections have their own (default-zero) budget,
        separate from the transport budget: a server that is alive-but-busy
        is a different situation from one that is unreachable.
        """
        rejects_left = self.reject_retries
        while True:
            try:
                return self._request_once(request)
            except PlanRejected as exc:
                if rejects_left <= 0:
                    raise
                rejects_left -= 1
                time.sleep(exc.retry_after_s)

    # ------------------------------------------------------------------ operations
    def plan(
        self,
        sql: str,
        hints: HintSet = NO_HINTS,
        config: PostgresConfig | None = None,
    ) -> ServedPlan:
        """Plan ``sql`` on the server; see :class:`ServedPlan` for guarantees."""
        request: dict = {"op": "plan", "sql": sql}
        if hints != NO_HINTS:  # the server's default: not pickled, sent, decoded
            request["hints"] = hints
        if config is not None:
            request["config"] = config
        if self.client_id:
            request["client"] = self.client_id
        started = time.monotonic()
        response = self._request(request)
        round_trip_ms = (time.monotonic() - started) * 1000.0
        return ServedPlan(
            plan=response["plan"],
            strategy=str(response["strategy"]),
            planning_time_ms=float(response["planning_time_ms"]),
            estimated_cost=float(response["estimated_cost"]),
            estimated_rows=float(response["estimated_rows"]),
            cache_hit=bool(response["cache_hit"]),
            server_latency_ms=float(response["server_latency_ms"]),
            generation=int(response["generation"]),
            round_trip_ms=round_trip_ms,
        )

    def stats(self) -> dict:
        """The server's :class:`~repro.runtime.planserver.PlanServerStats` dict."""
        return self._request({"op": "stats"})["stats"]

    def invalidate(self) -> dict[str, int]:
        """Bump every served scope's generation; returns the new generations."""
        generations = self._request({"op": "invalidate"})["generations"]
        return {str(scope): int(gen) for scope, gen in generations.items()}

    def ping(self) -> str:
        """Round-trip liveness probe; returns the served database's name."""
        return str(self._request({"op": "ping"})["database"])

    def describe(self) -> str:
        return f"PlanClient(tcp://{self.host}:{self.port}, client_id={self.client_id!r})"
