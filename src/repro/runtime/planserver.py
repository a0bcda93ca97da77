"""Plan-serving control plane: the optimizer as a long-lived network service.

Every experiment driver so far owned its :class:`~repro.optimizer.planner.
Planner` in process.  This module turns planning into a *service*: a
:class:`PlanServer` binds one database, accepts SQL text over the same
HMAC-authenticated frame codec the distributed work queue uses
(:mod:`repro.runtime.netqueue`), plans through the existing planner stack,
and answers with the physical plan plus cost, strategy and cache metadata.
Many clients — LQO training loops, ablation sweeps, the load harness in
``benchmarks/bench_plan_serving.py`` — then share **one cross-request
:class:`~repro.runtime.plan_cache.PlanCache`**, so a query planned for any
client is a cache hit for every other client with the same
(query, configuration, hints) fingerprints.

Security model (inherited from the netqueue codec, and the reason this
module reuses it rather than inventing framing): with a shared secret
(``REPRO_QUEUE_SECRET``), every frame is HMAC-SHA256 signed and the
signature is verified **while the payload is still opaque bytes** — an
unauthenticated or mis-keyed client can never reach ``pickle.loads`` and is
answered with a loud plain-text error frame, never silence.  See
``docs/SERVING.md`` for the full threat model.

Three server properties the drivers rely on:

* **Determinism / byte-identity.**  Planning is deterministic, and the
  served plan for a given (query, config, hints) is byte-identical under
  ``pickle.dumps`` to a direct ``Planner`` call in the client's own process,
  compared after one serialization hop on both sides — the served plan has
  already crossed the wire once, and CPython's unpickler can only *add*
  object sharing (one-character strings intern), never change content.  The
  service changes *where* planning runs, never its result.  Cache misses
  plan inside one server-side critical section, so concurrent misses of the
  same query collapse into a single planning pass (single-flight) instead
  of racing.
* **Bump-on-change invalidation.**  A catalog or statistics refresh cannot
  change any fingerprint, so the server exposes the cache's generation
  counter: the ``invalidate`` op bumps every served scope through
  :meth:`~repro.optimizer.planner.Planner.invalidate_cached_plans`, retiring
  all pre-bump entries without a restart (the hit-rate drop is visible in
  the stats frame).
* **Explicit admission control.**  A bounded TCP accept backlog plus
  per-client and global in-flight limits; a request over the limit gets a
  signed *reject* frame carrying a retry hint (:class:`repro.errors.
  PlanRejected` client-side) instead of queueing unboundedly or stalling
  silently.

Run standalone with ``python -m repro.runtime.planserver``.
"""

from __future__ import annotations

import argparse
import json
import sys
import threading
import time
from collections import OrderedDict, deque
from dataclasses import dataclass, field

from repro.config import PostgresConfig
from repro.errors import (
    HintError,
    OptimizerError,
    PlanServiceError,
    ReproError,
    SQLError,
)
from repro.optimizer.planner import Planner, PlannerResult
from repro.plans.hints import HintSet, NO_HINTS
from repro.runtime.netqueue import FrameServer
from repro.runtime.plan_cache import PlanCache
from repro.sql.binder import BoundQuery, bind_sql
from repro.storage.database import Database

#: Default per-client in-flight request limit (admission control).
DEFAULT_CLIENT_INFLIGHT = 4

#: Default global in-flight request limit across all clients.
DEFAULT_TOTAL_INFLIGHT = 16

#: Default TCP accept backlog (the *bounded* connection queue: connections
#: beyond it are refused by the kernel instead of piling up unseen).
DEFAULT_BACKLOG = 32

#: How many recent request latencies the stats percentiles are computed over.
DEFAULT_LATENCY_WINDOW = 2048

#: Retry hint carried by reject frames, seconds.
REJECT_RETRY_AFTER_S = 0.05


def _percentile(sorted_samples: list[float], fraction: float) -> float:
    """Nearest-rank percentile of an already sorted, non-empty sample."""
    rank = min(len(sorted_samples) - 1, max(0, round(fraction * (len(sorted_samples) - 1))))
    return sorted_samples[rank]


@dataclass(frozen=True)
class PlanServerStats:
    """One point-in-time observation of a :class:`PlanServer`.

    The serving analogue of :class:`~repro.runtime.progress.ProgressSnapshot`:
    immutable, JSON-ready, safe to ship over the wire.  ``cache`` is the
    shared :class:`~repro.runtime.plan_cache.PlanCache` counter snapshot
    (hits/misses/evictions/invalidations/hit_rate); ``generations`` maps each
    served cache scope to its current generation, so a client can observe an
    invalidation bump without planning anything.  ``connections`` (accepted
    so far) against ``served`` shows how many requests a connection carries.
    """

    uptime_s: float
    served: int
    planned: int
    rejected: int
    auth_rejects: int
    errors: int
    inflight: int
    connections: int = 0
    clients: dict[str, int] = field(default_factory=dict)
    cache: dict[str, float] = field(default_factory=dict)
    generations: dict[str, int] = field(default_factory=dict)
    latency_ms: dict[str, float] = field(default_factory=dict)

    def to_dict(self) -> dict:
        """JSON-ready form (keys are stable; the stats-frame surface)."""
        return {
            "uptime_s": round(self.uptime_s, 3),
            "served": self.served,
            "planned": self.planned,
            "rejected": self.rejected,
            "auth_rejects": self.auth_rejects,
            "errors": self.errors,
            "inflight": self.inflight,
            "connections": self.connections,
            "clients": dict(sorted(self.clients.items())),
            "cache": self.cache,
            "generations": dict(sorted(self.generations.items())),
            "latency_ms": self.latency_ms,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    def describe(self) -> str:
        hit_rate = self.cache.get("hit_rate", 0.0)
        p95 = self.latency_ms.get("p95", 0.0)
        return (
            f"PlanServer(served={self.served}, planned={self.planned}, "
            f"hit_rate={hit_rate:.1%}, rejected={self.rejected}, "
            f"auth_rejects={self.auth_rejects}, errors={self.errors}, "
            f"p95={p95:.2f}ms, up {self.uptime_s:.0f}s)"
        )


class PlanServer:
    """Optimizer-as-a-service over the authenticated frame codec.

    One server binds one :class:`~repro.storage.database.Database` and plans
    every request through :class:`~repro.optimizer.planner.Planner` instances
    that all share ``plan_cache``.  Requests may carry a configuration
    override: each distinct :class:`~repro.config.PostgresConfig` gets its own
    planner (planners are cheap; the cache is the shared asset), keyed by
    config fingerprint.

    Wire protocol — signed request/response frame pairs, any number per
    connection (:class:`~repro.runtime.netqueue.FrameServer`), payloads are
    dicts with an ``"op"`` key:

    ``{"op": "plan", "sql": str, "hints": HintSet?, "config": PostgresConfig?,
    "client": str?}``
        → ``{"ok": True, "plan": PlanNode, "strategy": str,
        "planning_time_ms": float, "estimated_cost": float,
        "estimated_rows": float, "cache_hit": bool, "server_latency_ms":
        float, "generation": int}`` — or a reject/error dict (below).
        ``generation`` is the one the plan was looked up (and, on a miss,
        stored) under, even if an ``invalidate`` landed meanwhile.
    ``{"op": "stats"}``
        → ``{"ok": True, "stats": <PlanServerStats.to_dict()>}``.
    ``{"op": "invalidate"}``
        → ``{"ok": True, "generations": {scope: new_generation}}`` — bumps
        every served scope (catalog/statistics changed).
    ``{"op": "ping"}``
        → ``{"ok": True, "database": str}``.

    Failure frames: ``{"ok": False, "rejected": True, "error": str,
    "retry_after_s": float}`` for admission-control rejections, and
    ``{"ok": False, "error": str, "kind": str}`` for request errors (parse,
    binding, hint validation, planning).  Unauthenticated frames never get
    this far — they are answered with a plain-text error frame before
    deserialization (see the module docstring).
    """

    def __init__(
        self,
        database: Database,
        host: str = "127.0.0.1",
        port: int = 0,
        secret: str | bytes | None = None,
        plan_cache: PlanCache | None = None,
        max_client_inflight: int = DEFAULT_CLIENT_INFLIGHT,
        max_total_inflight: int = DEFAULT_TOTAL_INFLIGHT,
        backlog: int = DEFAULT_BACKLOG,
        latency_window: int = DEFAULT_LATENCY_WINDOW,
    ) -> None:
        if max_client_inflight <= 0 or max_total_inflight <= 0:
            raise PlanServiceError("PlanServer in-flight limits must be positive")
        if backlog <= 0:
            raise PlanServiceError("PlanServer backlog must be positive")
        self.database = database
        self.plan_cache = plan_cache if plan_cache is not None else PlanCache()
        self.max_client_inflight = int(max_client_inflight)
        self.max_total_inflight = int(max_total_inflight)
        self._lock = threading.Lock()
        #: Cache-miss planning runs inside this critical section: concurrent
        #: misses of the same key collapse into one planning pass, and the
        #: pure-Python enumerators never interleave (single-flight).
        self._plan_lock = threading.Lock()
        #: One planner per distinct request configuration, sharing the cache.
        self._planners: dict[str, Planner] = {}
        #: SQL text → binding, LRU-bounded by ``plan_cache.max_entries``.  Binding
        #: reads the text and this server's fixed schema, never statistics, so
        #: ``invalidate`` leaves it alone.  Shared by handler threads: read-only.
        self._bound: OrderedDict[str, BoundQuery] = OrderedDict()
        self._inflight: dict[str, int] = {}
        self._total_inflight = 0
        self._served = 0
        self._planned = 0
        self._rejected = 0
        self._errors = 0
        self._client_served: dict[str, int] = {}
        self._latencies_ms: deque[float] = deque(maxlen=latency_window)
        self._started = time.monotonic()
        self._default_planner = Planner(database, plan_cache=self.plan_cache)
        self._server = FrameServer(
            (host, port), self._dispatch, secret, name="repro-plan-server", backlog=backlog
        )
        self.host, self.port, self.url = self._server.host, self._server.port, self._server.url

    # ------------------------------------------------------------------ lifecycle
    def close(self) -> None:
        """Stop serving, drop every client connection, release the socket (idempotent)."""
        self._server.close()

    # ------------------------------------------------------------------ planners
    def _planner_for(self, config: PostgresConfig | None) -> Planner:
        """The planner serving ``config`` (the database default for ``None``)."""
        if config is None:
            return self._default_planner
        fingerprint = config.fingerprint()
        with self._lock:
            planner = self._planners.get(fingerprint)
        if planner is not None:
            return planner
        # Built outside the stats lock (planner construction walks the
        # catalog); a racing duplicate is discarded — planners are stateless
        # per call and share the cache, so either instance serves identically.
        planner = Planner(self.database, config=config, plan_cache=self.plan_cache)
        with self._lock:
            return self._planners.setdefault(fingerprint, planner)

    def invalidate(self) -> dict[str, int]:
        """Bump every served scope's generation (catalog/statistics changed).

        Pre-bump cache entries stop matching immediately — in-flight requests
        keyed before the bump simply miss and re-plan.  Returns the new
        generation per scope.
        """
        with self._lock:
            planners = [self._default_planner, *self._planners.values()]
        generations: dict[str, int] = {}
        for planner in planners:
            generations[planner.cache_scope] = planner.invalidate_cached_plans()
        return generations

    # ------------------------------------------------------------------ serving
    def _dispatch(self, request: object, peer: str) -> dict:
        if not isinstance(request, dict) or "op" not in request:
            return {"ok": False, "error": "malformed plan request", "kind": "protocol"}
        op = request["op"]
        if op == "plan":
            return self._serve_plan(request, peer)
        if op == "stats":
            return {"ok": True, "stats": self.stats().to_dict()}
        if op == "invalidate":
            return {"ok": True, "generations": self.invalidate()}
        if op == "ping":
            return {"ok": True, "database": self.database.name}
        return {"ok": False, "error": f"unknown plan op {op!r}", "kind": "protocol"}

    def _serve_plan(self, request: dict, peer: str) -> dict:
        client = str(request.get("client") or peer)
        if not self._admit(client):
            return {
                "ok": False,
                "rejected": True,
                "error": (
                    f"plan server at capacity for client {client!r} "
                    f"(per-client limit {self.max_client_inflight}, "
                    f"global limit {self.max_total_inflight})"
                ),
                "retry_after_s": REJECT_RETRY_AFTER_S,
            }
        try:
            started = time.perf_counter()
            response = self._plan_admitted(request)
            latency_ms = (time.perf_counter() - started) * 1000.0
            with self._lock:
                if response.get("ok"):
                    self._served += 1
                    self._client_served[client] = self._client_served.get(client, 0) + 1
                    self._latencies_ms.append(latency_ms)
                else:
                    self._errors += 1
            if response.get("ok"):
                response["server_latency_ms"] = latency_ms
            return response
        finally:
            self._release(client)

    def _plan_admitted(self, request: dict) -> dict:
        sql = request.get("sql")
        if not isinstance(sql, str) or not sql.strip():
            return {"ok": False, "error": "plan request needs a non-empty 'sql'", "kind": "protocol"}
        hints = request.get("hints") or NO_HINTS
        if not isinstance(hints, HintSet):
            return {"ok": False, "error": "plan request 'hints' must be a HintSet", "kind": "protocol"}
        config = request.get("config")
        if config is not None and not isinstance(config, PostgresConfig):
            return {"ok": False, "error": "plan request 'config' must be a PostgresConfig", "kind": "protocol"}
        try:
            query = self._bind(sql)
        except SQLError as exc:
            return {"ok": False, "error": f"{type(exc).__name__}: {exc}", "kind": "sql"}
        planner = self._planner_for(config)
        try:
            result, cache_hit, generation = self._plan_single_flight(planner, query, hints)
        except (HintError, OptimizerError) as exc:
            return {"ok": False, "error": f"{type(exc).__name__}: {exc}", "kind": "planning"}
        if not cache_hit:
            with self._lock:
                self._planned += 1
        return {
            "ok": True,
            "plan": result.plan,
            "strategy": result.strategy,
            "planning_time_ms": result.planning_time_ms,
            "estimated_cost": result.estimated_cost,
            "estimated_rows": result.estimated_rows,
            "cache_hit": cache_hit,
            "generation": generation,
        }

    def _bind(self, sql: str) -> BoundQuery:
        """``bind_sql`` once per distinct text; a text that fails to bind raises every time."""
        with self._lock:
            query = self._bound.get(sql)
            if query is not None:
                self._bound.move_to_end(sql)
                return query
        query = bind_sql(sql, self.database.schema)
        with self._lock:
            self._bound[sql] = query
            while len(self._bound) > self.plan_cache.max_entries:
                self._bound.popitem(last=False)
        return query

    def _plan_single_flight(
        self, planner: Planner, query: BoundQuery, hints: HintSet
    ) -> tuple[PlannerResult, bool, int]:
        """Plan via the shared cache: ``(result, cache hit, generation)``.

        One key per request: ``peek`` routes on it without touching hit/miss
        counters and the one ``plan_with_info`` call does, under the same key,
        the one ``get`` that accounts the request (requests == hits + misses).
        A miss re-peeks inside the planning lock: a concurrent client may have
        planned the key meanwhile (single-flight).  A bump after the key was
        built makes the request miss and plan under the key's pre-bump
        generation, which it reports: never a label newer than the lookup.
        """
        key = planner.cache_key(query, hints)
        generation = PlanCache.key_generation(key)
        if self.plan_cache.peek(key) is not None:
            return planner.plan_with_info(query, hints, key), True, generation
        with self._plan_lock:
            cache_hit = self.plan_cache.peek(key) is not None
            return planner.plan_with_info(query, hints, key), cache_hit, generation

    # ------------------------------------------------------------ admission
    def _admit(self, client: str) -> bool:
        """Reserve an in-flight slot; ``False`` means reject (limits reached, counted)."""
        with self._lock:
            if (
                self._total_inflight >= self.max_total_inflight
                or self._inflight.get(client, 0) >= self.max_client_inflight
            ):
                self._rejected += 1
                return False
            self._inflight[client] = self._inflight.get(client, 0) + 1
            self._total_inflight += 1
            return True

    def _release(self, client: str) -> None:
        with self._lock:
            remaining = self._inflight.get(client, 1) - 1
            if remaining <= 0:
                self._inflight.pop(client, None)
            else:
                self._inflight[client] = remaining
            self._total_inflight = max(0, self._total_inflight - 1)

    # ------------------------------------------------------------------ stats
    def stats(self) -> PlanServerStats:
        """A consistent stats snapshot (counters read under the lock)."""
        transport = self._server.counters()
        with self._lock:
            samples = sorted(self._latencies_ms)
            latency: dict[str, float] = {"count": float(len(samples))}
            if samples:
                latency.update(
                    mean=round(sum(samples) / len(samples), 4),
                    p50=round(_percentile(samples, 0.50), 4),
                    p95=round(_percentile(samples, 0.95), 4),
                    p99=round(_percentile(samples, 0.99), 4),
                )
            planners = [self._default_planner, *self._planners.values()]
            snapshot = PlanServerStats(
                uptime_s=time.monotonic() - self._started,
                served=self._served,
                planned=self._planned,
                rejected=self._rejected,
                auth_rejects=transport["auth_rejects"],
                errors=self._errors + transport["errors"],
                inflight=self._total_inflight,
                connections=transport["connections"],
                clients=dict(self._client_served),
                cache=self.plan_cache.stats_snapshot().snapshot(),
                generations={
                    planner.cache_scope: self.plan_cache.generation(planner.cache_scope)
                    for planner in planners
                },
                latency_ms=latency,
            )
        return snapshot

    def describe(self) -> str:
        return f"PlanServer({self.url}, db={self.database.name}, {self.stats().describe()})"


# ---------------------------------------------------------------------- CLI
def main(argv: list[str] | None = None) -> int:
    """``python -m repro.runtime.planserver``: serve plans for a built database."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.runtime.planserver",
        description="Serve query plans over the authenticated frame codec.",
    )
    parser.add_argument("--host", default="127.0.0.1", help="bind address (default: loopback)")
    parser.add_argument("--port", type=int, default=0, help="bind port (default: ephemeral)")
    parser.add_argument("--generator", default="imdb", help="database generator id (default: imdb)")
    parser.add_argument("--scale", type=float, default=0.5, help="database scale factor")
    parser.add_argument("--seed", type=int, default=42, help="database data seed")
    parser.add_argument(
        "--max-client-inflight", type=int, default=DEFAULT_CLIENT_INFLIGHT,
        help="per-client concurrent request limit",
    )
    parser.add_argument(
        "--max-total-inflight", type=int, default=DEFAULT_TOTAL_INFLIGHT,
        help="global concurrent request limit",
    )
    parser.add_argument(
        "--stats-interval-s", type=float, default=10.0,
        help="seconds between stats lines on stdout (0 disables)",
    )
    args = parser.parse_args(argv)

    from repro.config import SIMULATION_CONFIG
    from repro.storage.registry import get_process_registry
    from repro.storage.spec import DatabaseSpec

    spec = DatabaseSpec.create(
        args.generator, scale=args.scale, seed=args.seed, config=SIMULATION_CONFIG
    )
    try:
        database = get_process_registry().get(spec)
    except ReproError as exc:
        print(f"planserver: cannot build database: {exc}", file=sys.stderr)
        return 2
    server = PlanServer(
        database,
        host=args.host,
        port=args.port,
        max_client_inflight=args.max_client_inflight,
        max_total_inflight=args.max_total_inflight,
    )
    auth = "hmac" if server._server.secret is not None else "OFF (set REPRO_QUEUE_SECRET)"
    print(json.dumps({"url": server.url, "database": database.name, "auth": auth}), flush=True)
    try:
        while True:
            time.sleep(args.stats_interval_s if args.stats_interval_s > 0 else 60.0)
            if args.stats_interval_s > 0:
                print(server.stats().to_json(), flush=True)
    except KeyboardInterrupt:
        pass
    finally:
        server.close()
        print(server.stats().to_json(), flush=True)
    return 0


if __name__ == "__main__":  # pragma: no cover - CLI entry
    sys.exit(main())
