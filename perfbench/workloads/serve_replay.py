"""``serve_replay``: plans served over TCP by ``python -m repro.runtime.planserver``.

Closed loop — the callers are LQO loops and sweep workers that wait for each
reply.  The server is a subprocess at scale 1.0, keyed with
``REPRO_QUEUE_SECRET``.  Warm-up is a *miss* pass: one ``PlanClient`` sends
every third JOB text once (38 texts; planning all 113 would cost 14 s per
run), so the server plans each under its single-flight lock.  The measured run
is the *hit* phase: two ``PlanClient`` threads replay the same texts from
staggered offsets, 100% cache hits.

It is the only workload where connect, frame encode/sign/verify, pickle and
``bind_sql`` dominate; the ``PlanCache`` that is all-miss in ``job_cold_path``
is all-hit here.  The miss path has its own workload, ``serve_miss``, which
shares the server plumbing defined here (:class:`ServedWorkload`).
"""

from __future__ import annotations

import json
import math
import os
import pickle
import socket
import subprocess
import sys
import threading
import time
from dataclasses import replace
from pathlib import Path
from typing import NamedTuple

from perfbench.harness import Measured, Workload, p50_or_zero
from perfbench.trace import Tracer
from perfbench.workloads.common import (
    frame_metrics,
    plan_metrics,
    shuffled,
    timed_build,
    unequal_pickles,
)
from repro.catalog.imdb import imdb_schema
from repro.errors import ReproError
from repro.experiments.common import job_spec
from repro.optimizer.planner import Planner
from repro.plans.hints import NO_HINTS
from repro.runtime import netqueue
from repro.runtime.netqueue import QueueAuthError
from repro.runtime.planclient import PlanClient, ServedPlan
from repro.sql import binder
from repro.workloads import build_job_workload

CLIENTS = 2
#: One connection per request and 28k ephemeral ports: a run opens fewer than
#: 10,000 connections.  The hit phase may make ``HIT_REQUESTS``; the traced run
#: and its reference ``TRACED_REQUESTS`` each; the rest (one miss pass,
#: ``CONNECT_PROBES``, pings and stats) stays below 200.
HIT_REQUESTS = 9000
TRACED_REQUESTS = 400
CONNECT_PROBES = 100
#: A run of a fixed number of requests gives up after this many seconds.
FIXED_COUNT_DEADLINE_S = 60.0
#: Served plans compared byte for byte with a direct ``Planner``.
DIRECT_PLANS = 10
#: Seconds per slice of the hit phase; the slice with most completions is reported.
SLICE_S = 1.0
SRC = Path(__file__).resolve().parents[2] / "src"


class Reply(NamedTuple):
    """One answered request."""

    latency_ms: float
    served: ServedPlan
    #: ``time.perf_counter`` when the reply arrived.
    finished: float


class Hit(NamedTuple):
    """What the hit phase keeps of a reply: thousands of plans would be the harness's memory, not the system's."""

    latency_ms: float
    server_ms: float
    cache_hit: bool
    sql: str
    #: Places the reply in a slice.
    finished: float


class ServedWorkload(Workload):
    """A plan-server subprocess, keyed clients and a pool of distinct JOB texts."""

    #: The JOB queries in the pool.
    pool_slice = slice(0, None, 3)
    server: subprocess.Popen | None = None

    def setup(self) -> None:
        """Start the plan server, wait for its URL, and build the pool."""
        self.setup_layers.clear()
        scale = 0.1 if self.smoke else 1.0
        self.secret = f"perfbench-{self.seed}"
        environment = dict(os.environ, REPRO_QUEUE_SECRET=self.secret, PYTHONPATH=str(SRC))
        self.server = subprocess.Popen(
            [sys.executable, "-m", "repro.runtime.planserver",
             "--scale", str(scale), "--stats-interval-s", "0"],
            stdout=subprocess.PIPE, env=environment, text=True,
        )
        # The direct-planning oracle needs the same database in this process.
        self.database = timed_build(job_spec(scale), self.setup_layers)
        started = time.perf_counter()
        workload = build_job_workload(imdb_schema())
        self.setup_layers["workloads.bind_workload_s"] = time.perf_counter() - started
        queries = workload.queries[:8] if self.smoke else workload.queries[self.pool_slice]
        # 25c is textually identical to 25a: sent second, it would hit the cache.
        first_with_text = {query.sql: query for query in reversed(queries)}
        self.pool = shuffled([q for q in queries if first_with_text[q.sql] is q], self.seed)
        announcement = self.server.stdout.readline()
        if not announcement:
            raise RuntimeError(f"plan server exited with code {self.server.wait()} before announcing")
        self.url = json.loads(announcement)["url"]
        self.client(0).ping()

    def teardown(self) -> None:
        """Terminate the server, drain its stdout and wait for it."""
        server, self.server = self.server, None
        if server is None:
            return
        server.terminate()
        try:
            server.communicate(timeout=10)
        except subprocess.TimeoutExpired:
            server.kill()
            server.communicate()

    def client(self, index: int) -> PlanClient:
        """A keyed client that surfaces every transport error (no hidden retries)."""
        return PlanClient(self.url, client_id=f"perfbench-{index}", secret=self.secret, retries=0)

    @staticmethod
    def request(client: PlanClient, sql: str, tracer: Tracer | None, request: int) -> Reply:
        """One timed ``client.plan(sql)``, under a request span when traced."""
        started = time.perf_counter()
        if tracer is None:
            served = client.plan(sql)
        else:
            with tracer.span("harness.request", request=request):
                served = client.plan(sql)
        finished = time.perf_counter()
        return Reply((finished - started) * 1000.0, served, finished)

    def plan_pool(self, tracer: Tracer | None, queries: list | None = None) -> tuple[dict[str, Reply], int]:
        """One client sends every pool text once: ``({query id: reply}, failures)``."""
        client = self.client(0)
        replies: dict[str, Reply] = {}
        failed = 0
        for index, query in enumerate(self.pool if queries is None else queries):
            try:
                replies[query.query_id] = self.request(client, query.sql, tracer, index + 1)
            except (ReproError, OSError):
                failed += 1
        return replies, failed

    def probe_unkeyed(self) -> None:
        """An unkeyed client must bounce (and show up in the server's ``auth_rejects``).

        Not an operation of the workload, so never counted in ``failed``.
        """
        try:
            PlanClient(self.url, secret="", retries=0).ping()
        except QueueAuthError:
            self.unkeyed_rejected = True
        else:
            self.unkeyed_rejected = False

    def bind_pool(self) -> None:
        """The server binds every request; the same call on the same texts, where wrappers see it."""
        for query in self.pool:
            binder.bind_sql(query.sql, self.database.schema)

    # ------------------------------------------------------------------ per layer
    def install(self, tracer: Tracer) -> None:
        """The shared wrappers plus the client's own frame calls."""
        super().install(tracer)
        tracer.wrap(netqueue, "send_frame", "runtime.client_send_frame")
        tracer.wrap(netqueue, "recv_frame", "runtime.client_recv_frame")

    def served_metrics(
        self, tracer: Tracer, round_trips: list[tuple[float, float]], planned: list[Reply]
    ) -> dict[str, float]:
        """Client/server split of the traced run, and micro-probes of single steps.

        ``round_trips`` are ``(round trip, server latency)`` in ms of the
        traced requests.  ``planned`` holds one reply per pool text: the
        recorded responses that the frame codec and ``pickle`` are timed on.
        """
        metrics = {
            "runtime.server_ms_p50": p50_or_zero([server_ms for _, server_ms in round_trips]),
            "runtime.client_overhead_ms_p50": p50_or_zero(
                [latency_ms - server_ms for latency_ms, server_ms in round_trips]
            ),
        }
        host, port = self.url.removeprefix("tcp://").rsplit(":", 1)
        key = netqueue.resolve_queue_secret(self.secret)
        for _ in range(CONNECT_PROBES):
            with tracer.span("runtime.connect"):
                sock = socket.create_connection((host, int(port)), timeout=10)
            with sock:
                netqueue.send_frame(sock, {"op": "ping"}, secret=key)
                netqueue.recv_frame(sock, secret=key)
        requests = [{"op": "plan", "sql": query.sql, "hints": NO_HINTS} for query in self.pool]
        responses = [
            {
                "ok": True, "plan": served.plan, "strategy": served.strategy,
                "planning_time_ms": served.planning_time_ms, "estimated_cost": served.estimated_cost,
                "estimated_rows": served.estimated_rows, "cache_hit": served.cache_hit,
                "generation": served.generation, "server_latency_ms": served.server_latency_ms,
            }
            for _, served, _ in planned
        ]
        metrics["runtime.response_bytes_p50"] = p50_or_zero(
            [len(pickle.dumps(response, protocol=pickle.HIGHEST_PROTOCOL)) for response in responses]
        )
        metrics.update(frame_metrics(tracer, requests + responses, self.secret))
        metrics.update(plan_metrics(tracer, [reply.served.plan for reply in planned]))
        durations = tracer.durations_by_name()
        metrics["runtime.connect_us_p50"] = p50_or_zero(durations["runtime.connect"], 1e6)
        stats = self.client(0).stats()
        metrics["runtime.rejected"] = stats["rejected"]
        metrics["runtime.auth_rejects"] = stats["auth_rejects"]
        metrics["runtime.plan_cache_hits"] = stats["cache"]["hits"]
        metrics["runtime.plan_cache_misses"] = stats["cache"]["misses"]
        metrics["runtime.plan_cache_hit_rate"] = stats["cache"]["hit_rate"]
        return metrics

    # ------------------------------------------------------------------ checks
    def check_served(self, planned: dict[str, Reply]) -> list[str]:
        """Served plans equal direct plans, unkeyed clients bounce, nothing was refused."""
        problems = []
        planner = Planner(self.database)
        direct, served_plans = {}, {}
        answered = [query for query in self.pool if query.query_id in planned]
        for query in sorted(answered, key=lambda query: planned[query.query_id].latency_ms)[:DIRECT_PLANS]:
            bound = binder.bind_sql(query.sql, self.database.schema)
            # One serialization hop, as the served plan has had (see docs/SERVING.md).
            direct[query.query_id] = pickle.loads(pickle.dumps(planner.plan(bound)))
            served_plans[query.query_id] = planned[query.query_id].served.plan
        for query_id in unequal_pickles(direct, served_plans):
            problems.append(f"served plan of {query_id} differs from a direct Planner call")
        if not self.unkeyed_rejected:
            problems.append("an unkeyed client was not rejected")
        stats = self.client(0).stats()
        if stats["rejected"] or stats["errors"]:
            problems.append(f"server rejected {stats['rejected']} and failed {stats['errors']} requests")
        return problems


class ServeReplay(ServedWorkload):
    """One miss pass as warm-up, then two closed-loop clients on a hot plan cache."""

    name = "serve_replay"
    tail_level = 95.0  # ~850 requests in the reported slice

    def warmup(self) -> None:
        """Every pool text once, so that the server plans and caches each."""
        self.planned, self.warmup_failed = self.plan_pool(None)
        self.probe_unkeyed()

    # ------------------------------------------------------------------ hit phase
    def _replay(self, index: int, deadline: float, budget: int, tracer: Tracer | None, out: dict) -> None:
        """Send requests until ``budget`` were attempted or ``deadline`` has passed."""
        client = self.client(index)
        step = index * (len(self.pool) // CLIENTS)
        records = out["records"]
        while time.perf_counter() < deadline and len(records) + out["failed"] < budget:
            sql = self.pool[step % len(self.pool)].sql
            step += 1
            try:
                latency_ms, served, finished = self.request(client, sql, tracer, index * HIT_REQUESTS + step)
            except (ReproError, OSError):
                out["failed"] += 1
                continue
            records.append(Hit(latency_ms, served.server_latency_ms, served.cache_hit, sql, finished))

    def measure(self, seconds: float, tracer: Tracer | None) -> Measured:
        """Two clients replay the pool: for ``seconds`` untraced, a fixed count traced.

        The untraced run is cut into slices of ``SLICE_S``; its latencies and
        throughput are those of the slice that completed most requests.  The
        traced run reports every request.
        """
        if tracer is None:
            return self._fastest_slice(self._clients(seconds, HIT_REQUESTS // CLIENTS, None))
        traced = self._fixed_count(tracer)
        self.bind_pool()
        return traced

    def trace_reference(self, untraced: Measured) -> Measured:
        """The traced run's requests once more without wrappers, right before it."""
        return self._fixed_count(None)

    def _fixed_count(self, tracer: Tracer | None) -> Measured:
        requests = 50 if self.smoke else TRACED_REQUESTS
        return self._clients(FIXED_COUNT_DEADLINE_S, requests // CLIENTS, tracer)

    def _clients(self, seconds: float, budget: int, tracer: Tracer | None) -> Measured:
        """Run the client threads until ``seconds`` pass or each has attempted ``budget`` requests."""
        outs = [{"records": [], "failed": 0} for _ in range(CLIENTS)]
        started = time.perf_counter()
        threads = [
            threading.Thread(target=self._replay, args=(index, started + seconds, budget, tracer, outs[index]))
            for index in range(CLIENTS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        wall_s = time.perf_counter() - started
        records = [record for out in outs for record in out["records"]]
        failed = sum(out["failed"] for out in outs)
        return Measured(
            latencies_ms=[record.latency_ms for record in records],
            keys=[record.sql for record in records],
            busy_s=wall_s,
            total_s=wall_s,
            attempted=len(records) + failed,
            failed=failed,
            sim_ms=math.fsum(sorted(reply.served.planning_time_ms for reply in self.planned.values())),
            details={"records": records, "started": started},
        )

    @staticmethod
    def _fastest_slice(whole: Measured) -> Measured:
        """``whole`` with the latencies and throughput of its ``SLICE_S`` slice of most replies."""
        slices = [[] for _ in range(int(whole.total_s / SLICE_S))]
        for record in whole.details["records"]:
            index = int((record.finished - whole.details["started"]) / SLICE_S)
            if index < len(slices):
                slices[index].append(record)
        if not slices:  # a run shorter than one slice (smoke runs) is its own slice
            return whole
        fastest = max(slices, key=len)
        return replace(
            whole,
            latencies_ms=[record.latency_ms for record in fastest],
            keys=[record.sql for record in fastest],
            busy_s=SLICE_S,
        )

    def layer_metrics(self, tracer: Tracer, untraced: Measured, traced: Measured) -> dict[str, float]:
        """Client/server split of a hit, and micro-probes of single steps."""
        round_trips = [(hit.latency_ms, hit.server_ms) for hit in traced.details["records"]]
        return self.served_metrics(tracer, round_trips, list(self.planned.values()))

    def check(self, untraced: Measured, traced: Measured | None) -> list[str]:
        """The warm-up missed on every text, the hit phase hit on every request."""
        problems = self.check_served(self.planned)
        missed = sum(1 for reply in self.planned.values() if not reply.served.cache_hit)
        if self.warmup_failed or missed != len(self.pool):
            problems.append(f"warm-up planned {missed} of {len(self.pool)} texts, {self.warmup_failed} failed")
        for label, measured in (("untraced", untraced), ("traced", traced)):
            if measured is None:
                continue
            cold = sum(1 for record in measured.details["records"] if not record.cache_hit)
            if cold:
                problems.append(f"{cold} requests of the {label} hit phase were not cache hits")
        return problems
