"""``serve_miss``: the plan server's miss path — every request plans from scratch.

Closed loop, one ``PlanClient`` on the same server subprocess as
``serve_replay``.  One pass bumps the server's cache generation (the
``invalidate`` op) and then sends every second JOB text once (55 distinct
texts, ~5.3 s), so each request binds, plans under the server's single-flight
lock, caches and replies.

It is ``serve_replay`` with the plan cache bypassed: a planner gain must show
here after crossing the server's lock and the wire, and a transport gain that
moves ``serve_replay`` must leave this workload (~99% planning) flat.
"""

from __future__ import annotations

from perfbench.harness import Measured, PassWorkload
from perfbench.trace import Tracer
from perfbench.workloads.serve_replay import Reply, ServedWorkload

#: Texts planned untimed before the measured passes.
WARMUP_TEXTS = 8


class ServeMiss(ServedWorkload, PassWorkload):
    """Whole passes of distinct texts over a freshly invalidated plan cache."""

    name = "serve_miss"
    #: Every second text, starting at the second (55 distinct): ordered by latency
    #: the texts fall into clusters (one per query family), and in this half
    #: rank 28 (the median) and rank 44 (p80) both lie inside a cluster.  In the
    #: other half the median is the last text before a 31 -> 65 ms gap, where one
    #: slow reply moves it by half (39% spread over ten runs instead of 8%).
    pool_slice = slice(1, None, 2)
    tail_level = 80.0

    def setup(self) -> None:
        """Start the server and forget the passes of an earlier set-up."""
        super().setup()
        #: ``{pass label: {query id: reply}}``.
        self.replies: dict[str, dict[str, Reply]] = {}
        self.sim_ms.clear()

    def operations(self) -> int:
        """One operation per pool text."""
        return len(self.pool)

    def warmup(self) -> None:
        """The first few texts untimed: lazy set-up of the server's planner."""
        self.plan_pool(None, self.pool[:WARMUP_TEXTS])
        self.probe_unkeyed()

    def run_pass(self, label: str, tracer: Tracer | None) -> tuple[dict[str, float], int]:
        """Invalidate, then every text once; returns latency per text and failures."""
        self.client(0).invalidate()
        replies, failed = self.plan_pool(tracer)
        self.replies[label] = replies
        self.sim_ms[label] = {query_id: reply.served.planning_time_ms for query_id, reply in replies.items()}
        return {query_id: reply.latency_ms for query_id, reply in replies.items()}, failed

    def measure(self, seconds: float, tracer: Tracer | None) -> Measured:
        """Whole passes; the traced run also binds the texts where the sql wrappers see it."""
        measured = super().measure(seconds, tracer)
        if tracer is not None:
            self.bind_pool()
        return measured

    def layer_metrics(self, tracer: Tracer, untraced: Measured, traced: Measured) -> dict[str, float]:
        """Client/server split of a miss, and micro-probes of single steps."""
        replies = list(self.replies["traced-0"].values())
        round_trips = [(reply.latency_ms, reply.served.server_latency_ms) for reply in replies]
        return self.served_metrics(tracer, round_trips, replies)

    def check(self, untraced: Measured, traced: Measured | None) -> list[str]:
        """Every request of every pass missed; simulated planning time repeats; plans equal direct ones."""
        problems = PassWorkload.check(self, untraced, traced) + self.check_served(self.replies["untraced-0"])
        for label, replies in self.replies.items():
            hits = sum(1 for reply in replies.values() if reply.served.cache_hit)
            if hits or len(replies) != len(self.pool):
                problems.append(
                    f"pass {label} answered {len(replies)} of {len(self.pool)} texts, {hits} from the cache"
                )
        return problems
