"""``job_cold_path``: the single-query path a user waits on, with a cold plan cache.

Closed loop, one caller.  Every JOB query goes SQL text -> ``parse_select`` ->
``bind_query`` -> ``Planner.plan_with_info`` -> ``ExecutionProtocol.measure_plan``
(1 cold + 2 hot executions).  Each pass uses a fresh ``PlanCache``, so this is
the workload on which the plan cache is bypassed and the planner does ~94% of
the work.
"""

from __future__ import annotations

import time

from perfbench.harness import Measured, PassWorkload
from perfbench.trace import Tracer
from perfbench.workloads.common import (
    noise_seed,
    plan_metrics,
    shuffled,
    timed_build,
    unequal_pickles,
)
from repro.core.execution_protocol import ExecutionProtocol
from repro.errors import ReproError
from repro.experiments.common import job_spec
from repro.optimizer.planner import Planner
from repro.runtime.plan_cache import PlanCache
from repro.sql import binder, parser
from repro.workloads import build_job_workload

#: Queries run untimed before the measured passes.
WARMUP_QUERIES = 8


class JobColdPath(PassWorkload):
    """All 113 JOB queries as SQL text at scale 1.0, whole passes."""

    name = "job_cold_path"
    tail_level = 90.0  # 113 queries
    #: Two, like the untraced run: a slow episode of the host rarely hits a query twice.
    traced_passes = 2

    def setup(self) -> None:
        """Build the IMDB instance and the JOB texts in ``--seed`` order."""
        self.setup_layers.clear()
        self.database = timed_build(job_spec(0.1 if self.smoke else 1.0), self.setup_layers)
        started = time.perf_counter()
        workload = build_job_workload(self.database.schema)
        self.setup_layers["workloads.bind_workload_s"] = time.perf_counter() - started
        queries = workload.queries[:8] if self.smoke else workload.queries
        self.queries = shuffled(queries, self.seed)
        #: ``{pass label: {query id: plan}}``.
        self.plans: dict[str, dict] = {}
        self.sim_ms.clear()

    def operations(self) -> int:
        """One operation per JOB query."""
        return len(self.queries)

    def run_pass(
        self, label: str, tracer: Tracer | None, queries: list | None = None
    ) -> tuple[dict[str, float], int]:
        """One pass with a fresh plan cache; returns latency per query and failures."""
        planner = Planner(self.database, plan_cache=PlanCache())
        protocol = ExecutionProtocol(self.database, planner=planner)
        schema = self.database.schema
        plans = self.plans.setdefault(label, {})
        sim_ms = self.sim_ms.setdefault(label, {})
        latencies: dict[str, float] = {}
        failed = 0
        for index, query in enumerate(self.queries if queries is None else queries):
            protocol.engine.timing.reseed(noise_seed(query.query_id))
            started = time.perf_counter()
            try:
                if tracer is None:
                    measured, plan = self._one_query(query, schema, planner, protocol)
                else:
                    with tracer.span("harness.query", request=index + 1):
                        measured, plan = self._one_query(query, schema, planner, protocol)
            except (ReproError, MemoryError):
                failed += 1
                continue
            latencies[query.query_id] = (time.perf_counter() - started) * 1000.0
            failed += int(measured.timed_out or len(measured.execution_times_ms) != 3)
            plans[query.query_id] = plan
            sim_ms[query.query_id] = measured.planning_time_ms + measured.reported_execution_ms
        return latencies, failed

    @staticmethod
    def _one_query(query, schema, planner: Planner, protocol: ExecutionProtocol):
        statement = parser.parse_select(query.sql)
        bound = binder.bind_query(statement, schema, name=query.query_id)
        planned = planner.plan_with_info(bound)
        measured = protocol.measure_plan(bound, planned.plan, planning_time_ms=planned.planning_time_ms)
        return measured, planned.plan

    def warmup(self) -> None:
        """Run the first few queries of the order untimed."""
        self.run_pass("warmup", None, self.queries[:WARMUP_QUERIES])

    def layer_metrics(self, tracer: Tracer, untraced: Measured, traced: Measured) -> dict[str, float]:
        """Size and pickling cost of the plans the traced run produced."""
        return plan_metrics(tracer, list(self.plans["traced-0"].values()))

    def check(self, untraced: Measured, traced: Measured | None) -> list[str]:
        """Every pass (and the warm-up) produced the same plans and simulated times."""
        problems = super().check(untraced, traced)
        reference_label = "untraced-0"
        reference_plans = self.plans[reference_label]
        if len(reference_plans) != len(self.queries):
            problems.append(f"{len(self.queries) - len(reference_plans)} queries produced no plan")
        for label, plans in self.plans.items():
            if label == reference_label:
                continue
            for query_id in unequal_pickles(reference_plans, plans):
                problems.append(f"plan of {query_id} differs between {reference_label} and {label}")
        return problems

