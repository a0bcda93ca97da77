"""``prepared_hot_exec``: the executor and buffer pool alone, the planner not at all.

Closed loop, one caller.  JOB (113), ext-JOB (24, GROUP BY / ORDER BY) and
STACK (112) at scale 1.0 are planned once in set-up; the measured run repeats
``ExecutionProtocol.measure_plan`` (the paper's 1 cold + 2 hot protocol) over
those plans.  It bypasses every planner, cache and transport optimisation and
exposes per-operator overhead.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from perfbench.harness import Measured, PassWorkload
from perfbench.trace import Tracer
from perfbench.workloads.common import noise_seed, plan_metrics, shuffled, timed_build
from repro.core.execution_protocol import ExecutionProtocol
from repro.errors import ReproError
from repro.executor.engine import create_engine
from repro.experiments.common import job_spec, stack_spec
from repro.optimizer.planner import Planner
from repro.plans.physical import PlanNode
from repro.sql.binder import BoundQuery
from repro.workloads import build_ext_job_workload, build_job_workload, build_stack_workload


@dataclass
class Prepared:
    """One pre-planned query and the protocol of the database it runs on."""

    key: str
    bound: BoundQuery
    plan: PlanNode
    planning_time_ms: float
    protocol: ExecutionProtocol


class PreparedHotExec(PassWorkload):
    """249 pre-planned queries, whole passes of the measurement protocol."""

    name = "prepared_hot_exec"
    tail_level = 95.0  # 249 plans
    traced_passes = 4
    #: Set-up plans every query once (~14 s at HEAD): long enough to be steady
    #: without repeating it.
    setup_repeats = 1

    def setup(self) -> None:
        """Build both databases, bind the three workloads and plan every query."""
        self.setup_layers.clear()
        scale = 0.1 if self.smoke else 1.0
        imdb = timed_build(job_spec(scale), self.setup_layers)
        stack = timed_build(stack_spec(scale), self.setup_layers)
        started = time.perf_counter()
        bound_workloads = [
            (imdb, build_job_workload(imdb.schema)),
            (imdb, build_ext_job_workload(imdb.schema)),
            (stack, build_stack_workload(stack.schema)),
        ]
        self.setup_layers["workloads.bind_workload_s"] = time.perf_counter() - started
        prepared: list[Prepared] = []
        for database, workload in bound_workloads:
            planner = Planner(database)
            protocol = ExecutionProtocol(database, planner=planner)
            for query in workload.queries[:8] if self.smoke else workload.queries:
                planned = planner.plan_with_info(query.bound)
                prepared.append(
                    Prepared(
                        key=f"{workload.name}/{query.query_id}",
                        bound=query.bound,
                        plan=planned.plan,
                        planning_time_ms=planned.planning_time_ms,
                        protocol=protocol,
                    )
                )
        self.prepared = shuffled(prepared, self.seed)
        self.sim_ms.clear()

    def operations(self) -> int:
        """One operation per prepared plan."""
        return len(self.prepared)

    def run_pass(self, label: str, tracer: Tracer | None) -> tuple[dict[str, float], int]:
        """One ``measure_plan`` per prepared plan; returns latency per plan and failures."""
        sim_ms = self.sim_ms.setdefault(label, {})
        latencies: dict[str, float] = {}
        failed = 0
        for index, item in enumerate(self.prepared):
            item.protocol.engine.timing.reseed(noise_seed(item.key))
            started = time.perf_counter()
            try:
                if tracer is None:
                    measured = item.protocol.measure_plan(item.bound, item.plan)
                else:
                    with tracer.span("harness.protocol", request=index + 1):
                        measured = item.protocol.measure_plan(item.bound, item.plan)
            except (ReproError, MemoryError):
                failed += 1
                continue
            latencies[item.key] = (time.perf_counter() - started) * 1000.0
            failed += int(measured.timed_out or len(measured.execution_times_ms) != 3)
            sim_ms[item.key] = item.planning_time_ms + measured.reported_execution_ms
        return latencies, failed

    def warmup(self) -> None:
        """One untimed pass over every plan."""
        self.run_pass("warmup", None)

    def layer_metrics(self, tracer: Tracer, untraced: Measured, traced: Measured) -> dict[str, float]:
        """Size and pickling cost of the prepared plans."""
        return plan_metrics(tracer, [item.plan for item in self.prepared])

    def check(self, untraced: Measured, traced: Measured | None) -> list[str]:
        """Simulated times repeat in every pass; the row engine agrees on every plan."""
        problems = super().check(untraced, traced)
        oracles: dict[int, object] = {}
        for item in self.prepared:
            database = item.protocol.database
            engine = item.protocol.engine
            if id(database) not in oracles:
                oracles[id(database)] = create_engine(database, item.protocol.planner.config, kind="row")
            oracle = oracles[id(database)]
            outcomes = []
            for candidate in (engine, oracle):
                database.drop_caches()
                candidate.timing.reseed(noise_seed(item.key))
                result = candidate.execute(item.bound, item.plan)
                outcomes.append(
                    (result.rows, result.execution_time_ms, result.metrics,
                     result.node_actual_rows, result.timed_out)
                )
            if outcomes[0] != outcomes[1]:
                problems.append(f"row-engine oracle disagrees with the columnar engine on {item.key}")
        return problems
