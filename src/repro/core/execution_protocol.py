"""The measurement protocol: repeated executions under a controlled cache state.

Section 7.3 of the paper argues for a *hot cache* protocol: execute the same
query ``k`` times in a row and report the k-th execution; Section 8.6 / Figure
7 determine empirically that ``k = 3`` balances robustness and cost (a ~15%
drop from the 1st to the 2nd execution, ~1% from the 2nd to the 3rd, then
flat).  :class:`ExecutionProtocol` implements that protocol and the
robustness study that justifies it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import ExperimentError
from repro.executor.engine import ExecutionEngine, ExecutionResult, create_engine
from repro.optimizer.planner import Planner
from repro.plans.physical import PlanNode
from repro.sql.binder import BoundQuery
from repro.storage.database import Database
from repro.storage.registry import resolve_database
from repro.storage.spec import DatabaseSpec
from repro.workloads.workload import Workload

#: The paper's recommended number of repeated executions.
DEFAULT_EXECUTIONS = 3


@dataclass
class MeasuredQuery:
    """Timings of one query measured under the protocol."""

    query_id: str
    planning_time_ms: float
    execution_times_ms: list[float]
    timed_out: bool = False
    #: The last run's full result (rows, work profile, per-node row counts),
    #: what ``EXPLAIN ANALYZE`` renders.
    result: ExecutionResult | None = field(default=None, repr=False, compare=False)

    @property
    def reported_execution_ms(self) -> float:
        """The k-th (last) execution — the number the framework reports."""
        return self.execution_times_ms[-1]

    @property
    def first_execution_ms(self) -> float:
        return self.execution_times_ms[0]


@dataclass
class RobustnessMeasurement:
    """Successive-execution analysis of one query (Figure 7 raw data)."""

    query_id: str
    execution_times_ms: list[float]

    def normalized_differences(self) -> list[float]:
        """Relative difference between the k-th and (k+1)-th execution,
        normalized by the first execution (the paper's Figure 7 metric)."""
        times = self.execution_times_ms
        if len(times) < 2 or times[0] <= 0:
            return []
        return [(times[k] - times[k + 1]) / times[0] for k in range(len(times) - 1)]


class ExecutionProtocol:
    """Plans and measures queries under the paper's measurement protocol."""

    def __init__(
        self,
        database: "Database | DatabaseSpec",
        planner: Planner | None = None,
        engine: ExecutionEngine | None = None,
        executions_per_query: int = DEFAULT_EXECUTIONS,
        cold_start: bool = True,
    ) -> None:
        if executions_per_query < 1:
            raise ExperimentError("executions_per_query must be at least 1")
        database = resolve_database(database)
        self.database = database
        self.planner = planner or Planner(database)
        # The default is the columnar engine; a caller may hand in any
        # engine instance, the row oracle included.
        if engine is not None and not isinstance(engine, ExecutionEngine):
            raise ExperimentError(
                f"engine must be an ExecutionEngine, got {engine!r}; "
                "build one with repro.executor.engine.create_engine"
            )
        self.engine = engine or create_engine(database, self.planner.config)
        self.executions_per_query = executions_per_query
        self.cold_start = cold_start

    # ------------------------------------------------------------------ measuring
    def measure_plan(
        self,
        query: BoundQuery,
        plan: PlanNode,
        planning_time_ms: float = 0.0,
        executions: int | None = None,
        timeout_ms: float | None = None,
        cold_start: bool | None = None,
    ) -> MeasuredQuery:
        """Execute an already-built plan ``executions`` times (``None``: the
        default; below 1 is rejected) over one data pass, and record all runs
        up to the first that times out.  ``cold_start`` (``None``: the
        protocol's) drops the caches before the first run."""
        count = self.executions_per_query if executions is None else executions
        if cold_start is None:
            cold_start = self.cold_start
        runs = self.engine.runs(query, plan, count, timeout_ms)
        if cold_start:
            self.database.drop_caches()
        times: list[float] = []
        for result in runs:
            times.append(result.execution_time_ms)
            if result.timed_out:
                break
        return MeasuredQuery(
            query_id=query.name or "",
            planning_time_ms=planning_time_ms,
            execution_times_ms=times,
            timed_out=result.timed_out,
            result=result,
        )

    # ------------------------------------------------------------------ robustness
    def robustness_study(
        self,
        workload: Workload,
        executions: int = 50,
        query_ids: list[str] | None = None,
    ) -> list[RobustnessMeasurement]:
        """Execute every query ``executions`` times in succession (Section 8.6).

        Queries are executed in order (1a, 1a, ..., 1a, 1b, 1b, ...) exactly as
        the paper describes, so each query's first run reflects whatever cache
        state the previous query left behind plus its own cold pages.
        """
        queries = (
            [workload.by_id(qid) for qid in query_ids]
            if query_ids is not None
            else workload.queries
        )
        measurements: list[RobustnessMeasurement] = []
        self.database.drop_caches()
        for query in queries:
            planned = self.planner.plan_with_info(query.bound)
            runs = self.engine.runs(query.bound, planned.plan, executions)
            times = [result.execution_time_ms for result in runs]
            measurements.append(
                RobustnessMeasurement(query_id=query.query_id, execution_times_ms=times)
            )
        return measurements

    @staticmethod
    def aggregate_robustness(
        measurements: list[RobustnessMeasurement], max_k: int = 10
    ) -> dict[int, dict[str, float]]:
        """Aggregate Figure 7: distribution of normalized differences per k."""
        per_k: dict[int, list[float]] = {}
        for measurement in measurements:
            for k, diff in enumerate(measurement.normalized_differences(), start=1):
                if k > max_k:
                    break
                per_k.setdefault(k, []).append(diff)
        out: dict[int, dict[str, float]] = {}
        for k, values in sorted(per_k.items()):
            arr = np.asarray(values)
            out[k] = {
                "mean": float(arr.mean()),
                "median": float(np.median(arr)),
                "p25": float(np.quantile(arr, 0.25)),
                "p75": float(np.quantile(arr, 0.75)),
                "n": int(arr.size),
            }
        return out
