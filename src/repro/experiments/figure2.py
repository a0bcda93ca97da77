"""Figure 2: execution time vs. number of joins for every JOB query.

The paper's point: the number of joins is an irrelevant proxy for execution
time (R² ≈ -0.11 in their measurement), so splitting queries by join count
(as prior work did) does not align train/test groups with the optimization
target.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.experiment import ExperimentConfig, ExperimentRunner
from repro.core.stats import RegressionResult, linear_regression_r2
from repro.experiments.common import job_context


@dataclass
class Figure2Result:
    """Scatter data plus the regression summary."""

    points: list[dict[str, object]]
    regression: RegressionResult


def run(scale: float | None = None, query_ids: list[str] | None = None) -> Figure2Result:
    """Execute the JOB workload with PostgreSQL and collect (joins, time) points."""
    context = job_context(scale)
    runner = ExperimentRunner(
        context.dispatch_source,
        context.workload,
        experiment_config=ExperimentConfig(executions_per_query=3),
    )
    queries = (
        [context.workload.by_id(qid) for qid in query_ids] if query_ids else context.workload.queries
    )
    baseline = runner.run_postgres_only(queries)
    points = [
        {
            "query_id": timing.query_id,
            "num_joins": timing.num_joins,
            "execution_time_ms": round(timing.execution_time_ms, 3),
        }
        for timing in baseline.timings
    ]
    regression = linear_regression_r2(
        np.asarray([p["num_joins"] for p in points], dtype=float),
        np.asarray([p["execution_time_ms"] for p in points], dtype=float),
    )
    return Figure2Result(points=points, regression=regression)
