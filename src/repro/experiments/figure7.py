"""Figure 7 / Section 8.6: robustness of repeated query executions.

Every JOB query is executed many times in succession; the figure shows the
distribution of the normalized difference between the k-th and (k+1)-th
execution.  Expected shape: a large drop from the 1st to the 2nd execution
(the cache warms up), a small residual drop from the 2nd to the 3rd, and no
trend afterwards — which is why the framework reports the third execution.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.execution_protocol import ExecutionProtocol, RobustnessMeasurement
from repro.experiments.common import job_context


@dataclass
class Figure7Result:
    """Raw measurements plus the per-k aggregation."""

    measurements: list[RobustnessMeasurement]
    aggregated: dict[int, dict[str, float]]

    def mean_drop(self, k: int) -> float:
        """Mean normalized reduction between the k-th and (k+1)-th execution."""
        return self.aggregated.get(k, {}).get("mean", 0.0)


def run(
    scale: float | None = None,
    executions: int = 50,
    query_ids: list[str] | None = None,
    max_k: int = 10,
) -> Figure7Result:
    """Run the robustness study over (a subset of) the JOB workload."""
    context = job_context(scale)
    protocol = ExecutionProtocol(context.dispatch_source)
    measurements = protocol.robustness_study(
        context.workload, executions=executions, query_ids=query_ids
    )
    aggregated = ExecutionProtocol.aggregate_robustness(measurements, max_k=max_k)
    return Figure7Result(measurements=measurements, aggregated=aggregated)
