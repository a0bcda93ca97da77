"""Figure 6: end-to-end training time vs. combined workload runtime.

Each point is one trained model on one split: the x-axis is the end-to-end
training time, simulated from the plans the method executed, its training
queries and its iterations (``repro.simclock.training_s``),
the y-axis the summed end-to-end execution time of the workload's test
queries.  The paper's observation: spending more time training
does *not* buy better workload runtimes — the ordering is, if anything,
inverted.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.stats import linear_regression_r2
from repro.experiments.figure4 import EndToEndResult


@dataclass
class TrainingTimePoint:
    """One dot of Figure 6."""

    method: str
    workload: str
    split: str
    training_time_s: float
    workload_runtime_ms: float


def points_from_results(results: list[EndToEndResult]) -> list[TrainingTimePoint]:
    """Convert end-to-end results into Figure 6 scatter points."""
    points: list[TrainingTimePoint] = []
    for result in results:
        for run_result in result.runs:
            points.append(
                TrainingTimePoint(
                    method=run_result.method,
                    workload=result.workload_name,
                    split=run_result.split_name,
                    training_time_s=run_result.training_time_s,
                    workload_runtime_ms=run_result.total_end_to_end_ms,
                )
            )
    return points


def correlation_summary(points: list[TrainingTimePoint]) -> dict[str, float]:
    """Correlation between training time and workload runtime for learned methods."""
    learned = [p for p in points if p.method != "postgres" and p.training_time_s > 0]
    if len(learned) < 3:
        return {"n": len(learned), "pearson_r": 0.0, "r_squared": 0.0}
    x = np.asarray([p.training_time_s for p in learned])
    y = np.asarray([p.workload_runtime_ms for p in learned])
    r = float(np.corrcoef(x, y)[0, 1])
    regression = linear_regression_r2(x, y)
    return {"n": len(learned), "pearson_r": r, "r_squared": regression.r_squared}
