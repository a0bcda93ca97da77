"""Section 8.5: the GEQO ablation.

PostgreSQL runs the JOB workload with and without the genetic query optimizer.
Expected shape: fewer affected queries than the scan ablation, but among the
slow, many-join templates the differences are significant in both directions —
so an LQO that merely *steers* PostgreSQL should leave GEQO enabled.
"""

from __future__ import annotations

from repro.core.ablations import AblationStudyResult, geqo_ablation
from repro.experiments.common import job_context


def run(
    scale: float | None = None,
    hot_samples: int = 5,
    query_ids: list[str] | None = None,
) -> AblationStudyResult:
    context = job_context(scale)
    return geqo_ablation(
        context.database, context.workload, hot_samples=hot_samples, query_ids=query_ids
    )


def rows(result: AblationStudyResult) -> list[dict[str, object]]:
    return [
        {
            "query_id": outcome.query_id,
            "geqo_on_ms": round(outcome.baseline_ms, 3),
            "geqo_off_ms": round(outcome.ablated_ms, 3),
            "slowdown_factor": round(outcome.slowdown_factor, 2),
            "p_value": round(outcome.p_value, 4),
            "significant": outcome.significant(),
        }
        for outcome in sorted(result.outcomes, key=lambda o: -abs(o.difference_ms))
    ]
