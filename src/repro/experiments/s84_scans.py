"""Section 8.4: the bitmap/tid scan ablation.

PostgreSQL runs the JOB workload with and without bitmap/tid scans; expected
shape: a meaningful number of queries change significantly in both directions
(some speed up, some slow down), i.e. removing these scan types from the
toolkit is not a free simplification.
"""

from __future__ import annotations

from repro.core.ablations import AblationStudyResult, scan_type_ablation
from repro.experiments.common import job_context


def run(
    scale: float | None = None,
    hot_samples: int = 5,
    query_ids: list[str] | None = None,
) -> AblationStudyResult:
    context = job_context(scale)
    return scan_type_ablation(
        context.database, context.workload, hot_samples=hot_samples, query_ids=query_ids
    )


def rows(result: AblationStudyResult) -> list[dict[str, object]]:
    return [
        {
            "query_id": outcome.query_id,
            "baseline_ms": round(outcome.baseline_ms, 3),
            "no_bitmap_tid_ms": round(outcome.ablated_ms, 3),
            "speedup_factor": round(outcome.speedup_factor, 2),
            "p_value": round(outcome.p_value, 4),
            "significant": outcome.significant(),
        }
        for outcome in sorted(result.outcomes, key=lambda o: -abs(o.difference_ms))
    ]
