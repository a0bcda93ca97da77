"""Section 8.7: analysis of query plan types (bushy vs. left-deep).

All join trees of JOB queries with at most 5 joins are enumerated with the
DBMS's own cardinality estimator and all join methods allowed, executed, and
the execution-time distributions of bushy vs. left-deep (linear) plans are
compared with a Mann-Whitney U test — overall and at the fast tail of the
combined distribution.

Expected shape (paper): no significant difference on average (p ≈ 0.29), but
bushy trees significantly better at the fast tail (p ≈ 0.015) — removing bushy
plans from an LQO's search space lowers its chance of finding the best plan.
"""

from __future__ import annotations

from repro.core.ablations import PlanShapeStudyResult, plan_shape_analysis
from repro.experiments.common import job_context


def run(
    scale: float | None = None,
    max_joins: int = 5,
    max_plans_per_query: int = 48,
) -> PlanShapeStudyResult:
    context = job_context(scale)
    return plan_shape_analysis(
        context.database,
        context.workload,
        max_joins=max_joins,
        max_plans_per_query=max_plans_per_query,
    )


def summary(result: PlanShapeStudyResult) -> dict[str, object]:
    bushy = result.times_for(bushy=True)
    linear = result.times_for(bushy=False)
    out: dict[str, object] = {
        "enumerated_plans": len(result.samples),
        "bushy_plans": int(bushy.size),
        "linear_plans": int(linear.size),
        "bushy_mean_ms": round(float(bushy.mean()), 3) if bushy.size else None,
        "linear_mean_ms": round(float(linear.mean()), 3) if linear.size else None,
        "bushy_min_ms": round(float(bushy.min()), 3) if bushy.size else None,
        "linear_min_ms": round(float(linear.min()), 3) if linear.size else None,
    }
    if result.overall_test is not None:
        out["overall_p_value"] = round(result.overall_test.p_value, 4)
    if result.fast_tail_test is not None:
        out["fast_tail_p_value"] = round(result.fast_tail_test.p_value, 4)
    return out
