"""Ablation studies of the classical optimizer's toolkit (Sections 8.4, 8.5, 8.7).

* :func:`scan_type_ablation` — disable bitmap and tid scans and compare
  per-query execution times against the baseline configuration (Section 8.4),
* :func:`geqo_ablation` — disable the genetic query optimizer (Section 8.5),
* :func:`plan_shape_analysis` — exhaustively enumerate the join trees of small
  queries, execute them and compare bushy vs. left-deep plans with a
  Mann-Whitney U test overall and at the fast tail (Section 8.7).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.config import PostgresConfig
from repro.core.stats import MannWhitneyResult, mann_whitney_u_test
from repro.executor.engine import create_engine
from repro.optimizer.enumeration import enumerate_join_trees
from repro.optimizer.planner import Planner
from repro.plans.properties import PlanShape, classify_plan_shape
from repro.storage.database import Database
from repro.workloads.workload import BenchmarkQuery, Workload


@dataclass
class QueryAblationOutcome:
    """Baseline vs. ablated execution times of one query."""

    query_id: str
    baseline_ms: float
    ablated_ms: float
    baseline_samples: list[float]
    ablated_samples: list[float]
    p_value: float

    @property
    def difference_ms(self) -> float:
        return self.ablated_ms - self.baseline_ms

    @property
    def speedup_factor(self) -> float:
        """> 1 means the ablated configuration is *faster* for this query."""
        return self.baseline_ms / max(self.ablated_ms, 1e-9)

    @property
    def slowdown_factor(self) -> float:
        """> 1 means the ablated configuration is *slower* for this query."""
        return self.ablated_ms / max(self.baseline_ms, 1e-9)

    def significant(self, alpha: float = 0.05) -> bool:
        return self.p_value < alpha


@dataclass
class AblationStudyResult:
    """All per-query outcomes of one configuration ablation."""

    name: str
    outcomes: list[QueryAblationOutcome] = field(default_factory=list)

    def affected_queries(self, threshold_ms: float = 0.25) -> list[QueryAblationOutcome]:
        """Queries whose execution time changes by more than ``threshold_ms``."""
        return [o for o in self.outcomes if abs(o.difference_ms) > threshold_ms]

    def significant_queries(self, threshold_ms: float = 0.25, alpha: float = 0.05):
        return [o for o in self.affected_queries(threshold_ms) if o.significant(alpha)]

    def top_speedups(self, k: int = 3) -> list[QueryAblationOutcome]:
        return sorted(self.outcomes, key=lambda o: o.speedup_factor, reverse=True)[:k]

    def top_slowdowns(self, k: int = 3) -> list[QueryAblationOutcome]:
        return sorted(self.outcomes, key=lambda o: o.slowdown_factor, reverse=True)[:k]


def _measure_config(
    database: Database,
    config: PostgresConfig,
    queries: list[BenchmarkQuery],
    hot_samples: int,
) -> dict[str, list[float]]:
    """Hot-cache execution-time samples of every query under one configuration."""
    db = database.with_config(config)
    planner = Planner(db, config)
    engine = create_engine(db, config)
    samples: dict[str, list[float]] = {}
    for query in queries:
        planned = planner.plan_with_info(query.bound)
        db.drop_caches()
        # One warm-up run, then `hot_samples` measured hot-cache runs.
        runs = engine.runs(query.bound, planned.plan, 1 + hot_samples)
        samples[query.query_id] = [result.execution_time_ms for result in runs][1:]
    return samples


def _ablation(
    name: str,
    database: Database,
    workload: Workload,
    baseline_config: PostgresConfig,
    ablated_config: PostgresConfig,
    hot_samples: int,
    query_ids: list[str] | None,
) -> AblationStudyResult:
    queries = (
        [workload.by_id(qid) for qid in query_ids] if query_ids is not None else workload.queries
    )
    baseline = _measure_config(database, baseline_config, queries, hot_samples)
    ablated = _measure_config(database, ablated_config, queries, hot_samples)
    result = AblationStudyResult(name=name)
    for query in queries:
        base_samples = baseline[query.query_id]
        abl_samples = ablated[query.query_id]
        test: MannWhitneyResult = mann_whitney_u_test(
            np.asarray(base_samples), np.asarray(abl_samples)
        )
        result.outcomes.append(
            QueryAblationOutcome(
                query_id=query.query_id,
                baseline_ms=float(np.median(base_samples)),
                ablated_ms=float(np.median(abl_samples)),
                baseline_samples=base_samples,
                ablated_samples=abl_samples,
                p_value=test.p_value,
            )
        )
    return result


def scan_type_ablation(
    database: Database,
    workload: Workload,
    baseline_config: PostgresConfig | None = None,
    hot_samples: int = 5,
    query_ids: list[str] | None = None,
) -> AblationStudyResult:
    """Section 8.4: disable bitmap and tid scans and measure the per-query impact."""
    baseline_config = baseline_config or database.config
    ablated_config = baseline_config.with_overrides(
        enable_bitmapscan=False, enable_tidscan=False
    )
    return _ablation(
        "disable bitmap/tid scans",
        database,
        workload,
        baseline_config,
        ablated_config,
        hot_samples,
        query_ids,
    )


def geqo_ablation(
    database: Database,
    workload: Workload,
    baseline_config: PostgresConfig | None = None,
    hot_samples: int = 5,
    query_ids: list[str] | None = None,
) -> AblationStudyResult:
    """Section 8.5: disable the genetic query optimizer and measure the impact."""
    baseline_config = baseline_config or database.config
    ablated_config = baseline_config.with_overrides(geqo=False)
    return _ablation(
        "disable GEQO",
        database,
        workload,
        baseline_config,
        ablated_config,
        hot_samples,
        query_ids,
    )


# ---------------------------------------------------------------------------
# Plan-shape analysis (Section 8.7)
# ---------------------------------------------------------------------------

@dataclass
class PlanShapeSample:
    """One enumerated plan, its shape and its measured execution time."""

    query_id: str
    shape: PlanShape
    execution_time_ms: float
    estimated_cost: float


@dataclass
class PlanShapeStudyResult:
    """Shape-wise execution time distributions plus the statistical comparison."""

    samples: list[PlanShapeSample] = field(default_factory=list)
    overall_test: MannWhitneyResult | None = None
    fast_tail_test: MannWhitneyResult | None = None
    fast_tail_quantile: float = 0.25

    def times_for(self, bushy: bool) -> np.ndarray:
        wanted = (
            {PlanShape.BUSHY}
            if bushy
            else {PlanShape.LEFT_DEEP, PlanShape.RIGHT_DEEP, PlanShape.ZIGZAG}
        )
        return np.asarray(
            [s.execution_time_ms for s in self.samples if s.shape in wanted], dtype=float
        )

    def shape_counts(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for sample in self.samples:
            counts[sample.shape.value] = counts.get(sample.shape.value, 0) + 1
        return counts


def plan_shape_analysis(
    database: Database,
    workload: Workload,
    max_joins: int = 5,
    max_plans_per_query: int = 48,
    fast_tail_quantile: float = 0.25,
    seed: int = 0,
) -> PlanShapeStudyResult:
    """Section 8.7: enumerate all join-tree shapes of small queries and execute them.

    As in the paper, all queries with at most ``max_joins`` joins are analysed,
    the DBMS's own cardinality estimator drives operator selection (rather than
    true cardinalities) and all join methods are allowed.  When a query has
    more enumerable trees than ``max_plans_per_query`` a deterministic sample
    is executed to bound the study's runtime.
    """
    planner = Planner(database)
    engine = create_engine(database)
    rng = np.random.default_rng(seed)
    result = PlanShapeStudyResult(fast_tail_quantile=fast_tail_quantile)

    for query in workload:
        if query.num_joins > max_joins:
            continue
        try:
            plans = list(
                enumerate_join_trees(query.bound, planner.cost_model, max_relations=max_joins + 1)
            )
        except Exception:
            continue
        if not plans:
            continue
        if len(plans) > max_plans_per_query:
            indices = rng.choice(len(plans), size=max_plans_per_query, replace=False)
            plans = [plans[i] for i in sorted(indices)]
        database.drop_caches()
        # Warm the caches once with the first plan so every enumerated plan is
        # measured under comparable (hot) conditions.
        engine.execute(query.bound, plans[0])
        for plan in plans:
            execution = engine.execute(query.bound, plan)
            result.samples.append(
                PlanShapeSample(
                    query_id=query.query_id,
                    shape=classify_plan_shape(plan),
                    execution_time_ms=execution.execution_time_ms,
                    estimated_cost=plan.estimated_cost,
                )
            )

    bushy = result.times_for(bushy=True)
    linear = result.times_for(bushy=False)
    if bushy.size and linear.size:
        result.overall_test = mann_whitney_u_test(bushy, linear, alternative="two-sided")
        threshold = np.quantile(
            np.concatenate([bushy, linear]), fast_tail_quantile
        )
        bushy_tail = bushy[bushy <= threshold]
        linear_tail = linear[linear <= threshold]
        if bushy_tail.size and linear_tail.size:
            result.fast_tail_test = mann_whitney_u_test(
                bushy_tail, linear_tail, alternative="less"
            )
    return result
