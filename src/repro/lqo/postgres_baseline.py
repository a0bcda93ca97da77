"""The classical baseline: the simulated PostgreSQL optimizer itself.

PostgreSQL needs no training (its "model" is the cost-based planner with
up-to-date statistics), so training time is zero (Figure 6) and its inference
time is zero — planning time is the only pre-execution cost (Section 8.2.1).
"""

from __future__ import annotations

from repro.lqo.base import BaseOptimizer, PlannedQuery, TrainingReport
from repro.plans.hints import NO_HINTS
from repro.workloads.workload import BenchmarkQuery


class PostgresBaseline(BaseOptimizer):
    """Plans every query with the built-in cost-based optimizer."""

    name = "postgres"
    requires_training = False
    integrates_with_dbms = True

    def fit(self, train_queries: list[BenchmarkQuery]) -> TrainingReport:
        """No-op: the classical optimizer does not train."""
        report = TrainingReport(
            method=self.name,
            training_time_s=0.0,
            executed_plans=0,
            iterations=0,
            notes="classical optimizer; no training required",
        )
        self.training_report = report
        return report

    def plan_query(self, query: BenchmarkQuery) -> PlannedQuery:
        result = self.env.plan_with_hints(query.bound, NO_HINTS)
        return PlannedQuery(
            query_id=query.query_id,
            plan=result.plan,
            inference_time_ms=0.0,
            planning_time_ms=result.planning_time_ms,
            method=self.name,
            metadata={"strategy": result.strategy},
        )
