"""The covariate-shift study (Section 8.3): Bao-Full vs. Bao-50 on IMDB-50%.

The experiment trains one Bao model on the full IMDB database and a second one
on IMDB-50% (the ``title`` table Bernoulli-sampled to 50% with referential
cascade), then evaluates *both* models on the full database using the same
base-query split.  A cardinality-only encoding that cannot tell the two data
regimes apart degrades on several queries and improves on a few — the paper's
evidence that refreshed DBMS statistics alone are not enough for an LQO to
survive covariate shift.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.metrics import MethodRunResult
from repro.core.splits import DatasetSplit
from repro.core.experiment import ExperimentConfig, ExperimentRunner
from repro.lqo.bao import BaoOptimizer
from repro.lqo.base import LQOEnvironment
from repro.storage.database import Database
from repro.workloads.workload import Workload


@dataclass
class CovariateShiftResult:
    """Per-query latencies of the two Bao models evaluated on the full database."""

    split_name: str
    full_model: MethodRunResult
    shifted_model: MethodRunResult
    slowdown_factors: dict[str, float] = field(default_factory=dict)

    def top_regressions(self, k: int = 5) -> list[tuple[str, float]]:
        """Queries where the shifted model is most slowed down vs. Bao-Full."""
        items = sorted(self.slowdown_factors.items(), key=lambda kv: kv[1], reverse=True)
        return items[:k]

    def top_improvements(self, k: int = 5) -> list[tuple[str, float]]:
        """Queries where the shifted model happens to be faster than Bao-Full."""
        items = sorted(self.slowdown_factors.items(), key=lambda kv: kv[1])
        return [(qid, factor) for qid, factor in items[:k] if factor < 1.0]


def run_covariate_shift_study(
    full_database: Database,
    shifted_database: Database,
    workload: Workload,
    split: DatasetSplit,
    experiment_config: ExperimentConfig | None = None,
    bao_kwargs: dict | None = None,
) -> CovariateShiftResult:
    """Train Bao on both databases, evaluate both models on the full database."""
    experiment_config = experiment_config or ExperimentConfig()
    bao_kwargs = bao_kwargs or {}
    # Private, empty buffer pools over the shared table data: what the study
    # measures must not depend on what ran on these databases before it.
    full_database = full_database.with_config(full_database.config)
    shifted_database = shifted_database.with_config(shifted_database.config)
    train_queries = split.train_queries(workload)
    test_queries = split.test_queries(workload)

    # --- Bao-Full: trained and evaluated on the full database. -----------------
    full_runner = ExperimentRunner(full_database, workload, experiment_config=experiment_config)
    full_result = full_runner.run_method("bao", split)
    full_result.method = "bao-full"

    # --- Bao-50: trained on IMDB-50%, evaluated on the full database. -----------
    shifted_env = LQOEnvironment(
        shifted_database,
        training_runs_per_plan=experiment_config.training_runs_per_plan,
        evaluation_runs_per_plan=experiment_config.executions_per_query,
        seed=experiment_config.seed,
    )
    shifted_bao = BaoOptimizer(shifted_env, **bao_kwargs)
    shifted_report = shifted_bao.fit(train_queries)

    evaluation_env = full_runner.build_environment()
    shifted_result = MethodRunResult(
        method="bao-50",
        split_name=split.name,
        workload_name=workload.name,
        training_time_s=shifted_report.training_time_s,
        executed_training_plans=shifted_report.executed_plans,
    )
    # The shifted model plans against the *full* database at evaluation time —
    # its encoding only sees the refreshed cardinalities, which is the point.
    shifted_bao.env = evaluation_env
    for query in test_queries:
        shifted_result.timings.append(full_runner._evaluate_query(shifted_bao, evaluation_env, query))

    slowdowns: dict[str, float] = {}
    for timing in shifted_result.timings:
        try:
            reference = full_result.timing_for(timing.query_id)
        except KeyError:
            continue
        slowdowns[timing.query_id] = timing.execution_time_ms / max(
            reference.execution_time_ms, 1e-6
        )

    return CovariateShiftResult(
        split_name=split.name,
        full_model=full_result,
        shifted_model=shifted_result,
        slowdown_factors=slowdowns,
    )
