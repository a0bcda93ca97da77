"""The experiment runner: train and evaluate optimizers under equal conditions.

``ExperimentRunner`` runs one (method, split) cell of the grid behind Figures
4, 5 and 6; :class:`~repro.runtime.parallel.ParallelExperimentRunner`
schedules the cells, stores and resumes them.  A cell

1. builds a fresh :class:`LQOEnvironment` on the shared database,
2. trains the method on the split's training queries (its simulated training
   time is the end-to-end training time of Figure 6),
3. plans every test query, recording the method's simulated inference time
   and the DBMS's planning time, and
4. executes the produced plan under the hot-cache protocol (three executions,
   third one reported), recording timeouts.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from typing import Sequence, Union

from repro import simclock
from repro.config import PostgresConfig
from repro.core.metrics import MethodRunResult, QueryTiming
from repro.core.splits import DatasetSplit
from repro.errors import ExperimentError
from repro.lqo.base import LQOEnvironment
from repro.lqo.registry import create_optimizer
from repro.runtime.fingerprint import stable_hash
from repro.runtime.plan_cache import PlanCache
from repro.storage.database import Database
from repro.storage.registry import resolve_database
from repro.storage.spec import DatabaseSpec
from repro.workloads.workload import BenchmarkQuery, Workload

@dataclass
class ExperimentConfig:
    """Knobs of the experiment runner (sized for simulation-scale runs)."""

    executions_per_query: int = 3
    #: Timeout of evaluation executions; generous enough that only
    #: pathological plans hit it, mirroring the paper's handling of timed-out
    #: queries (e.g. LEON on 26b/32b).
    evaluation_timeout_ms: float = simclock.TIMEOUT_MS
    cold_start_per_query: bool = True
    training_runs_per_plan: int = 1
    optimizer_kwargs: dict[str, dict] = field(default_factory=dict)
    seed: int = 0

    def with_seed(self, seed: int) -> "ExperimentConfig":
        return replace(self, seed=seed)

    def fingerprint(self) -> str:
        """Stable content fingerprint over every experiment knob.

        The ``seed`` is excluded: it identifies the run (and is part of every
        result-store :class:`~repro.runtime.result_store.TaskKey`), not the
        experimental conditions.
        """
        parts = []
        for f in fields(self):
            if f.name == "seed":
                continue
            value = getattr(self, f.name)
            if isinstance(value, dict):
                value = sorted((k, sorted(v.items())) for k, v in value.items())
            parts.append(f"{f.name}={value!r}")
        return stable_hash(";".join(parts))


class ExperimentRunner:
    """Runs one method on one split and collects the paper's timing decomposition."""

    def __init__(
        self,
        database: Union[Database, DatabaseSpec],
        workload: Workload,
        config: PostgresConfig | None = None,
        experiment_config: ExperimentConfig | None = None,
        plan_cache: PlanCache | None = None,
    ) -> None:
        # A DatabaseSpec is accepted everywhere a Database is: it materializes
        # through the per-process registry, so repeated runners over the same
        # recipe share one build.
        database = resolve_database(database)
        if workload.schema.name != database.schema.name:
            raise ExperimentError(
                "workload and database use different schemas "
                f"({workload.schema.name!r} vs {database.schema.name!r})"
            )
        self.database = database
        self.workload = workload
        self.db_config = config or database.config
        self.config = experiment_config or ExperimentConfig()
        #: Optional shared plan cache handed to every environment this runner
        #: builds (hot-cache repetitions and ablations re-plan identical
        #: queries; sharing makes those plans near-free).
        self.plan_cache = plan_cache

    # ------------------------------------------------------------------ plumbing
    def build_environment(self) -> LQOEnvironment:
        """A fresh optimizer environment bound to the shared database."""
        return LQOEnvironment(
            self.database,
            config=self.db_config,
            training_runs_per_plan=self.config.training_runs_per_plan,
            evaluation_runs_per_plan=self.config.executions_per_query,
            seed=self.config.seed,
            plan_cache=self.plan_cache,
        )

    def context_fingerprint(self) -> str:
        """Fingerprint binding stored results to this exact setup.

        The database participates through its spec fingerprint when it has
        one: the name alone ("imdb") is identical at every scale and data
        seed, and a persistent store shared across multi-scale sweeps must
        never serve a small-scale result as a large-scale one.  Spec-less
        (hand-built) databases fall back to the name, as before.
        """
        database_identity = (
            self.database.spec.fingerprint()
            if self.database.spec is not None
            else self.database.name
        )
        return stable_hash(
            "|".join(
                (
                    self.workload.name,
                    self.database.name,
                    database_identity,
                    self.db_config.fingerprint(),
                    self.config.fingerprint(),
                )
            )
        )

    def task_fingerprint(self, split: DatasetSplit) -> str:
        """Context fingerprint extended with the split's *membership*.

        Two splits may share a name while holding different query sets (e.g.
        ``random-0`` generated under different seeds); folding the membership
        digest in keeps stored results from leaking across them.
        """
        return stable_hash(self.context_fingerprint() + "|" + split.fingerprint())

    # ------------------------------------------------------------------ execution
    def run_method(self, method: str, split: DatasetSplit) -> MethodRunResult:
        """Train and evaluate one method on one split."""
        env = self.build_environment()
        kwargs = self.config.optimizer_kwargs.get(method, {})
        optimizer = create_optimizer(method, env, **kwargs)

        train_queries = split.train_queries(self.workload)
        test_queries = split.test_queries(self.workload)

        report = optimizer.fit(train_queries if optimizer.requires_training else [])
        result = MethodRunResult(
            method=method,
            split_name=split.name,
            workload_name=self.workload.name,
            training_time_s=report.training_time_s,
            executed_training_plans=report.executed_plans,
        )

        for query in test_queries:
            result.timings.append(self._evaluate_query(optimizer, env, query))
        return result

    def _evaluate_query(self, optimizer, env: LQOEnvironment, query: BenchmarkQuery) -> QueryTiming:
        planned = optimizer.plan_query(query)
        measured = env.execute_plan(
            query.bound,
            planned.plan,
            runs=self.config.executions_per_query,
            timeout_ms=self.config.evaluation_timeout_ms,
            cold_start=self.config.cold_start_per_query,
        )
        inference_ms = planned.inference_time_ms
        planning_ms = planned.planning_time_ms
        if optimizer.integrates_with_dbms:
            # Methods running inside PostgreSQL (Bao) report their
            # inference as part of the planning time, as the paper notes for
            # Figure 4's left panel.
            planning_ms += inference_ms
            inference_ms = 0.0
        return QueryTiming(
            query_id=query.query_id,
            method=optimizer.name,
            inference_time_ms=inference_ms,
            planning_time_ms=planning_ms,
            execution_time_ms=measured.reported_execution_ms,
            timed_out=measured.timed_out,
            num_joins=query.num_joins,
            metadata=dict(planned.metadata),
        )

    # ------------------------------------------------------------------ baselines
    def run_postgres_only(self, queries: Sequence[BenchmarkQuery] | None = None) -> MethodRunResult:
        """Evaluate the PostgreSQL baseline on an arbitrary query list (no split)."""
        env = self.build_environment()
        optimizer = create_optimizer("postgres", env)
        optimizer.fit([])
        queries = list(queries) if queries is not None else self.workload.queries
        result = MethodRunResult(
            method="postgres",
            split_name="full-workload",
            workload_name=self.workload.name,
        )
        for query in queries:
            result.timings.append(self._evaluate_query(optimizer, env, query))
        return result
