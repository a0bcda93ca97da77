"""Common infrastructure for learned query optimizers.

:class:`LQOEnvironment` bundles everything an optimizer needs to interact with
the simulated DBMS — planner, execution engine, encoders, the measurement
protocol — so that every method trains and is evaluated under identical
conditions (the paper's core requirement for its end-to-end benchmarking
framework).  Its inference and training times come from :mod:`repro.simclock`.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro import simclock
from repro.config import PostgresConfig
from repro.encoding.plan_encoding import PlanTreeEncoder
from repro.encoding.query_encoding import QueryEncoder
from repro.ml.tree_models import TreeConvolutionEncoder
from repro.optimizer.cost_model import PlanningContext
from repro.optimizer.planner import Planner, PlannerResult
from repro.plans.hints import NO_HINTS, HintSet
from repro.plans.physical import PlanNode
from repro.runtime.plan_cache import PlanCache
from repro.sql.binder import BoundQuery
from repro.storage.database import Database
from repro.workloads.workload import BenchmarkQuery

if TYPE_CHECKING:
    from repro.core.execution_protocol import MeasuredQuery


@dataclass
class PlannedQuery:
    """The outcome of asking an optimizer to plan one query."""

    query_id: str
    plan: PlanNode
    inference_time_ms: float
    planning_time_ms: float
    method: str
    metadata: dict = field(default_factory=dict)


@dataclass
class TrainingReport:
    """End-to-end training accounting for one optimizer (Figure 6)."""

    method: str
    training_time_s: float
    executed_plans: int
    iterations: int
    notes: str = ""


class LQOEnvironment:
    """Shared DBMS access layer for every optimizer."""

    def __init__(
        self,
        database: Database,
        config: PostgresConfig | None = None,
        training_runs_per_plan: int = 1,
        evaluation_runs_per_plan: int = 3,
        hidden_size: int = 48,
        seed: int = 0,
        plan_cache: PlanCache | None = None,
    ) -> None:
        # Imported here: the repro.core package imports the experiment runner,
        # which builds on this module.
        from repro.core.execution_protocol import ExecutionProtocol

        self.database = database
        self.config = config or database.config
        self.planner = Planner(database, self.config, plan_cache=plan_cache)
        #: The one measurement loop, over this planner and the columnar
        #: engine.  Caches are dropped before a measurement only when its
        #: caller asks.
        self.protocol = ExecutionProtocol(
            database,
            planner=self.planner,
            executions_per_query=evaluation_runs_per_plan,
            cold_start=False,
        )
        self.engine = self.protocol.engine
        self.query_encoder = QueryEncoder(database)
        self.plan_encoder = PlanTreeEncoder(database.schema)
        #: The plan encoder behind :meth:`plan_vector`; a search composes each
        #: join from the states of the subplans it already holds through it.
        self.tree_conv = TreeConvolutionEncoder(self.plan_encoder, hidden_size=hidden_size, seed=seed + 17)
        self.training_runs_per_plan = training_runs_per_plan
        self.seed = seed
        #: Count of plans executed against the DBMS (training-data accounting).
        self.executed_plan_count = 0

    # ------------------------------------------------------------------- planning
    def plan_with_hints(
        self, query: BoundQuery, hints: HintSet = NO_HINTS, context: PlanningContext | None = None
    ) -> PlannerResult:
        """Plan a query through the simulated DBMS planner (optionally hinted).

        ``context`` is the caller's planning context for ``query`` when it
        plans it many times: one context serves any hint sets.
        """
        return self.planner.plan_with_info(query, hints, context=context)

    # ------------------------------------------------------------------ execution
    def execute_plan(
        self,
        query: BoundQuery,
        plan: PlanNode,
        runs: int | None = None,
        timeout_ms: float | None = None,
        cold_start: bool = False,
    ) -> MeasuredQuery:
        """Measure a plan through :attr:`protocol`, counting every run in
        :attr:`executed_plan_count` (``runs=None``: the evaluation default).

        ``cold_start`` drops the buffer pool before the first run; later runs
        re-use the warmed caches, so the last run is the hot-cache
        measurement the paper reports.
        """
        measured = self.protocol.measure_plan(
            query, plan, executions=runs, timeout_ms=timeout_ms, cold_start=cold_start
        )
        self.executed_plan_count += len(measured.execution_times_ms)
        return measured

    def training_latency(
        self,
        query: BoundQuery,
        plan: PlanNode,
        timeout_ms: float | None = None,
    ) -> tuple[float, bool]:
        """Latency used as a training target (single run, as most LQOs do)."""
        measured = self.execute_plan(
            query, plan, runs=self.training_runs_per_plan, timeout_ms=timeout_ms
        )
        return measured.reported_execution_ms, measured.timed_out

    # ------------------------------------------------------------------ featurization
    def query_vector(self, query: BoundQuery) -> np.ndarray:
        return self.query_encoder.encode_vector(query).astype(np.float64)

    def plan_vector(self, plan: PlanNode) -> np.ndarray:
        return self.tree_conv.encode_plan(plan)

    def query_plan_vector(self, query: BoundQuery, plan: PlanNode) -> np.ndarray:
        return np.concatenate([self.query_vector(query), self.plan_vector(plan)])

    @property
    def query_plan_vector_size(self) -> int:
        return self.query_encoder.encoding_size + self.tree_conv.output_size

    @property
    def plan_vector_size(self) -> int:
        return self.tree_conv.output_size


class BaseOptimizer(abc.ABC):
    """Contract every (learned) optimizer implements."""

    #: Short machine name (also the registry key).
    name: str = "base"
    #: Whether the method needs a training phase at all.
    requires_training: bool = True
    #: Whether the method runs inside the DBMS (its inference time is reported
    #: as part of the planning time, as Bao's is in Figure 4).
    integrates_with_dbms: bool = False

    def __init__(self, env: LQOEnvironment) -> None:
        self.env = env
        self.training_report: TrainingReport | None = None

    # -- training ---------------------------------------------------------------
    @abc.abstractmethod
    def fit(self, train_queries: list[BenchmarkQuery]) -> TrainingReport:
        """Train on the given queries and return the end-to-end training report."""

    # -- inference ---------------------------------------------------------------
    @abc.abstractmethod
    def plan_query(self, query: BenchmarkQuery) -> PlannedQuery:
        """Produce the plan this method would execute for ``query``."""

    # -- helpers shared by implementations --------------------------------------------
    def _timed_fit(self, body, train_queries: list[BenchmarkQuery]) -> TrainingReport:
        """Run a training body; its time is simulated from the plans it executed."""
        start_plans = self.env.executed_plan_count
        iterations = int(body(train_queries) or 0)
        executed = self.env.executed_plan_count - start_plans
        report = TrainingReport(
            method=self.name,
            training_time_s=simclock.training_s(executed, len(train_queries), iterations),
            executed_plans=executed,
            iterations=iterations,
        )
        self.training_report = report
        return report

    def _timed_inference(self, body, query: BenchmarkQuery) -> PlannedQuery:
        """Run an inference body; its time is simulated from the query's size."""
        plan, planning_time_ms, metadata = body(query)
        return PlannedQuery(
            query_id=query.query_id,
            plan=plan,
            inference_time_ms=simclock.inference_ms(query.bound, self.name),
            planning_time_ms=planning_time_ms,
            method=self.name,
            metadata=metadata,
        )
