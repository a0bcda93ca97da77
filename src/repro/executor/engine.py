"""The execution engine: evaluates physical plans end to end.

An execution is a **data pass** — walk the plan bottom-up, evaluate every
operator against the columnar storage, apply sort/aggregate decorations, and
keep as an :class:`Evaluation` the output, per-node actual row counts, the
pool-independent work profile and the ordered page accesses — and a **charge**
— replay those accesses through the buffer pool, draw the timing noise, build
the :class:`ExecutionResult`.  ``ExecutionEngine.execute`` is always both;
``ExecutionEngine.runs`` hands the first run's evaluation to the later runs, so
k executions of one plan cost one data pass and k charges (docs/EXECUTOR.md).

There is one plan walk and one operator set (:mod:`repro.executor.operators`)
for both engines; an engine is this class plus a ``batch_type`` — the
intermediate-result representation its scans produce.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.catalog.statistics import NULL_SENTINEL
from repro.config import PostgresConfig
from repro.errors import ExecutionError, ExperimentError
from repro.executor.operators import (
    OperatorMetrics,
    PageAccess,
    Relation,
    execute_index_nestloop,
    execute_join,
    execute_outer_join,
    execute_scan,
    index_nestloop_inner,
)
from repro.executor.timing import TimingModel
from repro.plans.physical import (
    AggregateNode,
    JoinKind,
    JoinNode,
    PlanNode,
    ScanNode,
    SortNode,
    validate_plan,
)
from repro.sql.binder import BoundQuery
from repro.storage.database import Database

if TYPE_CHECKING:
    from repro.executor.operators import Batch


@dataclass(eq=False)
class Evaluation:
    """What one data pass over a plan computed: all that its runs have in common.

    Finalized output only, never a batch.  ``metrics`` lacks the pool-dependent
    counters; ``accesses`` is what a run replays, in plan-walk order, to obtain
    them (both stop at the operator that raised, if one did).  A local of one
    repeat loop: nothing stores, pickles or looks one up.
    """

    engine: "ExecutionEngine"
    query: BoundQuery
    plan: PlanNode
    rows: list[tuple] = field(default_factory=list)
    metrics: OperatorMetrics = field(default_factory=OperatorMetrics)
    node_actual_rows: dict[int, int] = field(default_factory=dict)
    accesses: list[PageAccess] = field(default_factory=list)
    error: str | None = None


@dataclass
class ExecutionResult:
    """Outcome of executing one physical plan."""

    rows: list[tuple]
    row_count: int
    execution_time_ms: float
    metrics: OperatorMetrics
    node_actual_rows: dict[int, int] = field(default_factory=dict)
    timed_out: bool = False
    error: str | None = None
    #: The data pass this run charged; hand it to ``execute`` to run again.
    evaluation: Evaluation | None = field(default=None, repr=False, compare=False)

    @property
    def succeeded(self) -> bool:
        """Whether the execution completed without error or timeout."""
        return self.error is None and not self.timed_out


class ExecutionEngine:
    """Evaluates physical plans against a :class:`Database`.

    This is the *row* engine: intermediate results are
    :class:`~repro.executor.operators.Relation` objects, materializing one
    row-id array per base-table alias at every operator.  It is deliberately
    kept simple — it is the reference the differential suites compare the
    optimized :class:`~repro.executor.columnar.ColumnarExecutionEngine`
    against.  A subclass swaps the representation by setting ``batch_type``
    and nothing else: the plan walk, the operators and their charges, timing,
    timeout handling, sort/aggregate/projection finalization and EXPLAIN row
    accounting are all shared.
    """

    #: Engine-kind name reported by :func:`create_engine` round-trips.
    kind = "row"
    #: Intermediate-result representation the scans of this engine produce.
    batch_type: type[Batch] = Relation

    def __init__(
        self,
        database: Database,
        config: PostgresConfig | None = None,
        timing_model: TimingModel | None = None,
    ) -> None:
        self.database = database
        self.config = config or database.config
        self.timing = timing_model or TimingModel(self.config)

    # --------------------------------------------------------------------- public
    def execute(
        self,
        query: BoundQuery,
        plan: PlanNode,
        timeout_ms: float | None = None,
        evaluation: Evaluation | None = None,
    ) -> ExecutionResult:
        """Execute ``plan`` for ``query``: one data pass (unless handed one) and one charge.

        ``timeout_ms`` overrides the configured ``statement_timeout_ms``.  A
        simulated time above the timeout marks the result as timed out (with
        the execution time clamped to the timeout), matching how the
        benchmarking framework treats cancelled statements.  A ``plan`` that
        does not cover exactly the query's relations raises
        :class:`~repro.errors.PlanError`.  ``evaluation`` is
        the ``result.evaluation`` of an earlier run of this very ``plan`` and
        ``query`` on this engine; the run then only charges.
        """
        if evaluation is None:
            # A plan over other relations would run and return some other
            # query's rows: refuse it here, outside the ``try`` — it is a
            # caller's defect, not a pathological plan to report as a timeout.
            validate_plan(plan, query.aliases)
            evaluation = Evaluation(self, query, plan)
            try:
                relation = self._evaluate(query, plan, evaluation)
                evaluation.rows = self._finalize(query, plan, relation)
            except ExecutionError as exc:
                # Pathological plans (e.g. giant cross products) abort; the
                # framework reports them like statement timeouts.
                evaluation.error = str(exc)
        elif evaluation.engine is not self or evaluation.query is not query or evaluation.plan is not plan:
            raise ExecutionError("evaluation belongs to another engine, query or plan")
        return self._charge(evaluation, timeout_ms)

    def runs(
        self, query: BoundQuery, plan: PlanNode, count: int, timeout_ms: float | None = None
    ) -> Iterator[ExecutionResult]:
        """``count`` successive executions of one plan, sharing one data pass.

        The one repeat loop of the measurement protocols; a caller that stops
        at a timeout breaks out of the iteration.
        """
        if count < 1:
            raise ExperimentError(f"a plan is executed at least once, not {count} times")
        return self._successive(query, plan, count, timeout_ms)

    def _successive(self, query, plan, count, timeout_ms) -> Iterator[ExecutionResult]:
        evaluation = None
        for _ in range(count):
            result = self.execute(query, plan, timeout_ms, evaluation)
            evaluation = result.evaluation
            yield result

    def _charge(self, evaluation: Evaluation, timeout_ms: float | None) -> ExecutionResult:
        """One run: replay the accesses in recorded order (the pool is an LRU), then time it.
        An aborted evaluation draws no noise; every other run draws one normal, after charging."""
        timeout = timeout_ms if timeout_ms is not None else self.config.statement_timeout_ms
        metrics = evaluation.metrics.copy()
        access_pages = self.database.buffer_pool.access_pages
        for relation, n_pages, sequential in evaluation.accesses:
            access = access_pages(relation, n_pages, sequential=sequential)
            metrics.pages_hit += access.hits
            if sequential:
                metrics.seq_pages_read += access.misses
            else:
                metrics.random_pages_read += access.misses
        if evaluation.error is not None:
            execution_time, timed_out = (float(timeout) if timeout and timeout > 0 else 60_000.0), True
        else:
            execution_time = self.timing.execution_time_ms(metrics)
            timed_out = bool(timeout and timeout > 0 and execution_time > timeout)
            if timed_out:
                execution_time = float(timeout)
        return ExecutionResult(
            rows=list(evaluation.rows),
            row_count=len(evaluation.rows),
            execution_time_ms=execution_time,
            metrics=metrics,
            node_actual_rows=dict(evaluation.node_actual_rows),
            timed_out=timed_out,
            error=evaluation.error,
            evaluation=evaluation,
        )

    # ------------------------------------------------------------------ recursion
    def _evaluate(self, query: BoundQuery, node: PlanNode, evaluation: Evaluation) -> Batch:
        total_metrics, node_rows = evaluation.metrics, evaluation.node_actual_rows
        if isinstance(node, ScanNode):
            relation, metrics, access = execute_scan(self.database, node, self.batch_type)
            if access is not None:
                evaluation.accesses.append(access)
            total_metrics.merge(metrics)
            node_rows[id(node)] = relation.size
            return relation
        if isinstance(node, JoinNode):
            assert node.left is not None and node.right is not None
            left = self._evaluate(query, node.left, evaluation)
            inner = index_nestloop_inner(self.database, node)
            if inner is not None:
                # Parameterized inner index scan: the inner relation is probed
                # per outer tuple instead of being materialized.
                relation, metrics, access = execute_index_nestloop(self.database, query, node, left, inner)
                evaluation.accesses.append(access)
                node_rows[id(node.right)] = relation.size
            else:
                right = self._evaluate(query, node.right, evaluation)
                join = execute_join if node.join_kind is JoinKind.INNER else execute_outer_join
                relation, metrics = join(self.database, query, node, left, right, self.config.work_mem)
            total_metrics.merge(metrics)
            node_rows[id(node)] = relation.size
            return relation
        if isinstance(node, SortNode):
            assert node.child is not None
            relation = self._evaluate(query, node.child, evaluation)
            relation = self._sort_relation(query, relation, node)
            total_metrics.sort_rows += relation.size
            node_rows[id(node)] = relation.size
            return relation
        if isinstance(node, AggregateNode):
            assert node.child is not None
            relation = self._evaluate(query, node.child, evaluation)
            total_metrics.cpu_ops += relation.size
            node_rows[id(node)] = relation.size
            return relation
        raise ExecutionError(f"cannot execute node type {type(node).__name__}")

    def _sort_relation(self, query: BoundQuery, relation: Batch, node: SortNode) -> Batch:
        """Order ``relation`` by the node's sort keys (stable lexsort)."""
        if relation.size == 0 or not node.sort_keys:
            return relation
        keys = []
        for alias, column in reversed(node.sort_keys):
            if alias in relation.aliases:
                keys.append(relation.fetch(self.database, query, alias, column))
        if not keys:
            return relation
        order = np.lexsort(tuple(keys))
        return relation.select(order)

    # -------------------------------------------------------------------- results
    def _finalize(self, query: BoundQuery, plan: PlanNode, relation: Batch) -> list[tuple]:
        """Compute the SELECT-list output from the final relation."""
        statement = query.statement
        if statement is None:
            return [(relation.size,)]

        has_aggregate = any(item.function for item in statement.select_items)
        if not has_aggregate:
            return self._project_rows(query, relation, statement)

        if statement.group_by:
            return self._grouped_aggregates(query, relation, statement)

        row = []
        for item in statement.select_items:
            row.append(self._scalar_aggregate(query, relation, item))
        return [tuple(row)]

    def _scalar_aggregate(self, query: BoundQuery, relation: Batch, item) -> object:
        """Evaluate one aggregate select-item over the whole relation."""
        if item.function == "count" and item.column is None:
            return relation.size
        if item.column is None:
            return relation.size
        alias = item.column.alias or query.aliases[0]
        if alias not in relation.aliases or relation.size == 0:
            return None
        values = relation.fetch(self.database, query, alias, item.column.column)
        values = values[values != NULL_SENTINEL]
        if values.size == 0:
            return None
        data = self.database.table_data(query.table_of(alias))
        if item.function == "count":
            return int(values.size)
        if item.function == "sum":
            return int(values.sum())
        if item.function == "avg":
            return float(values.mean())
        if item.function == "min":
            return data.decode(item.column.column, int(values.min()))
        if item.function == "max":
            return data.decode(item.column.column, int(values.max()))
        raise ExecutionError(f"unsupported aggregate {item.function!r}")

    def _grouped_aggregates(self, query: BoundQuery, relation: Batch, statement) -> list[tuple]:
        """Evaluate GROUP BY output: one row per distinct group-key combination."""
        if relation.size == 0:
            return []
        group_columns = []
        for col in statement.group_by:
            alias = col.alias or query.aliases[0]
            group_columns.append(relation.fetch(self.database, query, alias, col.column))
        stacked = np.stack(group_columns, axis=1)
        _, inverse = np.unique(stacked, axis=0, return_inverse=True)
        rows = []
        for group_index in np.unique(inverse):
            positions = np.nonzero(inverse == group_index)[0]
            sub_relation = relation.select(positions)
            key = []
            for col, values in zip(statement.group_by, group_columns):
                alias = col.alias or query.aliases[0]
                data = self.database.table_data(query.table_of(alias))
                key.append(data.decode(col.column, int(values[positions[0]])))
            aggregates = [
                self._scalar_aggregate(query, sub_relation, item)
                for item in statement.select_items
                if item.function
            ]
            rows.append(tuple(key) + tuple(aggregates))
        return rows

    def _project_rows(self, query: BoundQuery, relation: Batch, statement) -> list[tuple]:
        """Decode the SELECT list for a plain (non-aggregate) projection."""
        limit = statement.limit if statement.limit is not None else min(relation.size, 1000)
        size = min(relation.size, limit)
        if size == 0:
            return []
        columns = []
        for item in statement.select_items:
            if item.column is None:
                columns.append([None] * size)
                continue
            alias = item.column.alias or query.aliases[0]
            data = self.database.table_data(query.table_of(alias))
            values = relation.fetch(self.database, query, alias, item.column.column)[:size]
            columns.append(data.decode_many(item.column.column, values))
        return [tuple(col[i] for col in columns) for i in range(size)]


def create_engine(
    database: Database,
    config: PostgresConfig | None = None,
    kind: str = "columnar",
    timing_model: TimingModel | None = None,
) -> ExecutionEngine:
    """Build an execution engine of the requested ``kind``.

    ``kind`` must be one of :data:`repro.config.ENGINE_KINDS`:

    * ``"columnar"`` (default) — the batch engine with late materialization;
      see :mod:`repro.executor.columnar`.
    * ``"row"`` — the straightforward per-operator row-id engine, kept as the
      correctness oracle.

    Both engines produce byte-identical results, cardinalities and simulated
    timings for every plan; they differ only in wall-clock speed.
    """
    from repro.config import ENGINE_KINDS

    if kind not in ENGINE_KINDS:
        raise ExecutionError(
            f"unknown engine kind {kind!r}; expected one of {ENGINE_KINDS}"
        )
    if kind == "row":
        return ExecutionEngine(database, config, timing_model)
    from repro.executor.columnar import ColumnarExecutionEngine

    return ColumnarExecutionEngine(database, config, timing_model)
