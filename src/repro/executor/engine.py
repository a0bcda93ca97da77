"""The execution engine: evaluates physical plans end to end.

``ExecutionEngine.execute`` walks a plan bottom-up, evaluates every operator
against the columnar storage (charging the buffer pool on the way), applies
sort/aggregate decorations and returns an :class:`ExecutionResult` holding the
query output, per-node actual row counts, the accumulated work profile and the
simulated execution time.

There is one plan walk and one operator set (:mod:`repro.executor.operators`)
for both engines; an engine is this class plus a ``batch_type`` — the
intermediate-result representation its scans produce.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.catalog.statistics import NULL_SENTINEL
from repro.config import PostgresConfig
from repro.errors import ExecutionError
from repro.executor.operators import (
    OperatorMetrics,
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
)
from repro.sql.binder import BoundQuery
from repro.storage.database import Database

if TYPE_CHECKING:
    from repro.executor.operators import Batch


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
    ) -> ExecutionResult:
        """Execute ``plan`` for ``query``.

        ``timeout_ms`` overrides the configured ``statement_timeout_ms``.  A
        simulated time above the timeout marks the result as timed out (with
        the execution time clamped to the timeout), matching how the
        benchmarking framework treats cancelled statements.
        """
        effective_timeout = (
            timeout_ms if timeout_ms is not None else self.config.statement_timeout_ms
        )
        total_metrics = OperatorMetrics()
        node_rows: dict[int, int] = {}
        try:
            relation = self._evaluate(query, plan, total_metrics, node_rows)
            rows = self._finalize(query, plan, relation)
        except ExecutionError as exc:
            # Pathological plans (e.g. giant cross products) abort; the
            # framework reports them like statement timeouts.
            elapsed = effective_timeout if effective_timeout and effective_timeout > 0 else 60_000.0
            return ExecutionResult(
                rows=[],
                row_count=0,
                execution_time_ms=float(elapsed),
                metrics=total_metrics,
                node_actual_rows=node_rows,
                timed_out=True,
                error=str(exc),
            )

        execution_time = self.timing.execution_time_ms(total_metrics)
        timed_out = bool(effective_timeout and effective_timeout > 0 and execution_time > effective_timeout)
        if timed_out:
            execution_time = float(effective_timeout)
        return ExecutionResult(
            rows=rows,
            row_count=len(rows),
            execution_time_ms=execution_time,
            metrics=total_metrics,
            node_actual_rows=node_rows,
            timed_out=timed_out,
        )

    # ------------------------------------------------------------------ recursion
    def _evaluate(
        self,
        query: BoundQuery,
        node: PlanNode,
        total_metrics: OperatorMetrics,
        node_rows: dict[int, int],
    ) -> Batch:
        if isinstance(node, ScanNode):
            relation, metrics = execute_scan(self.database, node, self.batch_type)
            total_metrics.merge(metrics)
            node_rows[id(node)] = relation.size
            return relation
        if isinstance(node, JoinNode):
            assert node.left is not None and node.right is not None
            left = self._evaluate(query, node.left, total_metrics, node_rows)
            inner = index_nestloop_inner(self.database, node)
            if inner is not None:
                # Parameterized inner index scan: the inner relation is probed
                # per outer tuple instead of being materialized.
                relation, metrics = execute_index_nestloop(self.database, query, node, left, inner)
                node_rows[id(node.right)] = relation.size
            else:
                right = self._evaluate(query, node.right, total_metrics, node_rows)
                join = execute_join if node.join_kind is JoinKind.INNER else execute_outer_join
                relation, metrics = join(self.database, query, node, left, right, self.config.work_mem)
            total_metrics.merge(metrics)
            node_rows[id(node)] = relation.size
            return relation
        if isinstance(node, SortNode):
            assert node.child is not None
            relation = self._evaluate(query, node.child, total_metrics, node_rows)
            relation = self._sort_relation(query, relation, node)
            total_metrics.sort_rows += relation.size
            node_rows[id(node)] = relation.size
            return relation
        if isinstance(node, AggregateNode):
            assert node.child is not None
            relation = self._evaluate(query, node.child, total_metrics, node_rows)
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
