"""Cardinality estimation from ANALYZE statistics.

The estimator mirrors PostgreSQL's approach:

* filter selectivities from per-column MCVs and histograms,
* conjunctions combined under the **independence assumption**,
* equi-join selectivity ``1 / max(ndv(left), ndv(right))``,
* multi-way join sizes composed predicate by predicate.

The independence assumption is deliberately kept: its estimation errors on
skewed, correlated data are what make JOB hard and are the backdrop for the
whole LQO discussion in the paper.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from repro.catalog.statistics import ColumnStatistics, NULL_SENTINEL
from repro.errors import OptimizerError
from repro.sql.binder import BoundQuery, FilterPredicate, JoinPredicate
from repro.storage.database import Database

#: Default selectivity used when statistics give no usable signal.
DEFAULT_EQ_SELECTIVITY = 0.005
DEFAULT_RANGE_SELECTIVITY = 1.0 / 3.0
DEFAULT_LIKE_SELECTIVITY = 0.05
MIN_ROWS = 1.0


class CardinalityEstimator:
    """Estimates base-relation and join cardinalities for bound queries."""

    def __init__(self, database: Database) -> None:
        self._db = database

    # ------------------------------------------------------------------ helpers
    def _stats_for(self, query: BoundQuery, alias: str, column: str) -> ColumnStatistics | None:
        table = query.table_of(alias)
        stats = self._db.statistics(table)
        if stats.has_column(column):
            return stats.column(column)
        return None

    def _encode_literal(self, query: BoundQuery, alias: str, column: str, value: object) -> int:
        table = query.table_of(alias)
        return self._db.table_data(table).encode(column, value)

    # ------------------------------------------------------------ filter selectivity
    def filter_selectivity(self, query: BoundQuery, predicate: FilterPredicate) -> float:
        """Selectivity of a single filter predicate in [0, 1]."""
        stats = self._stats_for(query, predicate.alias, predicate.column)
        if stats is None or stats.row_count == 0:
            return self._fallback_selectivity(predicate)

        op = predicate.op
        if op in ("=", "!="):
            code = self._encode_literal(query, predicate.alias, predicate.column, predicate.value)
            sel = stats.equality_selectivity(float(code))
            return min(max(1.0 - sel, 0.0), 1.0) if op == "!=" else sel
        if op in ("<", "<=", ">", ">="):
            code = self._encode_literal(query, predicate.alias, predicate.column, predicate.value)
            return stats.range_selectivity(op, float(code))
        if op == "between":
            low = self._encode_literal(query, predicate.alias, predicate.column, predicate.values[0])
            high = self._encode_literal(query, predicate.alias, predicate.column, predicate.values[1])
            sel = stats.range_selectivity("<=", float(high)) - stats.range_selectivity(
                "<", float(low)
            )
            return min(max(sel, 0.0), 1.0)
        if op in ("in", "not_in"):
            total = 0.0
            for value in predicate.values:
                code = self._encode_literal(query, predicate.alias, predicate.column, value)
                total += stats.equality_selectivity(float(code))
            total = min(total, 1.0)
            return 1.0 - total if op == "not_in" else total
        if op in ("like", "not_like"):
            sel = self._like_selectivity(query, predicate)
            return 1.0 - sel if op == "not_like" else sel
        if op == "is_null":
            return stats.null_frac
        if op == "is_not_null":
            return 1.0 - stats.null_frac
        raise OptimizerError(f"unsupported filter operator {op!r}")

    def _like_selectivity(self, query: BoundQuery, predicate: FilterPredicate) -> float:
        """Selectivity of a LIKE filter using the text dictionary when available."""
        table = query.table_of(predicate.alias)
        data = self._db.table_data(table)
        stats = self._stats_for(query, predicate.alias, predicate.column)
        pattern = str(predicate.value)
        codes = data.codes_matching_pattern(predicate.column, pattern)
        if codes.size == 0:
            return DEFAULT_LIKE_SELECTIVITY if stats is None else min(
                DEFAULT_LIKE_SELECTIVITY, 1.0
            )
        if stats is None or stats.n_distinct == 0:
            return DEFAULT_LIKE_SELECTIVITY
        # Sum equality selectivities of every matching dictionary entry;
        # this matches how PostgreSQL expands low-cardinality LIKE filters.
        total = 0.0
        for code in codes[:64]:
            total += stats.equality_selectivity(float(code))
        if codes.size > 64:
            total *= codes.size / 64.0
        return min(max(total, 0.0), 1.0)

    @staticmethod
    def _fallback_selectivity(predicate: FilterPredicate) -> float:
        if predicate.op in ("=",):
            return DEFAULT_EQ_SELECTIVITY
        if predicate.op in ("!=", "is_not_null"):
            return 1.0 - DEFAULT_EQ_SELECTIVITY
        if predicate.op in ("in", "not_in"):
            sel = min(DEFAULT_EQ_SELECTIVITY * max(len(predicate.values), 1), 1.0)
            return 1.0 - sel if predicate.op == "not_in" else sel
        if predicate.op in ("like", "not_like"):
            return DEFAULT_LIKE_SELECTIVITY
        if predicate.op == "is_null":
            return DEFAULT_EQ_SELECTIVITY
        return DEFAULT_RANGE_SELECTIVITY

    # --------------------------------------------------------------- base relations
    def table_rows(self, query: BoundQuery, alias: str) -> float:
        """Unfiltered row count of the relation behind ``alias``."""
        return float(self._db.statistics(query.table_of(alias)).row_count)

    def base_selectivity(self, query: BoundQuery, alias: str) -> float:
        """Combined selectivity of all filters on one alias (independence)."""
        selectivity = 1.0
        for predicate in query.filters_for(alias):
            selectivity *= self.filter_selectivity(query, predicate)
        return min(max(selectivity, 0.0), 1.0)

    def base_rows(self, query: BoundQuery, alias: str) -> float:
        """Estimated rows of ``alias`` after applying its filters."""
        rows = self.table_rows(query, alias) * self.base_selectivity(query, alias)
        return max(rows, MIN_ROWS)

    # -------------------------------------------------------------------- joins
    def join_selectivity(self, query: BoundQuery, predicate: JoinPredicate) -> float:
        """Equi-join selectivity ``1 / max(ndv_left, ndv_right)``."""
        left = self._stats_for(query, predicate.left_alias, predicate.left_column)
        right = self._stats_for(query, predicate.right_alias, predicate.right_column)
        ndv_left = left.n_distinct if left is not None else 0
        ndv_right = right.n_distinct if right is not None else 0
        ndv = max(ndv_left, ndv_right, 1)
        return 1.0 / float(ndv)

    def join_rows(
        self,
        query: BoundQuery,
        left_rows: float,
        right_rows: float,
        predicates: Iterable[JoinPredicate],
        selectivities: dict[JoinPredicate, float] | None = None,
    ) -> float:
        """Estimated output rows of joining two inputs over ``predicates``.

        ``selectivities`` memoises :meth:`join_selectivity` per predicate; it
        must not outlive the planning call that owns it (statistics change).
        """
        if selectivities is None:
            selectivities = {}
        rows = max(left_rows, MIN_ROWS) * max(right_rows, MIN_ROWS)
        for predicate in predicates:
            selectivity = selectivities.get(predicate)
            if selectivity is None:
                selectivity = selectivities[predicate] = self.join_selectivity(query, predicate)
            rows *= selectivity
        return max(rows, MIN_ROWS)

    @staticmethod
    def outer_join_rows(join_kind: str, left_rows: float, right_rows: float, inner: float) -> float:
        """Estimated output rows of a LEFT or FULL outer join.

        The inner-match estimate ``inner`` (:meth:`join_rows`) is extended by
        the unmatched probe rows (both sides for FULL), mirroring PostgreSQL's
        calc_joinrel_size lower bounds: a LEFT join emits at least
        ``left_rows`` rows.
        """
        rows = inner + max(left_rows - inner, 0.0)
        if join_kind == "full":
            rows += max(right_rows - inner, 0.0)
        return max(rows, MIN_ROWS)

    # ------------------------------------------------------------------- truth
    def true_base_rows(self, query: BoundQuery, alias: str) -> int:
        """Exact filtered cardinality of a base relation (used by ablations).

        Unlike :meth:`base_rows` this evaluates the filters against the actual
        data, so it is exact but considerably more expensive.
        """
        table = query.table_of(alias)
        data = self._db.table_data(table)
        if data.row_count == 0:
            return 0
        mask = np.ones(data.row_count, dtype=bool)
        for predicate in query.filters_for(alias):
            mask &= evaluate_filter_mask(data, predicate)
        return int(mask.sum())

    def estimation_error(self, query: BoundQuery, alias: str) -> float:
        """Q-error of the base-relation estimate (max of over/under-estimation)."""
        estimated = self.base_rows(query, alias)
        true = max(self.true_base_rows(query, alias), 1)
        return max(estimated / true, true / estimated)


def evaluate_filter_mask(
    data, predicate: FilterPredicate, column: np.ndarray | None = None
) -> np.ndarray:
    """Boolean mask of rows satisfying one filter (shared with the executor).

    ``column`` defaults to the full stored column; the columnar executor
    passes an already-gathered slice instead (``data.gather(name, rows)``) so
    that a filter over a small intermediate result never rescans the whole
    table.  The mask semantics are identical either way: for any row subset
    ``rows``, ``mask(column[rows]) == mask(column)[rows]``.
    """
    if column is None:
        column = data.column(predicate.column)
    op = predicate.op
    if op in ("=", "!=", "<", "<=", ">", ">="):
        code = data.encode(predicate.column, predicate.value)
        not_null = column != NULL_SENTINEL
        if op == "=":
            return (column == code) & not_null
        if op == "!=":
            return (column != code) & not_null
        if op == "<":
            return (column < code) & not_null
        if op == "<=":
            return (column <= code) & not_null
        if op == ">":
            return (column > code) & not_null
        return (column >= code) & not_null
    if op == "between":
        low = data.encode(predicate.column, predicate.values[0])
        high = data.encode(predicate.column, predicate.values[1])
        return (column >= low) & (column <= high) & (column != NULL_SENTINEL)
    if op in ("in", "not_in"):
        codes = np.asarray(
            [data.encode(predicate.column, v) for v in predicate.values], dtype=np.int64
        )
        mask = np.isin(column, codes) & (column != NULL_SENTINEL)
        return ~mask & (column != NULL_SENTINEL) if op == "not_in" else mask
    if op in ("like", "not_like"):
        codes = data.codes_matching_pattern(predicate.column, str(predicate.value))
        mask = np.isin(column, codes) & (column != NULL_SENTINEL)
        return ~mask & (column != NULL_SENTINEL) if op == "not_like" else mask
    if op == "is_null":
        return column == NULL_SENTINEL
    if op == "is_not_null":
        return column != NULL_SENTINEL
    raise OptimizerError(f"unsupported filter operator {op!r}")
