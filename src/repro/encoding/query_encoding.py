"""Query encoding: join-graph adjacency, table presence and filter features.

The encoder produces a fixed-size vector for a bound query given a schema.
Feature layout (sizes depend on the schema):

* table presence counts — one slot per schema table (aliases of the same table
  accumulate),
* join adjacency — upper triangle of the table-level adjacency matrix,
* filter features — per schema column: the estimated combined selectivity of
  the filters on that column (1.0 when unfiltered) and a min-max-scaled
  literal value (RTOS-style explicit filter vectorization, Section 4.1).

Using selectivities *and* scaled literals keeps the encoding closer to a
one-to-one mapping between queries and feature vectors than selectivity-only
encodings, which the paper identifies as an invariance risk.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.catalog.schema import Schema
from repro.errors import EncodingError, StorageError
from repro.optimizer.cardinality import CardinalityEstimator
from repro.sql.binder import BoundQuery
from repro.storage.database import Database


@dataclass
class QueryEncoding:
    """The encoded query plus named slices for inspection and tests."""

    vector: np.ndarray
    table_presence: np.ndarray
    join_adjacency: np.ndarray
    filter_selectivity: np.ndarray
    filter_values: np.ndarray

    @property
    def size(self) -> int:
        return int(self.vector.size)


class QueryEncoder:
    """Encodes bound queries against a fixed schema (and optional statistics)."""

    def __init__(self, database: Database) -> None:
        self._db = database
        self.schema: Schema = database.schema
        self._estimator = CardinalityEstimator(database)
        self._tables = self.schema.table_names()
        self._table_index = {name: i for i, name in enumerate(self._tables)}
        self._n_tables = len(self._tables)
        self._n_columns = self.schema.total_columns
        # Upper-triangle (including diagonal for self-joins) positions.
        self._pair_index: dict[tuple[int, int], int] = {}
        position = 0
        for i in range(self._n_tables):
            for j in range(i, self._n_tables):
                self._pair_index[(i, j)] = position
                position += 1
        self._n_pairs = position

    # -- geometry ---------------------------------------------------------------
    @property
    def encoding_size(self) -> int:
        return self._n_tables + self._n_pairs + 2 * self._n_columns

    # -- encoding ---------------------------------------------------------------
    def encode(self, query: BoundQuery) -> QueryEncoding:
        """Encode a bound query into a fixed-size vector."""
        if query.schema.name != self.schema.name:
            raise EncodingError(
                f"query bound against schema {query.schema.name!r}, encoder built for "
                f"{self.schema.name!r}"
            )
        presence = np.zeros(self._n_tables, dtype=np.float32)
        adjacency = np.zeros(self._n_pairs, dtype=np.float32)
        selectivity = np.ones(self._n_columns, dtype=np.float32)
        values = np.zeros(self._n_columns, dtype=np.float32)

        for relation in query.relations:
            presence[self._table_index[relation.table]] += 1.0

        for join in query.joins:
            left_table = query.table_of(join.left_alias)
            right_table = query.table_of(join.right_alias)
            i = self._table_index[left_table]
            j = self._table_index[right_table]
            key = (min(i, j), max(i, j))
            adjacency[self._pair_index[key]] = 1.0

        for predicate in query.filters:
            table = query.table_of(predicate.alias)
            column_position = self.schema.column_index(table, predicate.column)
            sel = self._estimator.filter_selectivity(query, predicate)
            selectivity[column_position] = min(
                float(selectivity[column_position]) * float(sel), 1.0
            )
            values[column_position] = self._scaled_literal(query, predicate)

        vector = np.concatenate([presence, adjacency, selectivity, values]).astype(np.float32)
        return QueryEncoding(
            vector=vector,
            table_presence=presence,
            join_adjacency=adjacency,
            filter_selectivity=selectivity,
            filter_values=values,
        )

    def encode_vector(self, query: BoundQuery) -> np.ndarray:
        """Shorthand returning only the flat feature vector."""
        return self.encode(query).vector

    # -- helpers -------------------------------------------------------------------
    def _scaled_literal(self, query: BoundQuery, predicate) -> float:
        """Min-max scale the (first) literal of a filter into [0, 1]."""
        if not predicate.values:
            return 0.5
        table = query.table_of(predicate.alias)
        stats = self._db.statistics(table)
        if not stats.has_column(predicate.column):
            return 0.5
        col = stats.column(predicate.column)
        if col.min_value is None or col.max_value is None or col.max_value <= col.min_value:
            return 0.5
        data = self._db.table_data(table)
        try:
            code = float(data.encode(predicate.column, predicate.values[0]))
        except StorageError:  # a literal the column cannot encode: mid-range
            return 0.5
        span = col.max_value - col.min_value
        return float(np.clip((code - col.min_value) / span, 0.0, 1.0))
