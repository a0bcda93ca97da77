"""The :class:`Database` container: schema + data + statistics + buffer pool.

A :class:`Database` is the unit every other subsystem operates on: the
planner reads its statistics, the executor reads its columns and charges its
buffer pool, the covariate-shift experiment derives a down-sampled copy of it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Mapping

import numpy as np

from repro.catalog.schema import Schema
from repro.catalog.statistics import TableStatistics, analyze_table
from repro.config import PostgresConfig, SIMULATION_CONFIG
from repro.errors import CatalogError, StorageError
from repro.storage.buffer_pool import BufferPool
from repro.storage.index import OrderedIndex
from repro.storage.table_data import TableData

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.storage.spec import DatabaseSpec


class Database:
    """A fully materialized simulated database instance."""

    def __init__(
        self,
        schema: Schema,
        tables: Mapping[str, TableData],
        config: PostgresConfig | None = None,
        name: str | None = None,
    ) -> None:
        self.schema = schema
        self.name = name or schema.name
        self.config = config or SIMULATION_CONFIG
        #: The spec this instance was built from, when it came out of a
        #: registered factory (see :mod:`repro.catalog.factories`).  Carrying
        #: it lets the runtime ship the spec instead of the database when
        #: fanning tasks out to worker processes.
        self.spec: "DatabaseSpec | None" = None
        self._tables: dict[str, TableData] = {}
        for tname, data in tables.items():
            if not schema.has_table(tname):
                raise StorageError(f"data provided for unknown table {tname!r}")
            self._tables[tname] = data
        missing = set(schema.table_names()) - set(self._tables)
        if missing:
            raise StorageError(f"missing data for tables: {sorted(missing)}")

        self._indexes: dict[tuple[str, str], OrderedIndex] = {}
        self._statistics: dict[str, TableStatistics] = {}
        self.buffer_pool = BufferPool(self.config.shared_buffer_pages)
        self._build_indexes()
        self.run_analyze()

    # -- construction helpers --------------------------------------------------
    def _build_indexes(self) -> None:
        for tname in self.schema.table_names():
            table = self.schema.table(tname)
            data = self._tables[tname]
            for column in sorted(table.indexed_columns()):
                if data.has_column(column):
                    self._indexes[(tname, column)] = OrderedIndex(
                        tname, column, data.column(column)
                    )

    def run_analyze(self) -> None:
        """Recompute all table statistics (the simulated ``ANALYZE``)."""
        for tname in self.schema.table_names():
            table = self.schema.table(tname)
            data = self._tables[tname]
            self._statistics[tname] = analyze_table(table, data.columns)

    # -- accessors ---------------------------------------------------------------
    def table_data(self, name: str) -> TableData:
        try:
            return self._tables[name]
        except KeyError as exc:
            raise CatalogError(f"database {self.name!r} has no table {name!r}") from exc

    def statistics(self, name: str) -> TableStatistics:
        try:
            return self._statistics[name]
        except KeyError as exc:
            raise CatalogError(f"no statistics for table {name!r}") from exc

    def index(self, table: str, column: str) -> OrderedIndex | None:
        return self._indexes.get((table, column))

    def has_index(self, table: str, column: str) -> bool:
        return (table, column) in self._indexes

    def indexes_of(self, table: str) -> list[OrderedIndex]:
        return [idx for (t, _), idx in self._indexes.items() if t == table]

    def table_names(self) -> list[str]:
        return self.schema.table_names()

    def total_rows(self) -> int:
        return sum(data.row_count for data in self._tables.values())

    # -- configuration & cache management ----------------------------------------
    def with_config(self, config: PostgresConfig) -> "Database":
        """Return a database sharing data but using a different configuration.

        The buffer pool is rebuilt at the new ``shared_buffers`` size; table
        data, indexes and statistics are shared (they are read-only).
        """
        clone = object.__new__(Database)
        clone.schema = self.schema
        clone.name = self.name
        clone.config = config
        clone.spec = self.spec.with_config(config) if self.spec is not None else None
        clone._tables = self._tables
        clone._indexes = self._indexes
        clone._statistics = dict(self._statistics)
        clone.buffer_pool = BufferPool(config.shared_buffer_pages)
        return clone

    def drop_caches(self) -> None:
        """Empty the buffer pool — the framework's "cold cache" reset."""
        self.buffer_pool.invalidate()

    # -- derived databases ---------------------------------------------------------
    def sample_copy(
        self,
        fractions: Mapping[str, float],
        cascade_via_foreign_keys: bool = True,
        seed: int = 0,
        name_suffix: str = "-sampled",
    ) -> "Database":
        """Build a down-sampled copy of this database (e.g. IMDB-50%).

        ``fractions`` maps table names to the Bernoulli keep-fraction of their
        rows.  When ``cascade_via_foreign_keys`` is set, rows of child tables
        whose foreign keys now dangle are removed as well, mimicking
        ``DELETE ... CASCADE`` referential integrity (Section 8.3).
        """
        new_tables: dict[str, TableData] = {}
        kept_keys: dict[str, np.ndarray] = {}

        for tname in self.schema.table_names():
            data = self._tables[tname]
            fraction = fractions.get(tname, 1.0)
            if fraction >= 1.0:
                new_tables[tname] = data
            else:
                new_tables[tname] = data.sample_rows(fraction, seed=seed)
            table = self.schema.table(tname)
            if table.primary_key and new_tables[tname].has_column(table.primary_key):
                kept_keys[tname] = new_tables[tname].column(table.primary_key)

        if cascade_via_foreign_keys:
            changed = True
            passes = 0
            while changed and passes < 5:
                changed = False
                passes += 1
                for fk in self.schema.foreign_keys:
                    parent = fk.parent_table
                    child = fk.child_table
                    if parent not in kept_keys:
                        continue
                    child_data = new_tables[child]
                    if not child_data.has_column(fk.child_column):
                        continue
                    parent_keys = kept_keys[parent]
                    child_col = child_data.column(fk.child_column)
                    keep_mask = np.isin(child_col, parent_keys) | (child_col < 0)
                    if not keep_mask.all():
                        new_tables[child] = child_data.select_rows(np.nonzero(keep_mask)[0])
                        child_table = self.schema.table(child)
                        if child_table.primary_key and new_tables[child].has_column(
                            child_table.primary_key
                        ):
                            kept_keys[child] = new_tables[child].column(
                                child_table.primary_key
                            )
                        changed = True

        return Database(
            schema=self.schema,
            tables=new_tables,
            config=self.config,
            name=self.name + name_suffix,
        )

    def describe(self) -> str:
        """One line per table: rows, pages and index count."""
        lines = [f"database {self.name} ({len(self.schema)} tables)"]
        for tname in self.table_names():
            data = self._tables[tname]
            n_idx = len(self.indexes_of(tname))
            lines.append(
                f"  {tname:<24s} rows={data.row_count:>9d} pages={data.page_count:>7d} indexes={n_idx}"
            )
        return "\n".join(lines)


def build_database(
    schema: Schema,
    tables: Mapping[str, TableData] | Iterable[TableData],
    config: PostgresConfig | None = None,
    name: str | None = None,
) -> Database:
    """Construct a :class:`Database` from a mapping or iterable of table data."""
    if isinstance(tables, Mapping):
        mapping = dict(tables)
    else:
        mapping = {data.table.name: data for data in tables}
    return Database(schema=schema, tables=mapping, config=config, name=name)
