"""Schema, statistics and synthetic data generation for the benchmark databases.

The catalog package models what PostgreSQL keeps in ``pg_class`` /
``pg_statistic``: table and column definitions, indexes, foreign keys, and the
per-column statistics collected by ``ANALYZE`` (null fraction, number of
distinct values, most common values, equi-depth histogram).

Two concrete schemas are provided:

* :mod:`repro.catalog.imdb` — the 21-table IMDB schema used by the Join Order
  Benchmark, with a synthetic, skewed, foreign-key-consistent data generator.
* :mod:`repro.catalog.stack` — a StackExchange-style schema used by the STACK
  workload.

Every generator is also listed in :mod:`repro.catalog.factories`, which
lets a :class:`~repro.storage.spec.DatabaseSpec` (generator id + scale + seed
+ configuration) rebuild the database deterministically in any process — the
basis of the runtime's spec-based dispatch.
"""

from repro.catalog.schema import (
    Column,
    ColumnType,
    ForeignKey,
    Index,
    Schema,
    Table,
)
from repro.catalog.statistics import ColumnStatistics, TableStatistics, analyze_table


def __getattr__(name: str):
    # build_from_spec is exported lazily: importing the factories eagerly
    # would close an import cycle (storage.table_data -> catalog.schema ->
    # this package -> factories -> imdb -> storage.database -> storage.table_data).
    if name == "build_from_spec":
        from repro.catalog.factories import build_from_spec

        return build_from_spec
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "Column",
    "ColumnType",
    "ForeignKey",
    "Index",
    "Schema",
    "Table",
    "ColumnStatistics",
    "TableStatistics",
    "analyze_table",
    "build_from_spec",
]
