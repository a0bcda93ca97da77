"""Synthetic data generation primitives used by the IMDB and STACK generators.

The generators build dictionary-encoded numpy columns with the properties that
make the Join Order Benchmark hard for cost-based optimizers:

* **skew** — categorical and foreign-key columns follow Zipf-like
  distributions, so a handful of values dominate,
* **fan-out variance** — some parent rows (popular movies, popular users) have
  orders of magnitude more children than others,
* **cross-column correlation** — e.g. a movie's production year correlates
  with how much metadata exists about it,
* **NULLs** — a configurable fraction of values is missing.

Everything is driven by a seeded :class:`numpy.random.Generator` so databases
are bit-for-bit reproducible.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.catalog.statistics import NULL_SENTINEL

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.config import PostgresConfig
    from repro.storage.database import Database


def zipf_weights(n: int, skew: float = 1.1) -> np.ndarray:
    """Normalized Zipf weights for ``n`` ranks with exponent ``skew``."""
    if n <= 0:
        return np.empty(0)
    ranks = np.arange(1, n + 1, dtype=float)
    weights = ranks ** (-abs(skew))
    return weights / weights.sum()


def zipf_choice(
    rng: np.random.Generator,
    values: Sequence[int] | np.ndarray,
    size: int,
    skew: float = 1.1,
    shuffle_ranks: bool = True,
) -> np.ndarray:
    """Sample ``size`` values with Zipf-distributed popularity.

    When ``shuffle_ranks`` is set the popularity ranking is randomly assigned
    to the value domain (so the most popular value is not always the smallest
    one), which avoids artificial correlation between value magnitude and
    frequency.
    """
    values = np.asarray(values, dtype=np.int64)
    if values.size == 0 or size <= 0:
        return np.empty(0, dtype=np.int64)
    weights = zipf_weights(values.size, skew)
    if shuffle_ranks:
        perm = rng.permutation(values.size)
        values = values[perm]
    return rng.choice(values, size=size, p=weights)


def primary_keys(n: int, start: int = 1) -> np.ndarray:
    """Dense primary keys ``start, start+1, ..., start+n-1``."""
    return np.arange(start, start + n, dtype=np.int64)


def foreign_keys(
    rng: np.random.Generator,
    parent_ids: np.ndarray,
    size: int,
    skew: float = 1.1,
    null_frac: float = 0.0,
) -> np.ndarray:
    """Foreign-key column referencing ``parent_ids`` with skewed fan-out."""
    column = zipf_choice(rng, parent_ids, size, skew=skew)
    if null_frac > 0.0 and column.size:
        mask = rng.random(column.size) < null_frac
        column = column.copy()
        column[mask] = NULL_SENTINEL
    return column


def correlated_foreign_keys(
    rng: np.random.Generator,
    parent_ids: np.ndarray,
    size: int,
    skew: float = 1.1,
    correlation: float = 0.5,
) -> np.ndarray:
    """Foreign keys whose popularity correlates with the parent id order.

    ``correlation`` in [0, 1] blends between shuffled Zipf popularity (0) and
    popularity aligned with parent-id order (1): with high correlation, larger
    parent ids (e.g. newer movies) receive more children.
    """
    parent_ids = np.asarray(parent_ids, dtype=np.int64)
    if parent_ids.size == 0 or size <= 0:
        return np.empty(0, dtype=np.int64)
    weights = zipf_weights(parent_ids.size, skew)[::-1]  # favour large ids
    uniform = np.full(parent_ids.size, 1.0 / parent_ids.size)
    blended = correlation * weights + (1.0 - correlation) * uniform
    blended = blended / blended.sum()
    return rng.choice(parent_ids, size=size, p=blended)


def categorical_column(
    rng: np.random.Generator,
    n_categories: int,
    size: int,
    skew: float = 1.05,
    null_frac: float = 0.0,
    start: int = 1,
) -> np.ndarray:
    """A skewed categorical column with values in ``[start, start+n_categories)``."""
    domain = np.arange(start, start + n_categories, dtype=np.int64)
    column = zipf_choice(rng, domain, size, skew=skew)
    if null_frac > 0.0 and column.size:
        mask = rng.random(column.size) < null_frac
        column = column.copy()
        column[mask] = NULL_SENTINEL
    return column


def year_column(
    rng: np.random.Generator,
    size: int,
    low: int = 1880,
    high: int = 2023,
    recency_bias: float = 3.0,
    null_frac: float = 0.02,
) -> np.ndarray:
    """Production-year style column biased towards recent years."""
    if size <= 0:
        return np.empty(0, dtype=np.int64)
    u = rng.random(size) ** (1.0 / max(recency_bias, 1e-6))
    years = (low + u * (high - low)).astype(np.int64)
    if null_frac > 0.0:
        mask = rng.random(size) < null_frac
        years[mask] = NULL_SENTINEL
    return years


def numeric_column(
    rng: np.random.Generator,
    size: int,
    low: int = 0,
    high: int = 1000,
    skew: float = 0.0,
    null_frac: float = 0.0,
) -> np.ndarray:
    """Generic bounded integer column, optionally skewed towards ``low``."""
    if size <= 0:
        return np.empty(0, dtype=np.int64)
    if skew > 0:
        u = rng.random(size) ** (1.0 + skew)
    else:
        u = rng.random(size)
    column = (low + u * (high - low)).astype(np.int64)
    if null_frac > 0.0:
        mask = rng.random(size) < null_frac
        column[mask] = NULL_SENTINEL
    return column


def dictionary_column(
    rng: np.random.Generator,
    dictionary: Sequence[str],
    size: int,
    skew: float = 1.05,
    null_frac: float = 0.0,
) -> np.ndarray:
    """Codes into ``dictionary`` with skewed popularity (text column contents)."""
    domain = np.arange(len(dictionary), dtype=np.int64)
    column = zipf_choice(rng, domain, size, skew=skew)
    if null_frac > 0.0 and column.size:
        mask = rng.random(column.size) < null_frac
        column = column.copy()
        column[mask] = NULL_SENTINEL
    return column


def pooled_name_dictionary(prefix: str, n: int, pools: Sequence[str]) -> list[str]:
    """Names that embed tokens from ``pools`` so LIKE filters have matches."""
    out = []
    for i in range(n):
        token = pools[i % len(pools)] if pools else ""
        out.append(f"{prefix} {token} {i:05d}")
    return out


# ---------------------------------------------------------------------------
# A minimal self-contained star schema built from the primitives above.
# ---------------------------------------------------------------------------

#: Category labels of the synthetic dimension table.
SYNTHETIC_CATEGORIES = ["alpha", "beta", "gamma", "delta", "epsilon", "zeta"]


def generate_synthetic(
    scale: float = 1.0,
    seed: int = 0,
    config: "PostgresConfig | None" = None,
    fanout: float = 8.0,
    null_frac: float = 0.02,
) -> "Database":
    """Generate a small star-schema database (one dimension, one fact table).

    Unlike the IMDB/STACK generators this schema carries no workload; it
    exists to exercise storage, registry and dispatch machinery at arbitrary
    scales without the cost of a 21-table build.  ``scale`` = 1.0 produces
    roughly 500 dimension rows and ``500 * fanout`` fact rows.
    """
    from repro.catalog.schema import Column, ColumnType, ForeignKey, Schema, Table
    from repro.storage.database import Database
    from repro.storage.table_data import TableData

    rng = np.random.default_rng(seed)
    n_dim = max(20, int(500 * scale))
    n_fact = max(50, int(n_dim * max(fanout, 1.0)))

    dim_table = Table("dim", [
        Column("id", ColumnType.INTEGER),
        Column("category", ColumnType.INTEGER),
        Column("label", ColumnType.TEXT),
    ])
    fact_table = Table("fact", [
        Column("id", ColumnType.INTEGER),
        Column("dim_id", ColumnType.INTEGER),
        Column("value", ColumnType.INTEGER),
        Column("year", ColumnType.INTEGER),
    ])
    schema = Schema(
        "synthetic",
        [dim_table, fact_table],
        foreign_keys=[ForeignKey("fact", "dim_id", "dim", "id")],
    )
    schema.table("fact").add_index("dim_id")
    schema.table("fact").add_index("year")

    dim_ids = primary_keys(n_dim)
    labels = pooled_name_dictionary("dim", n_dim, SYNTHETIC_CATEGORIES)
    tables = {
        "dim": TableData(
            table=dim_table,
            columns={
                "id": dim_ids,
                "category": categorical_column(rng, len(SYNTHETIC_CATEGORIES), n_dim),
                "label": np.arange(n_dim, dtype=np.int64),
            },
            dictionaries={"label": labels},
        ),
        "fact": TableData(
            table=fact_table,
            columns={
                "id": primary_keys(n_fact),
                "dim_id": foreign_keys(rng, dim_ids, n_fact, null_frac=null_frac),
                "value": numeric_column(rng, n_fact, skew=1.0, null_frac=null_frac),
                "year": year_column(rng, n_fact),
            },
        ),
    }
    return Database(schema=schema, tables=tables, config=config, name="synthetic")
