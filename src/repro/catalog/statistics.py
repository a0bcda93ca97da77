"""Per-column statistics collected by the simulated ``ANALYZE``.

The statistics mirror what PostgreSQL stores in ``pg_statistic``:

* ``null_frac`` — fraction of NULL values,
* ``n_distinct`` — number of distinct non-null values,
* most common values (MCVs) with their frequencies,
* an equi-depth histogram over the remaining values,
* min / max for range selectivity estimation.

They are consumed by :mod:`repro.optimizer.cardinality` to estimate filter and
join selectivities under the usual independence and uniformity assumptions —
which is exactly where interesting optimizer mistakes come from.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from repro.catalog.schema import ColumnType, Table
from repro.errors import CatalogError

#: Sentinel used to store NULLs inside integer-typed numpy columns.
NULL_SENTINEL = -(2**31)

#: Default number of most-common-values tracked per column (PostgreSQL: 100).
DEFAULT_MCV_TARGET = 32

#: Default number of histogram buckets (PostgreSQL: 100).
DEFAULT_HISTOGRAM_BUCKETS = 32


@dataclass
class ColumnStatistics:
    """Statistics of a single column, as produced by :func:`analyze_column`."""

    column: str
    ctype: ColumnType
    row_count: int
    null_frac: float
    n_distinct: int
    min_value: float | None
    max_value: float | None
    mcv_values: np.ndarray = field(default_factory=lambda: np.empty(0))
    mcv_fractions: np.ndarray = field(default_factory=lambda: np.empty(0))
    histogram_bounds: np.ndarray = field(default_factory=lambda: np.empty(0))

    @property
    def non_null_count(self) -> int:
        return int(round(self.row_count * (1.0 - self.null_frac)))

    @property
    def mcv_total_fraction(self) -> float:
        """Fraction of non-null rows covered by the MCV list."""
        return float(self.mcv_fractions.sum()) if self.mcv_fractions.size else 0.0

    def equality_selectivity(self, value: float) -> float:
        """Estimated fraction of rows with ``column = value``."""
        if self.row_count == 0:
            return 0.0
        if self.mcv_values.size:
            match = np.nonzero(self.mcv_values == value)[0]
            if match.size:
                return float(self.mcv_fractions[match[0]]) * (1.0 - self.null_frac)
        if self.n_distinct <= 0:
            return 0.0
        remaining = max(self.n_distinct - self.mcv_values.size, 1)
        remaining_fraction = max(1.0 - self.mcv_total_fraction, 0.0)
        return (remaining_fraction / remaining) * (1.0 - self.null_frac)

    def range_selectivity(self, op: str, value: float) -> float:
        """Estimated fraction of rows with ``column <op> value`` for ``<``, ``<=``, ``>``, ``>=``.

        Like PostgreSQL's ``scalarineqsel`` the estimate combines the fraction
        of most-common values satisfying the inequality with a histogram
        estimate over the remaining (non-MCV) values.
        """
        if op not in ("<", "<=", ">", ">="):
            raise CatalogError(f"range_selectivity does not handle operator {op!r}")
        if self.row_count == 0 or self.min_value is None or self.max_value is None:
            return 0.0
        lo, hi = float(self.min_value), float(self.max_value)
        if hi <= lo:
            frac_below = 0.5
        elif self.histogram_bounds.size >= 2:
            frac_below = float(
                np.searchsorted(self.histogram_bounds, value, side="right")
            ) / float(self.histogram_bounds.size)
        else:
            frac_below = (float(value) - lo) / (hi - lo)
        frac_below = min(max(frac_below, 0.0), 1.0)
        hist_sel = frac_below if op in ("<", "<=") else 1.0 - frac_below

        mcv_sel = 0.0
        if self.mcv_values.size:
            if op == "<":
                satisfied = self.mcv_values < value
            elif op == "<=":
                satisfied = self.mcv_values <= value
            elif op == ">":
                satisfied = self.mcv_values > value
            else:
                satisfied = self.mcv_values >= value
            mcv_sel = float(self.mcv_fractions[satisfied].sum())

        rest_fraction = max(1.0 - self.mcv_total_fraction, 0.0)
        sel = mcv_sel + rest_fraction * hist_sel
        return min(max(sel, 0.0), 1.0) * (1.0 - self.null_frac)

    def to_dict(self) -> dict[str, object]:
        return {
            "column": self.column,
            "type": self.ctype.value,
            "row_count": self.row_count,
            "null_frac": self.null_frac,
            "n_distinct": self.n_distinct,
            "min": self.min_value,
            "max": self.max_value,
            "n_mcv": int(self.mcv_values.size),
            "n_histogram_bounds": int(self.histogram_bounds.size),
        }


@dataclass
class TableStatistics:
    """Statistics of a whole table: row count, page count and per-column stats."""

    table: str
    row_count: int
    page_count: int
    columns: Mapping[str, ColumnStatistics]

    def column(self, name: str) -> ColumnStatistics:
        try:
            return self.columns[name]
        except KeyError as exc:
            raise CatalogError(
                f"no statistics for column {self.table}.{name}; was ANALYZE run?"
            ) from exc

    def has_column(self, name: str) -> bool:
        return name in self.columns


def analyze_column(
    name: str,
    values: np.ndarray,
    ctype: ColumnType,
    mcv_target: int = DEFAULT_MCV_TARGET,
    histogram_buckets: int = DEFAULT_HISTOGRAM_BUCKETS,
) -> ColumnStatistics:
    """Compute :class:`ColumnStatistics` for one column of encoded values.

    ``values`` is the raw numpy column as stored by the storage layer: numeric
    codes for every type, with :data:`NULL_SENTINEL` marking NULLs.
    """
    values = np.asarray(values)
    row_count = int(values.size)
    if row_count == 0:
        return ColumnStatistics(
            column=name,
            ctype=ctype,
            row_count=0,
            null_frac=0.0,
            n_distinct=0,
            min_value=None,
            max_value=None,
        )
    null_mask = values == NULL_SENTINEL
    null_frac = float(null_mask.mean())
    non_null = values[~null_mask]
    if non_null.size == 0:
        return ColumnStatistics(
            column=name,
            ctype=ctype,
            row_count=row_count,
            null_frac=1.0,
            n_distinct=0,
            min_value=None,
            max_value=None,
        )
    uniques, counts = np.unique(non_null, return_counts=True)
    n_distinct = int(uniques.size)

    # Most common values: only keep values that are genuinely "common", i.e.
    # appear more often than the average value would under uniformity.
    order = np.argsort(counts)[::-1]
    avg_count = non_null.size / n_distinct
    keep = order[: min(mcv_target, order.size)]
    keep = keep[counts[keep] > max(avg_count, 1.0)]
    mcv_values = uniques[keep].astype(float)
    mcv_fractions = counts[keep].astype(float) / float(non_null.size)

    # Equi-depth histogram over values not covered by the MCV list.
    if mcv_values.size:
        rest_mask = ~np.isin(non_null, uniques[keep])
        rest = non_null[rest_mask]
    else:
        rest = non_null
    if rest.size >= histogram_buckets:
        quantiles = np.linspace(0.0, 1.0, histogram_buckets + 1)
        bounds = np.quantile(rest.astype(float), quantiles)
    elif rest.size > 0:
        bounds = np.sort(rest.astype(float))
    else:
        bounds = np.empty(0)

    return ColumnStatistics(
        column=name,
        ctype=ctype,
        row_count=row_count,
        null_frac=null_frac,
        n_distinct=n_distinct,
        min_value=float(non_null.min()),
        max_value=float(non_null.max()),
        mcv_values=mcv_values,
        mcv_fractions=mcv_fractions,
        histogram_bounds=np.asarray(bounds, dtype=float),
    )


def analyze_table(
    table: Table,
    columns: Mapping[str, np.ndarray],
    row_width_bytes: int | None = None,
    page_size_bytes: int = 8192,
    mcv_target: int = DEFAULT_MCV_TARGET,
    histogram_buckets: int = DEFAULT_HISTOGRAM_BUCKETS,
) -> TableStatistics:
    """Run the simulated ``ANALYZE`` over a table's raw columns."""
    if not columns:
        return TableStatistics(table=table.name, row_count=0, page_count=1, columns={})
    lengths = {name: len(vals) for name, vals in columns.items()}
    row_count = next(iter(lengths.values()))
    if any(length != row_count for length in lengths.values()):
        raise CatalogError(
            f"inconsistent column lengths for table {table.name!r}: {lengths}"
        )
    width = row_width_bytes if row_width_bytes is not None else table.row_width_bytes
    rows_per_page = max(1, page_size_bytes // max(width, 1))
    page_count = max(1, -(-row_count // rows_per_page))

    stats: dict[str, ColumnStatistics] = {}
    for cname, values in columns.items():
        ctype = table.column(cname).ctype if table.has_column(cname) else ColumnType.INTEGER
        stats[cname] = analyze_column(
            cname,
            values,
            ctype,
            mcv_target=mcv_target,
            histogram_buckets=histogram_buckets,
        )
    return TableStatistics(
        table=table.name,
        row_count=row_count,
        page_count=page_count,
        columns=stats,
    )
