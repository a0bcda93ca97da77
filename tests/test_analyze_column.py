"""ANALYZE from one sort: ``analyze_column`` against its np.unique/np.isin oracle.

``_analyze_column_oracle`` is the earlier implementation (one ``np.unique``,
an ``np.isin`` against the MCVs and ``np.quantile`` over the unsorted rest).
Every statistic is a function of the column's multiset of values, so the
one-sort version must match it in every field, dtype and byte.
"""

from __future__ import annotations

import dataclasses

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.catalog.schema import ColumnType
from repro.catalog.statistics import NULL_SENTINEL, ColumnStatistics, analyze_column


def _analyze_column_oracle(name, values, ctype, mcv_target, histogram_buckets):
    values = np.asarray(values)
    row_count = int(values.size)
    if row_count == 0:
        return ColumnStatistics(name, ctype, 0, 0.0, 0, None, None)
    null_mask = values == NULL_SENTINEL
    null_frac = float(null_mask.mean())
    non_null = values[~null_mask]
    if non_null.size == 0:
        return ColumnStatistics(name, ctype, row_count, 1.0, 0, None, None)
    uniques, counts = np.unique(non_null, return_counts=True)
    n_distinct = int(uniques.size)
    order = np.argsort(counts)[::-1]
    avg_count = non_null.size / n_distinct
    keep = order[: min(mcv_target, order.size)]
    keep = keep[counts[keep] > max(avg_count, 1.0)]
    mcv_values = uniques[keep].astype(float)
    mcv_fractions = counts[keep].astype(float) / float(non_null.size)
    if mcv_values.size:
        rest = non_null[~np.isin(non_null, uniques[keep])]
    else:
        rest = non_null
    if rest.size >= histogram_buckets:
        bounds = np.quantile(rest.astype(float), np.linspace(0.0, 1.0, histogram_buckets + 1))
    elif rest.size > 0:
        bounds = np.sort(rest.astype(float))
    else:
        bounds = np.empty(0)
    return ColumnStatistics(
        name, ctype, row_count, null_frac, n_distinct, float(non_null.min()), float(non_null.max()),
        mcv_values, mcv_fractions, np.asarray(bounds, dtype=float),
    )


def assert_same_statistics(got: ColumnStatistics, expected: ColumnStatistics) -> None:
    for field in dataclasses.fields(ColumnStatistics):
        a, b = getattr(got, field.name), getattr(expected, field.name)
        if isinstance(b, np.ndarray):
            assert isinstance(a, np.ndarray), field.name
            assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), field.name
        else:
            assert type(a) is type(b) and a == b, field.name


@st.composite
def columns(draw):
    """Integer or float codes with NULLs, from a small domain (so counts tie
    at the MCV cutoff), sometimes all NULL, sometimes shorter than the
    histogram."""
    size = draw(st.integers(0, 120))
    domain = draw(st.integers(1, 30))
    null_share = draw(st.sampled_from([0.0, 0.2, 1.0]))
    dtype = draw(st.sampled_from([np.int64, np.int32, np.float64]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = rng.integers(-domain, domain, size=size)
    if dtype is np.float64:
        values = values * 0.5
    values = values.astype(dtype)
    values[rng.random(size) < null_share] = NULL_SENTINEL
    return values


@settings(max_examples=300, deadline=None)
@given(columns(), st.integers(1, 6), st.integers(1, 40))
def test_one_sort_matches_the_oracle(values, mcv_target, histogram_buckets):
    got = analyze_column("c", values, ColumnType.INTEGER, mcv_target, histogram_buckets)
    expected = _analyze_column_oracle("c", values, ColumnType.INTEGER, mcv_target, histogram_buckets)
    assert_same_statistics(got, expected)


def test_ties_at_the_mcv_cutoff():
    # Four values tie at count 3 above the average; the target keeps two.
    values = np.array([1, 1, 1, 2, 2, 2, 3, 3, 3, 4, 4, 4, 5, 6, 7, 8, 9, 10, NULL_SENTINEL])
    got = analyze_column("c", values, ColumnType.INTEGER, mcv_target=2, histogram_buckets=4)
    assert got.mcv_values.size == 2
    assert_same_statistics(got, _analyze_column_oracle("c", values, ColumnType.INTEGER, 2, 4))


def test_generated_tables_match_the_oracle(imdb_db, stack_db):
    for db in (imdb_db, stack_db):
        for table in db.schema:
            for column, values in db.table_data(table.name).columns.items():
                ctype = table.column(column).ctype if table.has_column(column) else ColumnType.INTEGER
                assert_same_statistics(
                    analyze_column(column, values, ctype),
                    _analyze_column_oracle(column, values, ctype, 32, 32),
                )
