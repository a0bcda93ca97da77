"""The two intermediate-result representations agree method by method.

The operators in ``repro.executor.operators`` are written once against the
four representation methods ``Relation`` and ``ColumnarBatch`` each implement
their own way (``from_scan``, ``pair``, ``pair_with_scan``, ``surviving``).
The engine-level suites compare whole executions; these properties pin the
methods themselves, on inputs the planner rarely produces: unsorted and
duplicated ``row_ids``, empty sets, a predicate that empties the survivors
mid-way, NULL-extended positions.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.catalog.schema import Column, Table
from repro.catalog.statistics import NULL_SENTINEL
from repro.executor.columnar import ColumnarBatch
from repro.executor.operators import NULL_ROW_ID, Relation
from repro.sql.binder import FilterPredicate
from repro.storage.table_data import TableData

from tests.test_executor import _oracle_filter_ok

REPRESENTATIONS = (Relation, ColumnarBatch)

codes = st.one_of(st.integers(min_value=0, max_value=6), st.just(NULL_SENTINEL))
literals = st.integers(min_value=0, max_value=6)


def table_data(a: list[int], b: list[int]) -> TableData:
    table = Table("t", columns=[Column("a"), Column("b")], primary_key=None)
    return TableData(
        table=table,
        columns={"a": np.asarray(a, dtype=np.int64), "b": np.asarray(b, dtype=np.int64)},
    )


@st.composite
def predicates(draw) -> FilterPredicate:
    column = draw(st.sampled_from(["a", "b"]))
    op = draw(st.sampled_from(["=", "!=", "<", "<=", ">", ">=", "is_null", "is_not_null"]))
    values = () if op in ("is_null", "is_not_null") else (draw(literals),)
    return FilterPredicate(alias="t", column=column, op=op, values=values)


@st.composite
def surviving_inputs(draw):
    """A nullable two-column table, 0-3 predicates and a ``row_ids`` argument."""
    size = draw(st.integers(min_value=0, max_value=30))
    data = table_data(
        draw(st.lists(codes, min_size=size, max_size=size)),
        draw(st.lists(codes, min_size=size, max_size=size)),
    )
    filters = draw(st.lists(predicates(), min_size=0, max_size=3))
    if size == 0 or draw(st.booleans()):
        row_ids = draw(st.sampled_from([None, np.empty(0, dtype=np.int64)]))
    else:
        # Unsorted, with duplicates, possibly empty.
        row_ids = np.asarray(
            draw(st.lists(st.integers(min_value=0, max_value=size - 1), max_size=40)),
            dtype=np.int64,
        )
    return data, filters, row_ids


def brute_force_surviving(data, filters, row_ids) -> list[int]:
    """Positions whose row passes every filter, one row and one filter at a time."""
    rows = range(data.row_count) if row_ids is None else row_ids.tolist()
    return [
        position
        for position, row in enumerate(rows)
        if all(_oracle_filter_ok(data, predicate, row) for predicate in filters)
    ]


class TestSurviving:
    @settings(max_examples=300, deadline=None)
    @given(surviving_inputs())
    def test_both_representations_return_the_same_positions(self, inputs):
        data, filters, row_ids = inputs
        expected = brute_force_surviving(data, filters, row_ids)
        for representation in REPRESENTATIONS:
            positions = representation.surviving(data, filters, row_ids)
            assert positions.dtype.kind == "i"
            assert positions.tolist() == expected, representation.__name__

    def test_a_predicate_that_empties_the_set_mid_way(self):
        data = table_data([1, 2, NULL_SENTINEL, 2, 1], [5, 5, 5, NULL_SENTINEL, 5])
        filters = [
            FilterPredicate("t", "a", "=", (2,)),
            FilterPredicate("t", "a", "=", (1,)),  # nothing survives this one
            FilterPredicate("t", "b", "is_not_null"),
        ]
        for row_ids in (None, np.asarray([4, 1, 1, 3, 0], dtype=np.int64)):
            for representation in REPRESENTATIONS:
                positions = representation.surviving(data, filters, row_ids)
                assert positions.dtype.kind == "i" and positions.size == 0


@st.composite
def pairing_inputs(draw):
    """A two-alias outer side (as pairing positions over two scans) plus an index probe."""
    row_id = st.integers(min_value=0, max_value=50)
    base_a = draw(st.lists(row_id, max_size=12))
    base_b = draw(st.lists(row_id, max_size=12))
    outer_size = draw(st.integers(min_value=0, max_value=15))

    def positions_into(base: list[int], size: int) -> np.ndarray:
        # NULL_ROW_ID marks a tuple an earlier outer join NULL-extended.
        choices = [NULL_ROW_ID] + list(range(len(base)))
        return np.asarray(
            draw(st.lists(st.sampled_from(choices), min_size=size, max_size=size)),
            dtype=np.int64,
        )

    left_pos = positions_into(base_a, outer_size)
    right_pos = positions_into(base_b, outer_size)
    probe_size = draw(st.integers(min_value=0, max_value=20)) if outer_size else 0
    probe_positions = np.asarray(
        draw(
            st.lists(
                st.integers(min_value=0, max_value=max(outer_size - 1, 0)),
                min_size=probe_size,
                max_size=probe_size,
            )
        ),
        dtype=np.int64,
    )
    matched_rows = np.asarray(
        draw(st.lists(row_id, min_size=probe_size, max_size=probe_size)), dtype=np.int64
    )
    return base_a, base_b, left_pos, right_pos, probe_positions, matched_rows


def rows_of(batch) -> dict[str, list[int]]:
    return {alias: ids.tolist() for alias, ids in batch.rows.items()}


class TestPairWithScan:
    @settings(max_examples=200, deadline=None)
    @given(pairing_inputs())
    def test_equals_pair_with_a_fresh_scan_on_both_representations(self, inputs):
        base_a, base_b, left_pos, right_pos, probe_positions, matched_rows = inputs
        seen = []
        for representation in REPRESENTATIONS:
            outer = representation.from_scan("a", base_a).pair(
                representation.from_scan("b", base_b), left_pos, right_pos
            )
            direct = outer.pair_with_scan(probe_positions, "c", matched_rows)
            generic = outer.pair(
                representation.from_scan("c", matched_rows),
                probe_positions,
                np.arange(matched_rows.size, dtype=np.int64),
            )
            assert direct.size == generic.size == probe_positions.size
            assert direct.aliases == generic.aliases == frozenset("abc")
            assert rows_of(direct) == rows_of(generic), representation.__name__
            # One more re-indexing on top: lineage chains compose like eager gathers.
            keep = np.arange(direct.size, dtype=np.int64)[::-2]
            assert rows_of(direct.select(keep)) == rows_of(generic.select(keep))
            seen.append(rows_of(direct))
        assert seen[0] == seen[1]
