"""The join kernels against the kernels they replaced, and counted joins against brute force.

``parent_join_match_positions``, ``parent_probe_many`` and
``parent_match_then_filter`` are the executor's previous kernels, kept here as
oracles: a stable sort of the right keys and two binary searches per left key
(or per probing key, into the index), every match of the first predicate
expanded, NULL pairs dropped after expansion, then each further predicate
filtering the expanded pairs.  :class:`KeyMatch` (direct addressing or sort),
:func:`combine_keys` and :class:`IndexProbe` must give the same pairs in the
same order, the same count before each predicate and the same cap behaviour —
except that NULL keys are no longer counted against the cap.

The operator tests run hand-built plans on the nullable-FK tiny database and
compare both engines with the brute-force oracle of ``test_fuzz_engines``.
"""

from __future__ import annotations

from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.catalog.statistics import NULL_SENTINEL
from repro.config import ENGINE_KINDS
from repro.errors import ExecutionError
from repro.executor import operators
from repro.executor.engine import counts_only, create_engine
from repro.executor.operators import CountedJoin, KeyMatch, OperatorMetrics, combine_keys
from repro.plans.physical import AggregateNode, JoinNode, JoinType, ScanNode
from repro.sql.binder import bind_sql
from repro.storage.index import IndexProbe, OrderedIndex, ragged_ranges

from tests.test_executor import _tiny_database, join_match_positions, oracle_tuples
from tests.test_fuzz_engines import oracle_rows

# ---------------------------------------------------------------------------
# The previous kernels
# ---------------------------------------------------------------------------


def parent_join_match_positions(left_values, right_values, cap):
    """The previous ``join_match_positions``: sort, two binary searches, expand."""
    if left_values.size == 0 or right_values.size == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    order = np.argsort(right_values, kind="stable")
    sorted_right = right_values[order]
    lo = np.searchsorted(sorted_right, left_values, side="left")
    hi = np.searchsorted(sorted_right, left_values, side="right")
    counts = hi - lo
    total = int(counts.sum())
    if total == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    if total > cap:
        raise ExecutionError("cap")
    left_positions = np.repeat(np.arange(left_values.size, dtype=np.int64), counts)
    right_positions = order[ragged_ranges(lo, hi)]
    return left_positions, right_positions


def parent_match_then_filter(pairs, cap):
    """The previous primary-match-then-filter path: the count before each
    further predicate, and the surviving pairs."""
    left_keys, right_keys = pairs[0]
    left_pos, right_pos = parent_join_match_positions(left_keys, right_keys, cap)
    if left_pos.size:
        not_null = left_keys[left_pos] != NULL_SENTINEL
        left_pos, right_pos = left_pos[not_null], right_pos[not_null]
    counts = [left_pos.size]
    for more_left, more_right in pairs[1:]:
        left_values, right_values = more_left[left_pos], more_right[right_pos]
        keep = (left_values == right_values) & (left_values != NULL_SENTINEL)
        left_pos, right_pos = left_pos[keep], right_pos[keep]
        counts.append(left_pos.size)
    return counts, left_pos, right_pos


def parent_probe_many(index: OrderedIndex, keys, cap):
    """The previous ``probe_many`` followed by the index nested loop's NULL drop."""
    values, row_ids = index._sorted_values, index.sorted_row_ids()
    lo = np.searchsorted(values, keys, side="left")
    hi = np.searchsorted(values, keys, side="right")
    counts = hi - lo
    if int(counts.sum()) > cap:
        raise ExecutionError("cap")
    positions = np.repeat(np.arange(keys.size, dtype=np.int64), counts)
    rows = row_ids[ragged_ranges(lo, hi)]
    not_null = keys[positions] != NULL_SENTINEL
    return positions[not_null], rows[not_null]


def null_pairs(left, right) -> int:
    """NULL x NULL pairs: counted against the cap before, not any more."""
    return int(np.count_nonzero(left == NULL_SENTINEL)) * int(np.count_nonzero(right == NULL_SENTINEL))


# ---------------------------------------------------------------------------
# Generated key columns
# ---------------------------------------------------------------------------

#: Key domains relative to the direct-addressing threshold (``slots`` × rows).
DOMAINS = ("tiny", "below", "at", "above", "huge")


@st.composite
def key_column(draw, size: int, width: int, unique: bool = False) -> np.ndarray:
    """``size`` keys from ``[low, low + width)``, some NULL; distinct if ``unique``."""
    low = draw(st.integers(-1_000, 1_000))
    if unique:
        size = min(size, width)
    offsets = draw(st.lists(st.integers(0, width - 1), min_size=size, max_size=size, unique=unique))
    keys = np.asarray(offsets, dtype=np.int64) + low
    if size >= 2 and not unique and draw(st.booleans()):
        keys[0], keys[-1] = low, low + width - 1  # span the whole domain
    nulls = draw(st.lists(st.booleans(), min_size=size, max_size=size))
    if draw(st.booleans()):
        keys[np.asarray(nulls, dtype=bool)] = NULL_SENTINEL
    return keys


@st.composite
def key_pairs(draw, max_predicates: int = 3):
    """One to ``max_predicates`` key columns per side, sizes 0-25, duplicates,
    NULLs, unique or repeated right keys, domains on both sides of the
    direct-addressing threshold."""
    n, m = draw(st.integers(0, 25)), draw(st.integers(0, 25))
    rows = max(n + m, 1) * operators.DIRECT_ADDRESS_SLOTS_PER_ROW
    pairs = []
    for column in range(draw(st.integers(1, max_predicates))):
        width = {"tiny": 3, "below": rows - 1, "at": rows, "above": rows + 1, "huge": 2**40}[
            draw(st.sampled_from(DOMAINS))
        ]
        unique = column == 0 and draw(st.booleans())
        pairs.append((draw(key_column(n, width)), draw(key_column(m, width, unique))))
    # A unique column may have come out shorter than ``m``: trim every column.
    m = min(right.size for _, right in pairs)
    return [(left, right[:m]) for left, right in pairs]


def new_match(pairs, cap: int) -> tuple[list[int], KeyMatch, OperatorMetrics]:
    """The kernel path of ``_match_predicates``: count, cap, then refine."""
    left, right = pairs[0]
    match = KeyMatch(left, right)
    if match.total > cap:
        raise ExecutionError("cap")
    counts = [match.total]
    metrics = OperatorMetrics()
    for more in pairs[1:]:
        left, right = combine_keys(left, right, *more)
        counts.append(KeyMatch(left, right).total)
    refined = operators._refine(*pairs[0], match, pairs[1:], metrics)
    return counts, refined, metrics


# ---------------------------------------------------------------------------
# Kernels against the previous kernels
# ---------------------------------------------------------------------------


class TestKeyMatchAgainstTheParentKernel:
    @given(key_pairs(max_predicates=1), st.integers(0, 60), st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_same_pairs_order_counts_and_cap(self, pairs, cap, force_sort):
        """Either kernel — forced to sort, or chosen by the domain — against the parent."""
        (left, right), = pairs
        slots = 0 if force_sort else operators.DIRECT_ADDRESS_SLOTS_PER_ROW
        with patch.object(operators, "DIRECT_ADDRESS_SLOTS_PER_ROW", slots):
            match = KeyMatch(left, right)
            with patch.object(operators, "MAX_CROSS_PRODUCT_TUPLES", cap):
                if match.total > cap:
                    with pytest.raises(ExecutionError, match="materialization cap"):
                        join_match_positions(left, right)
                else:
                    got = join_match_positions(left, right)
        # The parent raised on the same count plus the NULL x NULL pairs.
        try:
            parent_join_match_positions(left, right, cap)
        except ExecutionError:
            assert match.total + null_pairs(left, right) > cap
        else:
            assert match.total + null_pairs(left, right) <= cap
        _, *expected = parent_match_then_filter(pairs, 2**62)
        assert [p.tolist() for p in match.positions()] == [p.tolist() for p in expected]
        if match.total <= cap:
            assert [p.tolist() for p in got] == [p.tolist() for p in expected]
        assert match.counts.tolist() == np.bincount(expected[0], minlength=left.size).tolist()
        assert match.right_counts().tolist() == np.bincount(expected[1], minlength=right.size).tolist()

    def test_the_threshold_decides_the_kernel(self):
        left = np.array([0, 5, 5, NULL_SENTINEL], dtype=np.int64)
        rows = (left.size + 3) * operators.DIRECT_ADDRESS_SLOTS_PER_ROW
        for width, direct in ((rows, True), (rows + 1, False)):
            right = np.array([0, 5, width - 1], dtype=np.int64)
            match = KeyMatch(left, right)
            assert (match._slots is not None) is direct
            assert match.positions()[0].tolist() == [0, 1, 2]
            assert match.positions()[1].tolist() == [0, 1, 1]

    def test_null_keys_are_never_counted(self):
        keys = np.full(1_000, NULL_SENTINEL, dtype=np.int64)
        assert KeyMatch(keys, keys).total == 0
        with patch.object(operators, "MAX_CROSS_PRODUCT_TUPLES", 0):
            assert join_match_positions(keys, keys)[0].size == 0
        with pytest.raises(ExecutionError):
            parent_join_match_positions(keys, keys, 0)


class TestCompositeKeysAgainstMatchThenFilter:
    @given(key_pairs(), st.integers(0, 60))
    @settings(max_examples=300, deadline=None)
    def test_same_pairs_order_prefilter_counts_and_cap(self, pairs, cap):
        try:
            parent_counts, *parent_positions = parent_match_then_filter(pairs, cap)
        except ExecutionError:
            parent_raised = True
        else:
            parent_raised = False
        left, right = pairs[0]
        # The parent also counted NULL x NULL pairs of the first predicate.
        assert parent_raised == (KeyMatch(left, right).total + null_pairs(left, right) > cap)
        try:
            counts, match, metrics = new_match(pairs, cap)
        except ExecutionError:
            assert KeyMatch(left, right).total > cap
            return
        parent_counts, *parent_positions = parent_match_then_filter(pairs, 2**62)
        assert counts == parent_counts
        # Each further predicate charges the tuples matching before it.
        assert metrics.cpu_ops == sum(parent_counts[:-1])
        assert match.total == parent_counts[-1]
        assert [p.tolist() for p in match.positions()] == [p.tolist() for p in parent_positions]

    def test_wide_domains_are_ranked_before_they_overflow(self):
        wide = np.array([0, 2**40, 2**41, NULL_SENTINEL], dtype=np.int64)
        pairs = [(wide, wide[::-1].copy())] * 3
        left, right = pairs[0]
        for more in pairs[1:]:
            left, right = combine_keys(left, right, *more)
        # 2**41 x 2**41 slots would overflow int64: the codes stay exact.
        assert left[:3].min() >= 0 and right[1:].min() >= 0
        assert left[3] == right[0] == NULL_SENTINEL
        assert [p.tolist() for p in KeyMatch(left, right).positions()] == [[0, 1, 2], [3, 2, 1]]


class TestIndexProbeAgainstTheParentProbe:
    @given(key_pairs(max_predicates=1), st.integers(0, 60))
    @settings(max_examples=200, deadline=None)
    def test_same_matches_and_cap(self, pairs, cap):
        (keys, values), = pairs
        index = OrderedIndex("t", "c", values)
        probed = index.probe_many(keys)
        assert isinstance(probed, IndexProbe)
        positions, rows = probed.expand()
        expected = parent_probe_many(index, keys, 2**62)
        assert [positions.tolist(), rows.tolist()] == [e.tolist() for e in expected]
        assert probed.total == positions.size
        assert probed.index_pages == (keys.size * index.height if values.size else 0)
        # The cap counts the same matches, NULL x NULL pairs no longer among them.
        parent_total = probed.total + null_pairs(keys, values)
        if parent_total > cap:
            with pytest.raises(ExecutionError):
                parent_probe_many(index, keys, cap)
        if probed.total > cap:
            with pytest.raises(ExecutionError, match="materialization cap"):
                index.probe_many(keys, cap)
        else:
            index.probe_many(keys, cap)
        # Every matched entry once, in index order, with its value.
        entry_rows, entry_values = probed.entries()
        index_order = {row: position for position, row in enumerate(index.sorted_row_ids().tolist())}
        assert entry_rows.tolist() == sorted(set(rows.tolist()), key=index_order.__getitem__)
        assert entry_values.tolist() == values[entry_rows].tolist()

    @given(key_pairs(), st.data())
    @settings(max_examples=200, deadline=None)
    def test_entries_match_like_the_expanded_probe_filtered(self, pairs, data):
        """The index nested loop's two paths: outer rows matched against the
        probed entries, filtered per entry and refined on composite keys, give
        the expanded probe's pairs after the same filter and predicates, and
        charge the same CPU ops per further predicate."""
        (keys, values), *more = pairs
        index = OrderedIndex("t", "c", values)
        passes = np.asarray(data.draw(st.lists(st.booleans(), min_size=values.size, max_size=values.size)), bool)
        # Expanded: filter the matched rows, then every further predicate,
        # each charging one CPU op per pair still joined before it.
        positions, rows = parent_probe_many(index, keys, 2**62)
        keep = passes[rows]
        positions, rows = positions[keep], rows[keep]
        charged = 0
        for outer, inner in more:
            charged += positions.size
            keep = (outer[positions] == inner[rows]) & (outer[positions] != NULL_SENTINEL)
            positions, rows = positions[keep], rows[keep]
        # Entries: as execute_index_nestloop matches a probe too large to expand.
        entry_rows, entry_keys = index.probe_many(keys).entries()
        entry_keys = np.where(passes[entry_rows], entry_keys, NULL_SENTINEL)
        metrics = OperatorMetrics()
        refined = operators._refine(
            keys, entry_keys, KeyMatch(keys, entry_keys),
            [(outer, inner[entry_rows]) for outer, inner in more], metrics,
        )
        got_positions, entries = refined.positions()
        assert [got_positions.tolist(), entry_rows[entries].tolist()] == [positions.tolist(), rows.tolist()]
        assert metrics.cpu_ops == charged


# ---------------------------------------------------------------------------
# Operators on the tiny database, against the brute-force oracle
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def tiny_db():
    return _tiny_database()


def _scan(query, alias: str) -> ScanNode:
    return ScanNode(alias=alias, table=query.table_of(alias), filters=tuple(query.filters_for(alias)))


def _run(db, query, plan, kind: str):
    db.drop_caches()
    return create_engine(db, kind=kind).execute(query, plan)


@pytest.mark.parametrize("join_type", [JoinType.HASH, JoinType.MERGE, JoinType.NESTED_LOOP])
def test_null_keys_do_not_count_against_the_cap(tiny_db, join_type, monkeypatch):
    """child ⋈ link on two nullable keys, with the cap at exactly the real matches.

    NULL x NULL pairs used to be counted (and expanded) before being dropped,
    so this join aborted although its result fits the cap."""
    query = bind_sql(
        "SELECT COUNT(*) FROM child AS c, link AS l WHERE c.parent_id = l.parent_id", tiny_db.schema
    )
    expected = len(oracle_tuples(tiny_db, query))
    child, link = (tiny_db.table_data(table).column("parent_id") for table in ("child", "link"))
    assert null_pairs(child, link) > 0
    plan = JoinNode(join_type=join_type, left=_scan(query, "c"), right=_scan(query, "l"),
                    predicates=tuple(query.joins))
    monkeypatch.setattr(operators, "MAX_CROSS_PRODUCT_TUPLES", expected)
    for kind in ENGINE_KINDS:
        result = _run(tiny_db, query, plan, kind)
        assert result.succeeded, result.error
        assert result.rows == [(expected,)]
    monkeypatch.setattr(operators, "MAX_CROSS_PRODUCT_TUPLES", expected - 1)
    assert "materialization cap" in _run(tiny_db, query, plan, "columnar").error


#: A 31a-shaped cyclic query: the last join reaches ``l`` from both outer
#: aliases, probing by one key and filtering by the other, over an outer side
#: whose probe keys repeat.
CYCLIC_SQL = (
    "SELECT MIN(c.id), COUNT(*), MAX(l.weight), MIN(c2.kind) "
    "FROM child AS c, child AS c2, link AS l "
    "WHERE c.kind = c2.kind AND c.parent_id = l.parent_id AND c2.parent_id = l.parent_id"
)


def _cyclic_plans(query):
    """The last join as a hash, merge or index nested-loop join, each probe order."""
    outer = JoinNode(join_type=JoinType.HASH, left=_scan(query, "c"), right=_scan(query, "c2"),
                     predicates=tuple(p for p in query.joins if not p.involves("l")))
    closing = tuple(p for p in query.joins if p.involves("l"))
    for join_type in (JoinType.HASH, JoinType.MERGE, JoinType.NESTED_LOOP):
        for predicates in (closing, closing[::-1]):
            join = JoinNode(join_type=join_type, left=outer, right=_scan(query, "l"), predicates=predicates)
            yield AggregateNode(child=join)


class TestCountedJoinsMatchTheOracle:
    def test_a_31a_shaped_cyclic_query(self, tiny_db, monkeypatch):
        query = bind_sql(CYCLIC_SQL, tiny_db.schema)
        assert counts_only(query)
        expected = oracle_rows(tiny_db, query)
        assert expected[0][1] > 0
        entries, counted = [], []
        real_entries, real_init = IndexProbe.entries, CountedJoin.__init__
        monkeypatch.setattr(IndexProbe, "entries", lambda self: entries.append(1) or real_entries(self))
        monkeypatch.setattr(
            CountedJoin, "__init__", lambda self, *args: counted.append(1) or real_init(self, *args)
        )
        for plan in _cyclic_plans(query):
            results = [_run(tiny_db, query, plan, kind) for kind in ENGINE_KINDS]
            assert results[0].rows == results[1].rows == expected, plan.child.label()
            assert results[0].metrics == results[1].metrics
            assert results[0].node_actual_rows == results[1].node_actual_rows
            assert results[0].execution_time_ms == results[1].execution_time_ms
        # The probe repeats its keys enough to be matched against entries, and
        # every top join folded into the aggregate instead of expanding.
        assert entries and len(counted) == 2 * len(list(_cyclic_plans(query)))

    @pytest.mark.parametrize(
        "sql, joined",
        [
            # Empty: no child has kind 99.
            ("SELECT COUNT(*), COUNT(c.kind), MIN(c.id), MAX(l.weight) FROM child AS c, link AS l "
             "WHERE c.parent_id = l.parent_id AND c.kind = 99", False),
            # All-NULL aggregated column, non-empty join.
            ("SELECT COUNT(*), COUNT(c.kind), MIN(c.kind), MAX(c.kind), MIN(l.weight) FROM child AS c, link AS l "
             "WHERE c.parent_id = l.parent_id AND c.kind IS NULL", True),
            # NULL join keys on both sides, aggregates on both sides.
            ("SELECT COUNT(*), MIN(c.parent_id), MAX(l.parent_id), COUNT(l.id) FROM child AS c, link AS l "
             "WHERE c.parent_id = l.parent_id", True),
        ],
    )
    def test_count_min_max_over_empty_and_all_null_results(self, tiny_db, sql, joined):
        query = bind_sql(sql, tiny_db.schema)
        assert counts_only(query)
        expected = oracle_rows(tiny_db, query)
        assert (expected[0][0] > 0) is joined
        for left, right in (("c", "l"), ("l", "c")):
            scans = {alias: _scan(query, alias) for alias in ("c", "l")}
            for join_type in (JoinType.HASH, JoinType.MERGE, JoinType.NESTED_LOOP):
                plan = AggregateNode(child=JoinNode(
                    join_type=join_type, left=scans[left], right=scans[right], predicates=tuple(query.joins)
                ))
                for kind in ENGINE_KINDS:
                    assert _run(tiny_db, query, plan, kind).rows == expected, (sql, left, join_type, kind)
