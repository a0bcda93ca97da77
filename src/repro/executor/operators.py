"""Vectorized physical operators and their work accounting.

The three operators — scan, join, index nested loop — are written
**once**, against the surface both intermediate-result representations share:
``size``, ``aliases``, ``fetch``, ``select`` plus the four representation
methods ``from_scan``, ``pair``, ``pair_with_scan`` and ``surviving``.  Every
recorded page access and every line of :class:`OperatorMetrics` arithmetic
exists in exactly one place; the engines differ only in the representation
they run on: :class:`Relation` here (per-alias row-id arrays, gathered eagerly
at every join) or the lazy :class:`~repro.executor.columnar.ColumnarBatch`.

Equi-joins match keys through :class:`KeyMatch`, which counts matches before
it expands any: every predicate of a join is matched at once on composite
keys, and the top join under a scalar COUNT/MIN/MAX returns a
:class:`CountedJoin` instead of its tuples (docs/EXECUTOR.md, "What a join
materializes and what it only counts").

Every operator returns the resulting batch and an :class:`OperatorMetrics`
record of the pool-independent work performed.  Operators never touch the
buffer pool: the two that read heap pages also return the :data:`PageAccess`
they would make, which the engine replays once per run (docs/EXECUTOR.md,
"Data pass vs charge") — so an operator that raises has recorded nothing.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Union

import numpy as np

from repro.catalog.statistics import NULL_SENTINEL
from repro.errors import ExecutionError
from repro.optimizer.cardinality import evaluate_filter_mask
from repro.plans.physical import JoinNode, JoinType, ScanNode, ScanType
from repro.sql.binder import BoundQuery, FilterPredicate, JoinPredicate
from repro.storage.buffer_pool import BufferPool
from repro.storage.database import Database
from repro.storage.index import ragged_ranges

if TYPE_CHECKING:
    from repro.executor.columnar import ColumnarBatch

    #: Either intermediate-result representation (annotation only).
    Batch = Union["Relation", "ColumnarBatch"]

#: One heap access an operator would make: ``(relation, n_pages, sequential)``.
PageAccess = tuple[str, int, bool]


@dataclass
class OperatorMetrics:
    """Work performed by one operator (or accumulated over a plan)."""

    pages_hit: int = 0
    seq_pages_read: int = 0
    random_pages_read: int = 0
    index_pages: int = 0
    tuples_in: int = 0
    tuples_out: int = 0
    cpu_ops: int = 0
    sort_rows: int = 0
    spill_bytes: int = 0

    def merge(self, other: "OperatorMetrics") -> "OperatorMetrics":
        """Accumulate another operator's work into this record (returns self)."""
        self.pages_hit += other.pages_hit
        self.seq_pages_read += other.seq_pages_read
        self.random_pages_read += other.random_pages_read
        self.index_pages += other.index_pages
        self.tuples_in += other.tuples_in
        self.tuples_out += other.tuples_out
        self.cpu_ops += other.cpu_ops
        self.sort_rows += other.sort_rows
        self.spill_bytes += other.spill_bytes
        return self

    def copy(self) -> "OperatorMetrics":
        """Independent copy of this work record."""
        return OperatorMetrics(**self.__dict__)


@dataclass
class Relation:
    """Intermediate result: per-alias row ids, all arrays of equal length."""

    rows: dict[str, np.ndarray] = field(default_factory=dict)

    def __post_init__(self) -> None:
        lengths = {alias: len(ids) for alias, ids in self.rows.items()}
        if lengths and len(set(lengths.values())) != 1:
            raise ExecutionError(f"inconsistent relation row counts: {lengths}")

    @property
    def size(self) -> int:
        """Number of (composite) tuples in the relation."""
        if not self.rows:
            return 0
        return len(next(iter(self.rows.values())))

    @property
    def aliases(self) -> frozenset[str]:
        """Base-table aliases whose rows this relation carries."""
        return frozenset(self.rows)

    def _taken(self, positions: np.ndarray) -> dict[str, np.ndarray]:
        """Every alias's row ids at ``positions``."""
        return {alias: ids[positions] for alias, ids in self.rows.items()}

    def select(self, positions: np.ndarray) -> "Relation":
        """Keep only the tuples at ``positions`` (positional indices)."""
        return Relation(rows=self._taken(positions))

    def fetch(
        self, database: Database, query: BoundQuery, alias: str, column: str
    ) -> np.ndarray:
        """Column values of ``alias.column`` for every tuple of this relation."""
        if alias not in self.rows:
            raise ExecutionError(f"relation does not contain alias {alias!r}")
        data = database.table_data(query.table_of(alias))
        return data.gather(column, self.rows[alias])

    # -- representation methods (mirrored by ColumnarBatch) ------------------
    @staticmethod
    def from_scan(alias: str, row_ids: np.ndarray) -> "Relation":
        """Single-alias relation over the row ids a scan produced."""
        return Relation(rows={alias: np.asarray(row_ids, dtype=np.int64)})

    def pair(self, right: "Relation", left_pos: np.ndarray, right_pos: np.ndarray) -> "Relation":
        """Relation pairing ``self[left_pos[i]]`` with ``right[right_pos[i]]``.

        Eager: every carried alias's row ids are gathered here.
        """
        return Relation(rows={**self._taken(left_pos), **right._taken(right_pos)})

    def pair_with_scan(self, positions: np.ndarray, alias: str, row_ids: np.ndarray) -> "Relation":
        """Relation pairing ``self[positions[i]]`` with base row ``row_ids[i]`` of ``alias``.

        The index nested loop's inner side: freshly probed row ids that need
        no re-indexing, unlike a :meth:`pair` with ``from_scan(alias, row_ids)``.
        """
        rows = self._taken(positions)
        rows[alias] = np.asarray(row_ids, dtype=np.int64)
        return Relation(rows=rows)

    @staticmethod
    def surviving(
        data, predicates: Sequence[FilterPredicate], row_ids: np.ndarray | None = None
    ) -> np.ndarray:
        """Positions into ``row_ids`` (``None``: the whole table) passing every predicate.

        Reference strategy: each predicate is evaluated over the full stored
        column and the masks are conjoined.
        """
        size = data.row_count if row_ids is None else len(row_ids)
        mask = np.ones(size, dtype=bool)
        for predicate in predicates:
            full_mask = evaluate_filter_mask(data, predicate)
            mask &= full_mask if row_ids is None else full_mask[row_ids]
        return np.nonzero(mask)[0]


# ---------------------------------------------------------------------------
# Key matching
# ---------------------------------------------------------------------------

#: Keys are matched by direct addressing when the right keys span at most
#: this many values per input row: a table over that domain then costs no
#: more than reading the inputs, and replaces a sort and two binary searches.
DIRECT_ADDRESS_SLOTS_PER_ROW = 4

_EMPTY = np.empty(0, dtype=np.int64)


class KeyMatch:
    """The equal-key pairs of two int64 key arrays, counted before any is expanded.

    ``counts[i]`` is the number of right keys equal to ``left[i]`` and
    ``total`` their sum; neither allocates a pair.  NULL keys
    (:data:`NULL_SENTINEL`) match nothing and are never counted.  When the
    right keys span at most :data:`DIRECT_ADDRESS_SLOTS_PER_ROW` values per
    input row they are bucketed by direct addressing over that domain;
    otherwise they are sorted and binary-searched.  Either way
    :meth:`positions` expands the same pairs in the same order — by left
    position, then ascending right position — and :meth:`right_counts` gives
    each right row's number of matches.
    """

    __slots__ = (
        "counts", "total", "_left", "_right", "_right_size", "_kept", "_slots", "_right_slots", "_bucket", "_order",
        "_first",
    )

    def __init__(self, left: np.ndarray, right: np.ndarray) -> None:
        left = np.asarray(left, dtype=np.int64)
        right = np.asarray(right, dtype=np.int64)
        self._right_size = right.size
        #: Positions of the non-NULL right keys (``None``: all of them).
        self._kept = None
        self._slots = None
        if left.size and right.size and right.min() == NULL_SENTINEL:  # NULL sorts below every key
            self._kept = np.flatnonzero(right != NULL_SENTINEL)
            right = right[self._kept]
        self._left, self._right = left, right
        if not left.size or not right.size:
            self.counts, self.total = np.zeros(left.size, dtype=np.int64), 0
            return
        low = int(right.min())
        width = int(right.max()) - low + 1
        if width <= DIRECT_ADDRESS_SLOTS_PER_ROW * (left.size + right.size):
            # Slot ``width`` is an extra, empty bucket: every left key outside
            # the domain — a NULL one too — is clamped to it (a negative offset
            # is a huge unsigned one).
            self._right_slots = right - low
            self._slots = left - low
            np.minimum(self._slots.view(np.uint64), width, out=self._slots.view(np.uint64))
            self._bucket = np.bincount(self._right_slots, minlength=width + 1)
            self.counts = self._bucket[self._slots]
        else:
            self._order = np.argsort(right, kind="stable")
            ordered = right[self._order]
            self._first = np.searchsorted(ordered, left, side="left")
            self.counts = np.searchsorted(ordered, left, side="right") - self._first
        self.total = int(self.counts.sum())

    def _runs(self) -> tuple[np.ndarray, np.ndarray]:
        """Right positions grouped by key, and each left row's offset into them."""
        if self._slots is None:
            return self._order, self._first
        bucket = self._bucket
        if bucket.max() <= 1:
            # Unique right keys: a slot → position table is the grouping.
            order = np.empty(bucket.size, dtype=np.int64)
            order[self._right_slots] = np.arange(self._right.size, dtype=np.int64)
            return order, self._slots
        starts = np.cumsum(bucket) - bucket
        return np.argsort(self._right_slots, kind="stable"), starts[self._slots]

    def positions(self) -> tuple[np.ndarray, np.ndarray]:
        """``(left_positions, right_positions)`` of every matching pair."""
        if not self.total:
            return _EMPTY, _EMPTY
        order, first = self._runs()
        counts = self.counts
        matched = counts.astype(bool)
        if self.total == np.count_nonzero(matched):
            # No left row matches twice: one gather per matching left row.
            left_positions = np.flatnonzero(matched)
            right_positions = order[first[left_positions]]
        else:
            left_positions = np.repeat(np.arange(counts.size, dtype=np.int64), counts)
            right_positions = order[ragged_ranges(first, first + counts)]
        if self._kept is not None:
            right_positions = self._kept[right_positions]
        return left_positions, right_positions

    def right_counts(self) -> np.ndarray:
        """Number of left keys equal to each right key (0 for a NULL right key)."""
        if not self.total:
            return np.zeros(self._right_size, dtype=np.int64)
        if self._slots is not None:
            counts = np.bincount(self._slots, minlength=self._bucket.size)[self._right_slots]
        else:
            ordered = np.sort(self._left)
            counts = np.searchsorted(ordered, self._right, side="right") - np.searchsorted(
                ordered, self._right, side="left"
            )
        if self._kept is None:
            return counts
        full = np.zeros(self._right_size, dtype=np.int64)
        full[self._kept] = counts
        return full


def _check_cap(total: int, what: str) -> None:
    if total > MAX_CROSS_PRODUCT_TUPLES:
        raise ExecutionError(
            f"{what} of {total} matching tuples exceeds the executor's materialization cap"
        )


#: Composite codes stay below this bound: wider domains are ranked densely first.
_MAX_CODE = 2**62


def _shared_slots(left: np.ndarray, right: np.ndarray) -> tuple[np.ndarray, np.ndarray, int] | None:
    """Both sides' keys as offsets into the value range both sides hold, and its
    width; -1 for a NULL key or one outside that range, ``None`` if it is empty."""
    values = [keys[keys != NULL_SENTINEL] for keys in (left, right)]
    if not (values[0].size and values[1].size):
        return None
    low = max(int(side.min()) for side in values)
    width = min(int(side.max()) for side in values) - low + 1
    if width <= 0:
        return None
    slots = []
    for keys in (left, right):
        offsets = keys - low
        offsets[(offsets < 0) | (offsets >= width)] = -1  # NULL sorts below every key
        slots.append(offsets)
    return slots[0], slots[1], width


def _dense_slots(left: np.ndarray, right: np.ndarray) -> tuple[np.ndarray, np.ndarray, int]:
    """Slots renumbered by rank among the distinct valid slots of both sides."""
    distinct = np.unique(np.concatenate([left[left >= 0], right[right >= 0]]))
    ranked = [np.where(slots >= 0, np.searchsorted(distinct, slots), -1) for slots in (left, right)]
    return ranked[0], ranked[1], int(distinct.size)


def combine_keys(
    left: np.ndarray, right: np.ndarray, more_left: np.ndarray, more_right: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Composite keys of two key columns per side, for one :class:`KeyMatch`.

    A left and a right code are equal exactly when both key pairs are equal;
    a row with a NULL key in either column, or one no row of the other side
    can equal, gets :data:`NULL_SENTINEL`, so it matches nothing.
    """
    first, second = _shared_slots(left, right), _shared_slots(more_left, more_right)
    if first is None or second is None:
        return np.full(left.size, NULL_SENTINEL, dtype=np.int64), np.full(right.size, NULL_SENTINEL, dtype=np.int64)
    if first[2] * second[2] >= _MAX_CODE:
        first, second = _dense_slots(*first[:2]), _dense_slots(*second[:2])
    width = second[2]
    codes = []
    for outer, inner in zip(first[:2], second[:2]):
        code = outer * width + inner
        code[(outer < 0) | (inner < 0)] = NULL_SENTINEL
        codes.append(code)
    return codes[0], codes[1]


def _refine(
    left: np.ndarray, right: np.ndarray, match: KeyMatch, more: Iterable[tuple[np.ndarray, np.ndarray]],
    metrics: OperatorMetrics,
) -> KeyMatch:
    """``match`` of keys ``left``/``right`` narrowed by each further key pair of
    ``more`` in turn, on composite keys.  Each further pair charges one CPU op
    per tuple still matching before it — the work of filtering joined tuples
    by it — but no tuple is expanded."""
    for more_left, more_right in more:
        metrics.cpu_ops += match.total
        if match.total:
            left, right = combine_keys(left, right, more_left, more_right)
            match = KeyMatch(left, right)
    return match


class CountedJoin:
    """An inner join's output kept as its two inputs and their :class:`KeyMatch`.

    The top join under a scalar COUNT/MIN/MAX returns this in place of a batch
    (the engine decides): ``size`` is the number of joined tuples, and
    :meth:`weighted` pairs an input column with the number of joined tuples
    each of its rows is part of, so the aggregate reads the inputs and no
    tuple is expanded.
    """

    __slots__ = ("left", "right", "match")

    def __init__(self, left: Batch, right: Batch, match: KeyMatch) -> None:
        self.left, self.right, self.match = left, right, match

    @property
    def size(self) -> int:
        """Number of joined tuples."""
        return self.match.total

    @property
    def aliases(self) -> frozenset[str]:
        """Base-table aliases of both inputs."""
        return self.left.aliases | self.right.aliases

    def weighted(
        self, database: Database, query: BoundQuery, alias: str, column: str
    ) -> tuple[np.ndarray, np.ndarray]:
        """``alias.column`` over the input carrying ``alias``, and per row its number of joined tuples."""
        if alias in self.left.aliases:
            return self.left.fetch(database, query, alias, column), self.match.counts
        return self.right.fetch(database, query, alias, column), self.match.right_counts()


# ---------------------------------------------------------------------------
# Scans
# ---------------------------------------------------------------------------

def execute_scan(
    database: Database, node: ScanNode, batch_type: type[Batch]
) -> tuple[Batch, OperatorMetrics, PageAccess | None]:
    """Evaluate a scan node: apply its filters and record its heap access.

    CPU charges are those of evaluating every filter over every candidate
    tuple — the simulated scan always reads them all — however few rows
    ``batch_type.surviving`` actually touches.
    """
    metrics = OperatorMetrics()
    data = database.table_data(node.table)
    row_count = data.row_count
    metrics.tuples_in = row_count

    if row_count == 0:
        return batch_type.from_scan(node.alias, np.empty(0, dtype=np.int64)), metrics, None

    driving_filter = None
    if node.index_column is not None:
        for predicate in node.filters:
            if predicate.column == node.index_column and predicate.op in (
                "=", "<", "<=", ">", ">=", "between", "in",
            ):
                driving_filter = predicate
                break

    if node.scan_type is ScanType.SEQ or driving_filter is None:
        access = (node.table, data.page_count, True)
        if node.filters:
            row_ids = batch_type.surviving(data, node.filters)
            metrics.cpu_ops += row_count * len(node.filters)
        else:
            row_ids = np.arange(row_count, dtype=np.int64)
    else:
        index = database.index(node.table, node.index_column)
        if index is None:
            raise ExecutionError(
                f"plan requires an index on {node.table}.{node.index_column} that does not exist"
            )
        lookup = _index_lookup(index, data, driving_filter)
        metrics.index_pages += lookup.index_pages
        row_ids = lookup.row_ids
        # Heap accesses: one page per matched tuple for an index scan (random),
        # page-sorted batched accesses for a bitmap heap scan (sequential-ish).
        heap_pages = min(row_ids.size, data.page_count)
        sequential = node.scan_type is ScanType.BITMAP
        if node.scan_type is ScanType.TID:
            heap_pages = min(1, data.page_count)
        access = _heap_access(node.table, data.page_count, heap_pages, sequential)
        # Remaining filters are applied (and charged) only to the matched tuples.
        remaining = [predicate for predicate in node.filters if predicate is not driving_filter]
        if remaining:
            metrics.cpu_ops += int(row_ids.size) * len(remaining)
            row_ids = row_ids[batch_type.surviving(data, remaining, row_ids)]

    metrics.tuples_out = int(row_ids.size)
    metrics.cpu_ops += int(row_ids.size)
    return batch_type.from_scan(node.alias, row_ids), metrics, access


def _heap_access(table: str, page_count: int, heap_pages: int, sequential: bool) -> PageAccess:
    """Access to ``heap_pages`` of a table's pages, counted the way the pool rounds them."""
    return table, BufferPool.fraction_pages(page_count, heap_pages / max(page_count, 1)), sequential


def _index_lookup(index, data, predicate):
    """Dispatch an index lookup for the driving filter of an index-based scan."""
    if predicate.op == "=":
        return index.lookup_eq(data.encode(predicate.column, predicate.value))
    if predicate.op == "in":
        codes = np.asarray(
            [data.encode(predicate.column, v) for v in predicate.values], dtype=np.int64
        )
        return index.lookup_in(codes)
    if predicate.op == "between":
        low = data.encode(predicate.column, predicate.values[0])
        high = data.encode(predicate.column, predicate.values[1])
        return index.lookup_range(low=low, high=high)
    if predicate.op in ("<", "<="):
        high = data.encode(predicate.column, predicate.value)
        # Open lower bounds must still exclude NULLs: the sentinel sorts below
        # every real value, so an unbounded range scan would sweep them in
        # (and disagree with the equivalent sequential scan).
        return index.lookup_range(
            low=NULL_SENTINEL + 1, high=high, include_high=predicate.op == "<="
        )
    if predicate.op in (">", ">="):
        low = data.encode(predicate.column, predicate.value)
        return index.lookup_range(low=low, high=None, include_low=predicate.op == ">=")
    raise ExecutionError(f"cannot drive an index scan with operator {predicate.op!r}")


# ---------------------------------------------------------------------------
# Joins
# ---------------------------------------------------------------------------

def index_nestloop_inner(database: Database, node: JoinNode):
    """Return ``(scan, index, join_column, probe_predicate)`` when ``node`` can
    run as an index nested loop into its right child, else ``None``.

    The inner side must be a base-table scan with an index on one of the join
    columns; in that case the executor probes the index per outer tuple instead
    of materializing the inner relation (matching PostgreSQL's parameterized
    inner index scans).  The returned predicate is the one the probe enforces —
    every *other* join predicate of the node must still be applied after the
    probe.
    """
    if node.join_type is not JoinType.NESTED_LOOP:
        return None
    inner = node.right
    if not isinstance(inner, ScanNode):
        return None
    for predicate in node.predicates:
        if predicate.involves(inner.alias):
            column = predicate.column_for(inner.alias)
            index = database.index(inner.table, column)
            if index is not None:
                return inner, index, column, predicate
    return None


def execute_index_nestloop(
    database: Database, query: BoundQuery, node: JoinNode, left: Batch, inner: tuple, counted: bool = False
) -> tuple[Batch | CountedJoin, int, OperatorMetrics, PageAccess]:
    """Evaluate a nested loop whose inner side is an index probe into a base table.

    ``inner`` is the ``(scan, index, column, probe)`` tuple
    :func:`index_nestloop_inner` resolved for ``node``.  Returns the join's
    result, the rows the inner index scan emits over all loops (the probe's
    matches that pass the scan's own filters: EXPLAIN ANALYZE's rows × loops),
    its metrics and the heap access.

    The probe is counted first.  When it matches more tuples than the outer
    rows and the index entries together, the same entries are probed over and
    over: the outer rows are then matched against the probed entries, each
    entry once, with the inner scan's filters evaluated per entry and the
    further join predicates matched on composite keys (:class:`KeyMatch`), so
    what a filter or predicate throws away is counted but never expanded, and
    with ``counted`` the result is a :class:`CountedJoin` of the outer batch
    and those entries.  A smaller probe is expanded and filtered: matching
    against entries first collects them and matches the keys once more, a
    fixed cost of tens of microseconds per probe that only a large expansion
    repays (docs/EXECUTOR.md, "What a join materializes and what it only
    counts").
    """
    inner_scan, index, _, probe = inner
    alias = inner_scan.alias
    # Every join predicate except the probe also applies — including a
    # predicate at position 0 that the probe did not enforce.  Skipping any of
    # them would silently drop a join condition and produce wrong rows.  A
    # malformed plan is rejected here, before any work is done or recorded.
    post_filters = [predicate for predicate in node.predicates if predicate is not probe]
    for predicate in post_filters:
        if not predicate.involves(alias) or predicate.other(alias)[0] not in left.aliases:
            raise ExecutionError(
                f"join predicate {predicate} does not connect the joined relations"
            )
    metrics = OperatorMetrics()
    metrics.tuples_in = left.size
    metrics.cpu_ops += left.size

    # The outer side's join-key values come from the probe predicate itself: the index is
    # on ``probe``'s inner column, so probing it with any other predicate's
    # outer values would match unrelated rows.
    outer_keys = left.fetch(database, query, *probe.other(alias))
    probed = index.probe_many(outer_keys, MAX_CROSS_PRODUCT_TUPLES)
    metrics.index_pages += probed.index_pages
    data = database.table_data(inner_scan.table)
    # Heap accesses for the matched inner tuples (random page reads); the
    # inner scan's own filters apply (and are charged) to the matched tuples.
    access = _heap_access(inner_scan.table, data.page_count, min(probed.total, data.page_count), False)
    metrics.cpu_ops += probed.total * len(inner_scan.filters)

    scanned = probed.total
    if probed.total <= left.size + index.entry_count:
        positions, rows = probed.expand()
        if inner_scan.filters:
            keep = left.surviving(data, inner_scan.filters, rows)
            positions, rows = positions[keep], rows[keep]
            scanned = int(rows.size)
        result = left.pair_with_scan(positions, alias, rows)
        for predicate in post_filters:
            result = _filter_joined(database, query, result, predicate, metrics)
    else:
        rows, keys = probed.entries()
        if inner_scan.filters:
            # A filtered-out entry matches nothing, like a NULL key.
            surviving = left.surviving(data, inner_scan.filters, rows)
            keys, values = np.full(keys.size, NULL_SENTINEL, dtype=np.int64), keys
            keys[surviving] = values[surviving]
        match = KeyMatch(outer_keys, keys)
        scanned = int(match.total)
        more = (
            (left.fetch(database, query, *predicate.other(alias)), data.gather(predicate.column_for(alias), rows))
            for predicate in post_filters
        )
        match = _refine(outer_keys, keys, match, more, metrics)
        if counted:
            result = CountedJoin(left, type(left).from_scan(alias, rows), match)
        else:
            positions, entries = match.positions()
            result = left.pair_with_scan(positions, alias, rows[entries])
    metrics.tuples_out = result.size
    metrics.cpu_ops += result.size
    return result, scanned, metrics, access


def _filter_joined(
    database: Database,
    query: BoundQuery,
    result: Batch,
    predicate: JoinPredicate,
    metrics: OperatorMetrics,
) -> Batch:
    """Keep the tuples of a joined ``result`` satisfying one more equi-predicate."""
    lvals = result.fetch(database, query, predicate.left_alias, predicate.left_column)
    rvals = result.fetch(database, query, predicate.right_alias, predicate.right_column)
    keep = (lvals == rvals) & (lvals != NULL_SENTINEL)
    metrics.cpu_ops += result.size
    return result.select(np.nonzero(keep)[0])


def _match_predicates(
    database: Database, query: BoundQuery, node: JoinNode, left: Batch, right: Batch, metrics: OperatorMetrics
) -> KeyMatch:
    """Match two inputs on all of the node's predicates at once.

    The first predicate's matches are counted and checked against the cap;
    every further predicate narrows them on composite keys (:func:`_refine`).
    SQL semantics: NULL never equals NULL.  Both sides of a join can carry
    stored NULLs (nullable foreign keys), and :class:`KeyMatch` never matches
    or counts them.
    """
    def keys(predicate: JoinPredicate) -> tuple[np.ndarray, np.ndarray]:
        left_alias, left_column, right_alias, right_column = _orient_predicate(predicate, left, right)
        return (
            left.fetch(database, query, left_alias, left_column),
            right.fetch(database, query, right_alias, right_column),
        )

    left_keys, right_keys = keys(node.predicates[0])
    match = KeyMatch(left_keys, right_keys)
    _check_cap(match.total, "equi-join")
    return _refine(left_keys, right_keys, match, map(keys, node.predicates[1:]), metrics)


def execute_join(
    database: Database,
    query: BoundQuery,
    node: JoinNode,
    left: Batch,
    right: Batch,
    work_mem_bytes: int,
    counted: bool = False,
) -> tuple[Batch | CountedJoin, OperatorMetrics]:
    """Evaluate a join node over already-evaluated children.

    With ``counted`` an equi-join returns a :class:`CountedJoin` instead of
    expanding its matches.
    """
    metrics = OperatorMetrics()
    metrics.tuples_in = left.size + right.size

    if not node.predicates:
        result = left.pair(right, *cross_product_positions(left.size, right.size))
        metrics.cpu_ops += max(left.size * right.size, 1)
        metrics.tuples_out = result.size
        return result, metrics

    match = _match_predicates(database, query, node, left, right, metrics)
    charge_join_type(database, node, left.size, right.size, work_mem_bytes, metrics)
    if counted:
        result = CountedJoin(left, right, match)
    else:
        result = left.pair(right, *match.positions())
    metrics.tuples_out = result.size
    metrics.cpu_ops += result.size
    return result, metrics


def charge_join_type(
    database: Database,
    node: JoinNode,
    left_size: int,
    right_size: int,
    work_mem_bytes: int,
    metrics: OperatorMetrics,
) -> None:
    """Charge the per-algorithm cost of a join into ``metrics``.

    The charges model the *simulated* work of the chosen join algorithm (hash
    build/probe, merge sorting, nested-loop iteration) and depend only on the
    plan and the input sizes — never on how the engine actually computed the
    match, which is what keeps simulated timings identical across engines.
    """
    if node.join_type is JoinType.HASH:
        metrics.cpu_ops += int(1.5 * right_size) + left_size
        row_width = 60
        inner_bytes = right_size * row_width
        if inner_bytes > work_mem_bytes:
            metrics.spill_bytes += inner_bytes
    elif node.join_type is JoinType.MERGE:
        metrics.sort_rows += left_size + right_size
        metrics.cpu_ops += left_size + right_size
    elif node.join_type is JoinType.NESTED_LOOP:
        inner_scan = node.right if isinstance(node.right, ScanNode) else None
        inner_index = None
        if inner_scan is not None:
            column = None
            for predicate in node.predicates:
                if predicate.involves(inner_scan.alias):
                    column = predicate.column_for(inner_scan.alias)
                    break
            if column is not None:
                inner_index = database.index(inner_scan.table, column)
        if inner_index is not None:
            metrics.index_pages += left_size * inner_index.height
            metrics.cpu_ops += left_size * inner_index.height
        else:
            metrics.cpu_ops += max(left_size * right_size, 1)
    else:  # pragma: no cover - defensive
        raise ExecutionError(f"unknown join type {node.join_type!r}")


def _orient_predicate(
    predicate: JoinPredicate, left: Batch, right: Batch
) -> tuple[str, str, str, str]:
    """Return (left_alias, left_column, right_alias, right_column) oriented to the inputs."""
    if predicate.left_alias in left.aliases and predicate.right_alias in right.aliases:
        return (
            predicate.left_alias,
            predicate.left_column,
            predicate.right_alias,
            predicate.right_column,
        )
    if predicate.right_alias in left.aliases and predicate.left_alias in right.aliases:
        return (
            predicate.right_alias,
            predicate.right_column,
            predicate.left_alias,
            predicate.left_column,
        )
    raise ExecutionError(f"join predicate {predicate} does not connect the two inputs")


#: Safety cap on the tuples one join materializes — a cross product, an
#: equi-join's matches or an index probe's — checked before allocating them.
#: Plans that exceed it are aborted and surface as timeouts in the benchmarking
#: framework, which is also how such pathological plans behave on a real system.
MAX_CROSS_PRODUCT_TUPLES = 20_000_000


def cross_product_positions(left_size: int, right_size: int) -> tuple[np.ndarray, np.ndarray]:
    """Left/right position arrays enumerating the full cross product.

    Raises :class:`ExecutionError` when the product exceeds
    :data:`MAX_CROSS_PRODUCT_TUPLES`, which the engine surfaces as a timeout.
    """
    if left_size * right_size > MAX_CROSS_PRODUCT_TUPLES:
        raise ExecutionError(
            f"cross product of {left_size} x {right_size} tuples exceeds the "
            f"executor's materialization cap"
        )
    left_pos = np.repeat(np.arange(left_size, dtype=np.int64), right_size)
    right_pos = np.tile(np.arange(right_size, dtype=np.int64), left_size)
    return left_pos, right_pos
