"""Vectorized physical operators and their work accounting.

The four operators — scan, join, outer join, index nested loop — are written
**once**, against the surface both intermediate-result representations share:
``size``, ``aliases``, ``fetch``, ``select`` plus the four representation
methods ``from_scan``, ``pair``, ``pair_with_scan`` and ``surviving``.  Every
recorded page access and every line of :class:`OperatorMetrics` arithmetic
exists in exactly one place; the engines differ only in the representation
they run on: :class:`Relation` here (per-alias row-id arrays, gathered eagerly
at every join) or the lazy :class:`~repro.executor.columnar.ColumnarBatch`.

Every operator returns the resulting batch and an :class:`OperatorMetrics`
record of the pool-independent work performed.  Operators never touch the
buffer pool: the two that read heap pages also return the :data:`PageAccess`
they would make, which the engine replays once per run (docs/EXECUTOR.md,
"Data pass vs charge") — so an operator that raises has recorded nothing.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from operator import getitem
from typing import TYPE_CHECKING, Union

import numpy as np

from repro.catalog.statistics import NULL_SENTINEL
from repro.errors import ExecutionError
from repro.optimizer.cardinality import evaluate_filter_mask
from repro.plans.physical import JoinKind, JoinNode, JoinType, ScanNode, ScanType
from repro.sql.binder import BoundQuery, FilterPredicate, JoinPredicate
from repro.storage.buffer_pool import BufferPool
from repro.storage.database import Database
from repro.storage.index import ragged_ranges

if TYPE_CHECKING:
    from repro.executor.columnar import ColumnarBatch

    #: Either intermediate-result representation (annotation only).
    Batch = Union["Relation", "ColumnarBatch"]

#: Virtual row id of a NULL-extended outer-join tuple.  Distinct from any
#: stored row: fetching it yields :data:`NULL_SENTINEL` for every column, so
#: NULL-extended output is never conflated with stored NULLs at the storage
#: layer (no sentinel is ever written into a table).
NULL_ROW_ID = -1

#: One heap access an operator would make: ``(relation, n_pages, sequential)``.
PageAccess = tuple[str, int, bool]


def gather_rows(data, column: str, row_ids: np.ndarray) -> np.ndarray:
    """Column codes for ``row_ids``, mapping :data:`NULL_ROW_ID` to the sentinel.

    Every fetch of intermediate-result columns must go through this helper:
    raw numpy indexing (``TableData.gather``) would silently wrap the virtual
    row id -1 to the *last* stored row.
    """
    row_ids = np.asarray(row_ids, dtype=np.int64)
    extended = row_ids < 0
    if not extended.any():
        return data.gather(column, row_ids)
    out = np.full(row_ids.size, NULL_SENTINEL, dtype=np.int64)
    real = ~extended
    if real.any():
        out[real] = data.gather(column, row_ids[real])
    return out


def take_rows(values: np.ndarray, positions: np.ndarray) -> np.ndarray:
    """``values[positions]`` with negative positions propagating NULL_ROW_ID.

    Used wherever row-id arrays are re-indexed by join/select positions, so a
    NULL-extended tuple stays NULL-extended through later operators instead
    of wrapping around to the last element.
    """
    positions = np.asarray(positions, dtype=np.int64)
    extended = positions < 0
    if not extended.any():
        return values[positions]
    out = np.full(positions.size, NULL_ROW_ID, dtype=np.int64)
    real = ~extended
    if real.any():
        out[real] = values[positions[real]]
    return out


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

    def _taken(self, positions: np.ndarray, null_extended: bool) -> dict[str, np.ndarray]:
        """Every alias's row ids at ``positions``; these index directly, without
        :func:`take_rows`' scan, unless they may hold :data:`NULL_ROW_ID`."""
        take = take_rows if null_extended else getitem
        return {alias: take(ids, positions) for alias, ids in self.rows.items()}

    def select(self, positions: np.ndarray) -> "Relation":
        """Keep only the tuples at ``positions`` (positional indices)."""
        return Relation(rows=self._taken(positions, False))

    def fetch(
        self, database: Database, query: BoundQuery, alias: str, column: str
    ) -> np.ndarray:
        """Column values of ``alias.column`` for every tuple of this relation."""
        if alias not in self.rows:
            raise ExecutionError(f"relation does not contain alias {alias!r}")
        data = database.table_data(query.table_of(alias))
        return gather_rows(data, column, self.rows[alias])

    # -- representation methods (mirrored by ColumnarBatch) ------------------
    @staticmethod
    def from_scan(alias: str, row_ids: np.ndarray) -> "Relation":
        """Single-alias relation over the row ids a scan produced."""
        return Relation(rows={alias: np.asarray(row_ids, dtype=np.int64)})

    def pair(
        self, right: "Relation", left_pos: np.ndarray, right_pos: np.ndarray, null_extended: bool = True
    ) -> "Relation":
        """Relation pairing ``self[left_pos[i]]`` with ``right[right_pos[i]]``.

        Eager: every carried alias's row ids are gathered here.  Positions may
        hold :data:`NULL_ROW_ID` (an outer join's) unless ``null_extended=False``.
        """
        left = self._taken(left_pos, null_extended)
        return Relation(rows={**left, **right._taken(right_pos, null_extended)})

    def pair_with_scan(self, positions: np.ndarray, alias: str, row_ids: np.ndarray) -> "Relation":
        """Relation pairing ``self[positions[i]]`` with base row ``row_ids[i]`` of ``alias``.

        The index nested loop's inner side: freshly probed row ids that need
        no re-indexing, unlike a :meth:`pair` with ``from_scan(alias, row_ids)``.
        """
        rows = self._taken(positions, False)
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


def join_match_positions(
    left_values: np.ndarray, right_values: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Positions of matching pairs between two value arrays (inner equi-join).

    Implemented with a sort + binary search, which handles duplicates on both
    sides and keeps everything vectorized.  Raises :class:`ExecutionError`
    before expanding more than :data:`MAX_CROSS_PRODUCT_TUPLES` matches.
    """
    left_values = np.asarray(left_values, dtype=np.int64)
    right_values = np.asarray(right_values, dtype=np.int64)
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
    if total > MAX_CROSS_PRODUCT_TUPLES:
        raise ExecutionError(
            f"equi-join of {total} matching tuples exceeds the executor's materialization cap"
        )
    left_positions = np.repeat(np.arange(left_values.size, dtype=np.int64), counts)
    right_positions = order[ragged_ranges(lo, hi)]
    return left_positions, right_positions


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
    if node.join_kind is not JoinKind.INNER:
        # Outer joins always go through the shared materialized join path so
        # NULL extension happens in one place.
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
    database: Database, query: BoundQuery, node: JoinNode, left: Batch, inner: tuple
) -> tuple[Batch, OperatorMetrics, PageAccess]:
    """Evaluate a nested loop whose inner side is an index probe into a base table.

    ``inner`` is the ``(scan, index, column, probe)`` tuple
    :func:`index_nestloop_inner` resolved for ``node``.
    """
    inner_scan, index, _, probe = inner
    # Every join predicate except the probe becomes a post-join filter —
    # including a predicate at position 0 that the probe did not enforce, and
    # predicates between two outer-side aliases.  Skipping any of them would
    # silently drop a join condition and produce wrong rows.  A malformed plan
    # is rejected here, before any work is done or recorded.
    joined = left.aliases | {inner_scan.alias}
    post_filters = [predicate for predicate in node.predicates if predicate is not probe]
    for predicate in post_filters:
        if predicate.left_alias not in joined or predicate.right_alias not in joined:
            raise ExecutionError(
                f"join predicate {predicate} does not connect the joined relations"
            )
    metrics = OperatorMetrics()
    metrics.tuples_in = left.size

    # Outer join-key values come from the probe predicate itself: the index is
    # on ``probe``'s inner column, so probing it with any other predicate's
    # outer values would match unrelated rows.
    outer_alias, outer_column = probe.other(inner_scan.alias)
    outer_keys = left.fetch(database, query, outer_alias, outer_column)

    probe_positions, matched_rows, index_pages = index.probe_many(outer_keys, MAX_CROSS_PRODUCT_TUPLES)
    metrics.index_pages += index_pages
    metrics.cpu_ops += left.size
    # NULL outer keys must not match NULL entries in the inner index.
    if probe_positions.size:
        not_null = outer_keys[probe_positions] != NULL_SENTINEL
        probe_positions = probe_positions[not_null]
        matched_rows = matched_rows[not_null]

    data = database.table_data(inner_scan.table)
    # Heap accesses for the matched inner tuples (random page reads).
    heap_pages = min(int(matched_rows.size), data.page_count)
    access = _heap_access(inner_scan.table, data.page_count, heap_pages, False)

    # The inner scan's own filters apply (and are charged) to the matched tuples.
    if inner_scan.filters:
        metrics.cpu_ops += int(matched_rows.size) * len(inner_scan.filters)
        keep = left.surviving(data, inner_scan.filters, matched_rows)
        probe_positions = probe_positions[keep]
        matched_rows = matched_rows[keep]

    result = left.pair_with_scan(probe_positions, inner_scan.alias, matched_rows)

    for predicate in post_filters:
        result = _filter_joined(database, query, result, predicate, metrics)

    metrics.tuples_out = result.size
    metrics.cpu_ops += result.size
    return result, metrics, access


def _match_primary(
    database: Database, query: BoundQuery, node: JoinNode, left: Batch, right: Batch
) -> tuple[np.ndarray, np.ndarray]:
    """Matching ``(left, right)`` positions under the node's first predicate.

    SQL semantics: NULL never equals NULL.  Both sides of a join can carry
    NULLs (nullable foreign keys, NULL-extended tuples of an earlier outer
    join), and the sentinel encoding would otherwise happily match them
    against each other.
    """
    left_alias, left_column, right_alias, right_column = _orient_predicate(
        node.predicates[0], left, right
    )
    left_values = left.fetch(database, query, left_alias, left_column)
    right_values = right.fetch(database, query, right_alias, right_column)
    left_pos, right_pos = join_match_positions(left_values, right_values)
    if left_pos.size:
        not_null = left_values[left_pos] != NULL_SENTINEL
        left_pos = left_pos[not_null]
        right_pos = right_pos[not_null]
    return left_pos, right_pos


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


def execute_join(
    database: Database,
    query: BoundQuery,
    node: JoinNode,
    left: Batch,
    right: Batch,
    work_mem_bytes: int,
) -> tuple[Batch, OperatorMetrics]:
    """Evaluate an inner join node over already-evaluated children."""
    metrics = OperatorMetrics()
    metrics.tuples_in = left.size + right.size

    if not node.predicates:
        result = left.pair(right, *cross_product_positions(left.size, right.size), null_extended=False)
        metrics.cpu_ops += max(left.size * right.size, 1)
        metrics.tuples_out = result.size
        return result, metrics

    left_pos, right_pos = _match_primary(database, query, node, left, right)
    charge_join_type(database, node, left.size, right.size, work_mem_bytes, metrics)
    result = left.pair(right, left_pos, right_pos, null_extended=False)

    # Additional predicates between the same two sides are applied as filters.
    for predicate in node.predicates[1:]:
        _orient_predicate(predicate, left, right)  # must connect the two inputs
        result = _filter_joined(database, query, result, predicate, metrics)

    metrics.tuples_out = result.size
    metrics.cpu_ops += result.size
    return result, metrics


def null_extend_positions(
    join_kind: JoinKind,
    left_size: int,
    right_size: int,
    left_pos: np.ndarray,
    right_pos: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Extend matched join positions with NULL-extended unmatched tuples.

    Output order is deterministic and purely positional: matched pairs first
    (in match order), then unmatched left tuples ascending paired with
    :data:`NULL_ROW_ID`, then — for FULL joins — unmatched right tuples
    ascending with NULL_ROW_ID on the left.  Both engines share this helper
    verbatim, which is what keeps their row order byte-identical.
    """
    if join_kind is JoinKind.INNER:
        return left_pos, right_pos
    unmatched_left = np.setdiff1d(np.arange(left_size, dtype=np.int64), left_pos)
    lefts = [left_pos, unmatched_left]
    rights = [right_pos, np.full(unmatched_left.size, NULL_ROW_ID, dtype=np.int64)]
    if join_kind is JoinKind.FULL:
        unmatched_right = np.setdiff1d(np.arange(right_size, dtype=np.int64), right_pos)
        lefts.append(np.full(unmatched_right.size, NULL_ROW_ID, dtype=np.int64))
        rights.append(unmatched_right)
    return np.concatenate(lefts), np.concatenate(rights)


def execute_outer_join(
    database: Database,
    query: BoundQuery,
    node: JoinNode,
    left: Batch,
    right: Batch,
    work_mem_bytes: int,
) -> tuple[Batch, OperatorMetrics]:
    """Evaluate a LEFT or FULL outer join over already-evaluated children.

    Matching is identical to the inner join (NULL keys never match), but all
    secondary ON predicates are applied positionally *before* NULL extension
    — they are part of the join condition, not post-join filters — and the
    unmatched tuples are appended as NULL-extended output afterwards.
    """
    metrics = OperatorMetrics()
    metrics.tuples_in = left.size + right.size

    if not node.predicates:
        raise ExecutionError("outer join requires at least one join predicate")

    left_pos, right_pos = _match_primary(database, query, node, left, right)

    for predicate in node.predicates[1:]:
        la, lc, ra, rc = _orient_predicate(predicate, left, right)
        lvals = left.fetch(database, query, la, lc)[left_pos]
        rvals = right.fetch(database, query, ra, rc)[right_pos]
        keep = (lvals == rvals) & (lvals != NULL_SENTINEL)
        metrics.cpu_ops += int(left_pos.size)
        left_pos = left_pos[keep]
        right_pos = right_pos[keep]

    charge_join_type(database, node, left.size, right.size, work_mem_bytes, metrics)

    left_pos, right_pos = null_extend_positions(
        node.join_kind, left.size, right.size, left_pos, right_pos
    )
    result = left.pair(right, left_pos, right_pos, null_extended=True)

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
