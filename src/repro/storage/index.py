"""Ordered single-column indexes (the simulator's B-trees).

An :class:`OrderedIndex` stores the column values in sorted order together
with the row ids that produced them, allowing

* point lookups (``column = value``) in ``O(log n)``,
* range lookups (``column < value`` etc.),
* index nested-loop probes from a join,
* ordered traversal for merge joins and index-only scans.

Page accounting mirrors a shallow B-tree: a lookup touches ``height`` index
pages plus the heap pages of the matching rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.catalog.statistics import NULL_SENTINEL
from repro.errors import ExecutionError, StorageError

#: Number of index entries that fit on one simulated index page.
INDEX_ENTRIES_PER_PAGE = 256


def ragged_ranges(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Concatenation of ``arange(lo[i], hi[i])`` for every i, fully vectorized.

    This is the expansion step shared by sort-probe joins and batched index
    probes: ``lo``/``hi`` are per-key ``searchsorted`` bounds into a sorted
    array and the result enumerates every matching offset, grouped by key in
    key order — byte-identical to the naive per-key ``np.arange`` loop.
    """
    counts = hi - lo
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    # Each output element is lo[key] + (position within its key's run).
    cumulative = np.cumsum(counts)
    run_starts = cumulative - counts
    return np.arange(total, dtype=np.int64) + np.repeat(lo - run_starts, counts)


@dataclass
class IndexLookupResult:
    """Row ids returned by an index lookup plus the pages touched to get them."""

    row_ids: np.ndarray
    index_pages: int

    @property
    def count(self) -> int:
        return int(self.row_ids.size)


@dataclass(frozen=True)
class IndexProbe:
    """Where each probing key's matches lie in an index, counted before any is expanded.

    ``lo[i]:hi[i]`` is key ``i``'s run of entries in index order (value, then
    row id); a NULL key's run is empty.  ``total`` is the number of matches.
    """

    row_ids: np.ndarray
    values: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    total: int
    index_pages: int

    def expand(self) -> tuple[np.ndarray, np.ndarray]:
        """``(probe_positions, row_ids)`` of every match: by key position, then index order."""
        counts = self.hi - self.lo
        positions = np.repeat(np.arange(counts.size, dtype=np.int64), counts)
        return positions, self.row_ids[ragged_ranges(self.lo, self.hi)]

    def entries(self) -> tuple[np.ndarray, np.ndarray]:
        """``(row_ids, values)`` of every entry some key matches, each once, in index order."""
        starts = np.unique(self.lo[self.hi > self.lo])
        ends = np.searchsorted(self.values, self.values[starts], side="right")
        entries = ragged_ranges(starts, ends)
        return self.row_ids[entries], self.values[entries]


class OrderedIndex:
    """A sorted-array index over a single integer-coded column."""

    def __init__(self, table: str, column: str, values: np.ndarray) -> None:
        values = np.asarray(values, dtype=np.int64)
        self.table = table
        self.column = column
        self.name = f"idx_{table}_{column}"
        order = np.argsort(values, kind="stable")
        self._sorted_values = values[order]
        self._row_ids = order.astype(np.int64)
        self.entry_count = int(values.size)

    # -- geometry --------------------------------------------------------------
    @property
    def page_count(self) -> int:
        """Number of simulated index pages (leaf level)."""
        return max(1, -(-self.entry_count // INDEX_ENTRIES_PER_PAGE))

    @property
    def height(self) -> int:
        """Depth of the simulated B-tree (root to leaf)."""
        if self.entry_count <= 1:
            return 1
        return max(1, int(math.ceil(math.log(self.entry_count, INDEX_ENTRIES_PER_PAGE))))

    # -- lookups ----------------------------------------------------------------
    def lookup_eq(self, value: int) -> IndexLookupResult:
        """Row ids where ``column == value``."""
        lo = int(np.searchsorted(self._sorted_values, value, side="left"))
        hi = int(np.searchsorted(self._sorted_values, value, side="right"))
        rows = self._row_ids[lo:hi]
        leaf_pages = max(1, -(-(hi - lo) // INDEX_ENTRIES_PER_PAGE))
        return IndexLookupResult(row_ids=rows, index_pages=self.height + leaf_pages - 1)

    def lookup_in(self, values: np.ndarray) -> IndexLookupResult:
        """Row ids where ``column`` is any of ``values`` (distinct probes)."""
        values = np.asarray(values, dtype=np.int64)
        if values.size == 0:
            return IndexLookupResult(row_ids=np.empty(0, dtype=np.int64), index_pages=0)
        pieces = []
        pages = 0
        for value in np.unique(values):
            result = self.lookup_eq(int(value))
            pieces.append(result.row_ids)
            pages += result.index_pages
        rows = np.concatenate(pieces) if pieces else np.empty(0, dtype=np.int64)
        return IndexLookupResult(row_ids=rows, index_pages=pages)

    def lookup_range(
        self,
        low: int | None = None,
        high: int | None = None,
        include_low: bool = True,
        include_high: bool = True,
    ) -> IndexLookupResult:
        """Row ids where ``low <= column <= high`` (bounds optional)."""
        if low is None and high is None:
            raise StorageError("range lookup requires at least one bound")
        lo_idx = 0
        hi_idx = self.entry_count
        if low is not None:
            side = "left" if include_low else "right"
            lo_idx = int(np.searchsorted(self._sorted_values, low, side=side))
        if high is not None:
            side = "right" if include_high else "left"
            hi_idx = int(np.searchsorted(self._sorted_values, high, side=side))
        hi_idx = max(hi_idx, lo_idx)
        rows = self._row_ids[lo_idx:hi_idx]
        leaf_pages = max(1, -(-(hi_idx - lo_idx) // INDEX_ENTRIES_PER_PAGE))
        return IndexLookupResult(row_ids=rows, index_pages=self.height + leaf_pages - 1)

    def probe_many(self, keys: np.ndarray, max_matches: int | None = None) -> IndexProbe:
        """Vectorized index nested-loop probe: every key's run of equal entries.

        A NULL key (:data:`NULL_SENTINEL`) matches nothing, not even a NULL
        entry, and is never counted.  More than ``max_matches`` matches raise
        :class:`~repro.errors.ExecutionError`; nothing is expanded until the
        caller asks the returned :class:`IndexProbe`.
        """
        keys = np.asarray(keys, dtype=np.int64)
        lo = np.searchsorted(self._sorted_values, keys, side="left")
        hi = np.searchsorted(self._sorted_values, keys, side="right")
        null = keys == NULL_SENTINEL
        if null.any():
            hi[null] = lo[null]
        total = int((hi - lo).sum())
        if max_matches is not None and total > max_matches:
            raise ExecutionError(
                f"index probe of {total} matching tuples exceeds the executor's materialization cap"
            )
        index_pages = int(keys.size) * self.height if self.entry_count else 0
        return IndexProbe(self._row_ids, self._sorted_values, lo, hi, total, index_pages)

    def sorted_row_ids(self) -> np.ndarray:
        """Row ids ordered by the indexed column (for merge joins)."""
        return self._row_ids.copy()

