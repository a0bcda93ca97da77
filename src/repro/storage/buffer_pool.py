"""Page-level buffer pool with LRU eviction.

The buffer pool is the mechanism behind the paper's cold-vs-hot cache
discussion (Sections 3.3.2, 7.3, 8.6): the first execution of a query reads
most pages "from disk", subsequent executions hit the pool and are faster.
The executor asks the pool to *access* page ranges of tables and indexes and
receives back how many of those accesses were hits vs. misses, which the
timing model converts into simulated milliseconds.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass


@dataclass
class BufferPoolStats:
    """Cumulative hit/miss counters of a buffer pool."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def hit_ratio(self) -> float:
        return self.hits / self.accesses if self.accesses else 0.0

    def reset(self) -> None:
        self.hits = 0
        self.misses = 0
        self.evictions = 0


@dataclass
class PageAccessResult:
    """Outcome of accessing a contiguous range of pages of one relation."""

    requested: int
    hits: int
    misses: int

    @property
    def hit_ratio(self) -> float:
        return self.hits / self.requested if self.requested else 1.0


class BufferPool:
    """An LRU cache of ``(relation, page_number)`` keys with a fixed capacity.

    The pool does not store page *contents* — data always lives in the
    columnar arrays — it only tracks which pages would be resident so that the
    timing model can distinguish cached from uncached reads.
    """

    def __init__(self, capacity_pages: int) -> None:
        if capacity_pages < 1:
            raise ValueError("buffer pool capacity must be at least one page")
        self.capacity_pages = int(capacity_pages)
        self._pages: OrderedDict[tuple[str, int], None] = OrderedDict()
        self.stats = BufferPoolStats()

    # -- basic properties ----------------------------------------------------
    def __len__(self) -> int:
        return len(self._pages)

    @property
    def resident_pages(self) -> int:
        return len(self._pages)

    def contains(self, relation: str, page: int) -> bool:
        return (relation, page) in self._pages

    def resident_pages_of(self, relation: str) -> int:
        return sum(1 for rel, _ in self._pages if rel == relation)

    # -- access --------------------------------------------------------------
    def access_pages(
        self,
        relation: str,
        n_pages: int,
        start_page: int = 0,
        sequential: bool = True,
    ) -> PageAccessResult:
        """Access ``n_pages`` pages of ``relation`` and update residency.

        ``sequential`` is informational (random accesses are charged a higher
        per-miss cost by the timing model); residency tracking is identical.
        """
        n_pages = max(0, int(n_pages))
        hits = 0
        misses = 0
        for page in range(start_page, start_page + n_pages):
            key = (relation, page)
            if key in self._pages:
                hits += 1
                self._pages.move_to_end(key)
            else:
                misses += 1
                self._pages[key] = None
                if len(self._pages) > self.capacity_pages:
                    self._pages.popitem(last=False)
                    self.stats.evictions += 1
        self.stats.hits += hits
        self.stats.misses += misses
        return PageAccessResult(requested=n_pages, hits=hits, misses=misses)

    @staticmethod
    def fraction_pages(total_pages: int, fraction: float) -> int:
        """Pages ``fraction`` of a relation comes to: the one place that clamps and rounds
        (banker's) the page counts index and bitmap scans record."""
        return int(round(total_pages * min(max(fraction, 0.0), 1.0)))

    # -- management ------------------------------------------------------------
    def invalidate(self, relation: str | None = None) -> None:
        """Drop cached pages (all pages, or only those of ``relation``).

        This is how the benchmarking framework produces a *cold cache* before
        a measurement (Section 7.3).
        """
        if relation is None:
            self._pages.clear()
        else:
            for key in [k for k in self._pages if k[0] == relation]:
                del self._pages[key]

    def warm(self, relation: str, n_pages: int) -> None:
        """Pre-load pages of a relation without counting hits or misses."""
        for page in range(int(n_pages)):
            key = (relation, page)
            self._pages[key] = None
            self._pages.move_to_end(key)
            if len(self._pages) > self.capacity_pages:
                self._pages.popitem(last=False)

    def snapshot(self) -> dict[str, int]:
        """Mapping of relation name to number of resident pages."""
        out: dict[str, int] = {}
        for rel, _ in self._pages:
            out[rel] = out.get(rel, 0) + 1
        return out
