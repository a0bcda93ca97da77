"""The columnar representation: lazy lineages and progressive filtering.

This module is the performance half of the executor.  It runs exactly the
operators of :mod:`repro.executor.operators` — there is no second copy of
them — on a different intermediate-result representation, so results,
cardinalities, operator metrics and (therefore) simulated timings are
**byte-identical** to the row engine's by construction; the differential
suites in ``tests/test_columnar.py`` and ``tests/test_fuzz_engines.py`` hold
the two representations to it.  What changes is only how much real work the
host machine performs:

* **Late materialization.**  A :class:`ColumnarBatch` does not store one row-id
  array per base-table alias the way :class:`~repro.executor.operators.Relation`
  does.  Instead each alias keeps a :class:`_Lineage`: the row ids produced by
  its scan plus a chain of positional indirection arrays appended by every
  join/filter above it.  ``pair``/``select`` only *record* positions; actual
  row ids are composed lazily (and cached) the first time a column of that
  alias is needed.  The row representation's eager gather of every alias's
  array at every join disappears entirely.
* **Progressive filtering.**  ``surviving`` evaluates successive filters on
  the shrinking set of surviving rows rather than on the full column, using
  the subset property of :func:`repro.optimizer.cardinality.evaluate_filter_mask`
  (``mask(column[rows]) == mask(column)[rows]``).
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.errors import ExecutionError
from repro.executor.engine import ExecutionEngine
from repro.optimizer.cardinality import evaluate_filter_mask
from repro.sql.binder import BoundQuery, FilterPredicate
from repro.storage.database import Database


class _Lineage:
    """Row provenance of one alias: scan output plus positional indirections.

    ``base`` is the row-id array the alias's scan produced.  ``chain`` is a
    tuple of position arrays: ``chain[0]`` indexes into ``base``, ``chain[1]``
    indexes into ``chain[0]``, and so on.  The materialized row ids are
    ``base[chain[0][chain[1][...]]]``.  Re-indexing is associative, so
    :meth:`materialize` composes from whichever end gathers fewer entries:
    right to left every gather is as long as the last array (cheap when the
    chain shrinks), left to right each is as long as its own array (cheap
    when a join fans out).
    """

    __slots__ = ("base", "chain")

    def __init__(self, base: np.ndarray, chain: tuple[np.ndarray, ...] = ()) -> None:
        self.base = base
        self.chain = chain

    def extend(self, positions: np.ndarray) -> "_Lineage":
        """Lineage after selecting ``positions`` from the current tuples."""
        return _Lineage(self.base, self.chain + (positions,))

    def materialize(self) -> np.ndarray:
        """Compose the indirection chain into concrete base-table row ids.

        Left to right when the chain's summed lengths are below
        ``len(chain) * len(chain[-1])``, right to left otherwise; both give
        the same array.
        """
        chain = self.chain
        if not chain:
            return self.base
        if sum(len(positions) for positions in chain) < len(chain) * len(chain[-1]):
            acc = self.base
            for positions in chain:
                acc = acc[positions]
            return acc
        acc = chain[-1]
        for positions in reversed(chain[:-1]):
            acc = positions[acc]
        return self.base[acc]


class ColumnarBatch:
    """Intermediate result of the columnar engine.

    Presents the same surface the shared operators and finalization layers
    use on :class:`~repro.executor.operators.Relation` — ``size``, ``aliases``,
    ``select``, ``fetch``, a ``rows`` mapping and the four representation
    methods — but stores per-alias :class:`_Lineage` objects and materializes
    row ids lazily, caching each alias's composed array on first use.
    """

    __slots__ = ("_lineages", "_size", "_materialized")

    def __init__(self, lineages: dict[str, _Lineage], size: int) -> None:
        self._lineages = lineages
        self._size = size
        self._materialized: dict[str, np.ndarray] = {}

    # -- Relation-compatible surface ----------------------------------------
    @property
    def size(self) -> int:
        """Number of (composite) tuples in the batch."""
        return self._size

    @property
    def aliases(self) -> frozenset[str]:
        """Base-table aliases whose rows this batch carries."""
        return frozenset(self._lineages)

    @property
    def rows(self) -> dict[str, np.ndarray]:
        """Materialized per-alias row ids (Relation-shaped, for tests/tools)."""
        return {alias: self.row_ids(alias) for alias in self._lineages}

    def row_ids(self, alias: str) -> np.ndarray:
        """Concrete base-table row ids of ``alias``, composed and cached."""
        cached = self._materialized.get(alias)
        if cached is not None:
            return cached
        lineage = self._lineages.get(alias)
        if lineage is None:
            raise ExecutionError(f"relation does not contain alias {alias!r}")
        materialized = lineage.materialize()
        self._materialized[alias] = materialized
        return materialized

    def _extended(self, alias: str, positions: np.ndarray) -> _Lineage:
        """Lineage of ``alias`` after selecting ``positions``.

        When this batch already materialized the alias (someone fetched one of
        its columns), the child lineage restarts from that concrete array with
        a one-element chain — so chains stay short along the axes the plan
        actually touches instead of growing with join depth.
        """
        materialized = self._materialized.get(alias)
        if materialized is not None:
            return _Lineage(materialized, (positions,))
        return self._lineages[alias].extend(positions)

    def select(self, positions: np.ndarray) -> "ColumnarBatch":
        """Keep only the tuples at ``positions`` — O(aliases), no gathers."""
        positions = np.asarray(positions, dtype=np.int64)
        lineages = {alias: self._extended(alias, positions) for alias in self._lineages}
        return ColumnarBatch(lineages, int(positions.size))

    def fetch(
        self, database: Database, query: BoundQuery, alias: str, column: str
    ) -> np.ndarray:
        """Column values of ``alias.column`` for every tuple of this batch."""
        data = database.table_data(query.table_of(alias))
        return data.gather(column, self.row_ids(alias))

    # -- representation methods (mirroring Relation) --------------------------
    @staticmethod
    def from_scan(alias: str, row_ids: np.ndarray) -> "ColumnarBatch":
        """Single-alias batch over the row ids a scan produced."""
        row_ids = np.asarray(row_ids, dtype=np.int64)
        return ColumnarBatch({alias: _Lineage(row_ids)}, int(row_ids.size))

    def pair(self, right: "ColumnarBatch", left_pos: np.ndarray, right_pos: np.ndarray) -> "ColumnarBatch":
        """Batch pairing ``self[left_pos[i]]`` with ``right[right_pos[i]]``.

        Lazy: only records the position arrays in each side's lineage.
        """
        lineages = {alias: self._extended(alias, left_pos) for alias in self._lineages}
        for alias in right._lineages:
            lineages[alias] = right._extended(alias, right_pos)
        return ColumnarBatch(lineages, int(left_pos.size))

    def pair_with_scan(
        self, positions: np.ndarray, alias: str, row_ids: np.ndarray
    ) -> "ColumnarBatch":
        """Batch pairing ``self[positions[i]]`` with base row ``row_ids[i]`` of ``alias``.

        The index nested loop's inner side: freshly probed row ids start a
        lineage of their own, with no indirection to compose later.
        """
        lineages = {existing: self._extended(existing, positions) for existing in self._lineages}
        lineages[alias] = _Lineage(np.asarray(row_ids, dtype=np.int64))
        return ColumnarBatch(lineages, int(positions.size))

    @staticmethod
    def surviving(
        data, predicates: Sequence[FilterPredicate], row_ids: np.ndarray | None = None
    ) -> np.ndarray:
        """Positions into ``row_ids`` (``None``: the whole table) passing every predicate.

        Progressive: only the first predicate can see a full column; each
        later one is evaluated on the gathered codes of the rows still alive.
        """
        positions: np.ndarray | None = None
        for predicate in predicates:
            if positions is None:
                alive = row_ids
            elif positions.size:
                alive = positions if row_ids is None else row_ids[positions]
            else:
                break
            codes = None if alive is None else data.gather(predicate.column, alive)
            passing = np.nonzero(evaluate_filter_mask(data, predicate, codes))[0]
            positions = passing if positions is None else positions[passing]
        if positions is None:
            size = data.row_count if row_ids is None else len(row_ids)
            positions = np.arange(size, dtype=np.int64)
        return positions


# ---------------------------------------------------------------------------
# Engine
# ---------------------------------------------------------------------------

class ColumnarExecutionEngine(ExecutionEngine):
    """The shared engine and operators, run on :class:`ColumnarBatch`.

    Everything — the plan walk, the operators and their charges, timing,
    timeouts, sort, aggregation, projection, EXPLAIN row counts — is inherited
    from :class:`~repro.executor.engine.ExecutionEngine`; only the
    representation differs.
    """

    kind = "columnar"
    batch_type = ColumnarBatch
