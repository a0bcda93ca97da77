"""Columnar, dictionary-encoded table storage.

Each table is stored as a mapping ``column name -> numpy int64 array``.  Text
columns are dictionary-encoded: the array holds codes into a per-column list
of strings.  NULLs are stored as :data:`repro.catalog.statistics.NULL_SENTINEL`.

The representation is intentionally simple — the executor operates on whole
columns with vectorized numpy operations, and the cost/timing model charges
simulated I/O based on page counts derived from row counts and widths.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Mapping, Sequence

import numpy as np

from repro.catalog.schema import Table
from repro.catalog.statistics import NULL_SENTINEL
from repro.config import PAGE_SIZE_BYTES
from repro.errors import StorageError


@dataclass
class TableData:
    """In-memory contents of one table.

    Attributes:
        table: the schema definition this data conforms to.
        columns: mapping of column name to an int64 numpy array of codes.
        dictionaries: mapping of text column name to the list of strings such
            that ``dictionaries[col][code]`` is the original value.
    """

    table: Table
    columns: dict[str, np.ndarray]
    dictionaries: dict[str, list[str]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        lengths = {name: len(col) for name, col in self.columns.items()}
        if lengths:
            counts = set(lengths.values())
            if len(counts) != 1:
                raise StorageError(
                    f"inconsistent column lengths in table {self.table.name!r}: {lengths}"
                )
        for name in self.columns:
            if not self.table.has_column(name):
                raise StorageError(
                    f"data column {name!r} is not defined in table {self.table.name!r}"
                )
        for name, col in self.columns.items():
            if col.dtype != np.int64:
                self.columns[name] = col.astype(np.int64)

    # -- basic geometry ------------------------------------------------------
    @property
    def name(self) -> str:
        """Name of the table this data belongs to."""
        return self.table.name

    @property
    def row_count(self) -> int:
        """Number of rows stored (0 for a table without materialized columns)."""
        if not self.columns:
            return 0
        return len(next(iter(self.columns.values())))

    @cached_property
    def page_count(self) -> int:
        """Number of 8 KB heap pages the table would occupy on disk (columns keep their length)."""
        rows_per_page = max(1, PAGE_SIZE_BYTES // max(self.table.row_width_bytes, 1))
        return max(1, -(-self.row_count // rows_per_page))

    # -- column access --------------------------------------------------------
    def column(self, name: str) -> np.ndarray:
        """Full code array of one column (the canonical columnar accessor)."""
        try:
            return self.columns[name]
        except KeyError as exc:
            raise StorageError(
                f"table {self.table.name!r} has no materialized column {name!r}"
            ) from exc

    def gather(self, name: str, row_ids: np.ndarray) -> np.ndarray:
        """Codes of ``column[row_ids]`` — one vectorized gather.

        This is the batch accessor the executor uses to materialize a column
        for an intermediate result: ``row_ids`` may repeat and reorder rows
        freely (as join results do).
        """
        return self.column(name)[row_ids]

    def has_column(self, name: str) -> bool:
        """Whether ``name`` is a materialized column of this table."""
        return name in self.columns

    def column_names(self) -> list[str]:
        """Names of every materialized column, in storage order."""
        return list(self.columns)

    def decode(self, name: str, code: int) -> object:
        """Decode a stored code back to its user-facing value."""
        if code == NULL_SENTINEL:
            return None
        dictionary = self.dictionaries.get(name)
        if dictionary is not None:
            if 0 <= code < len(dictionary):
                return dictionary[code]
            return None
        return int(code)

    def decode_many(self, name: str, codes: np.ndarray) -> list[object]:
        """Decode a whole code array back to user-facing values in one pass.

        Element-for-element identical to calling :meth:`decode` in a loop
        (``None`` for NULL sentinels and out-of-dictionary codes, dictionary
        strings for text columns, plain ``int`` otherwise) but works off a
        single ``tolist()`` conversion instead of per-element numpy indexing.
        """
        values = np.asarray(codes, dtype=np.int64).tolist()
        dictionary = self.dictionaries.get(name)
        if dictionary is None:
            return [None if code == NULL_SENTINEL else code for code in values]
        size = len(dictionary)
        return [dictionary[code] if 0 <= code < size else None for code in values]

    def encode(self, name: str, value: object) -> int:
        """Encode a user-facing literal into the stored code space.

        Unknown text literals encode to ``-1`` which matches no row — the same
        observable behaviour as filtering on a value not present in the data.
        """
        if value is None:
            return NULL_SENTINEL
        dictionary = self.dictionaries.get(name)
        if dictionary is not None and isinstance(value, str):
            try:
                return dictionary.index(value)
            except ValueError:
                return -1
        if isinstance(value, bool):
            return int(value)
        if isinstance(value, (int, np.integer)):
            return int(value)
        if isinstance(value, float):
            return int(round(value))
        raise StorageError(
            f"cannot encode literal {value!r} for column {self.table.name}.{name}"
        )

    def codes_matching_pattern(self, name: str, pattern: str) -> np.ndarray:
        """Dictionary codes whose string matches a SQL ``LIKE`` pattern."""
        dictionary = self.dictionaries.get(name)
        if dictionary is None:
            return np.empty(0, dtype=np.int64)
        needle = pattern.replace("%", "")
        starts = pattern.endswith("%") and not pattern.startswith("%")
        ends = pattern.startswith("%") and not pattern.endswith("%")
        matches = []
        for code, value in enumerate(dictionary):
            if starts:
                ok = value.startswith(needle)
            elif ends:
                ok = value.endswith(needle)
            else:
                ok = needle in value
            if ok:
                matches.append(code)
        return np.asarray(matches, dtype=np.int64)

    # -- mutation -------------------------------------------------------------
    def select_rows(self, row_ids: np.ndarray) -> "TableData":
        """Return a new :class:`TableData` containing only ``row_ids``."""
        row_ids = np.asarray(row_ids, dtype=np.int64)
        new_columns = {name: col[row_ids] for name, col in self.columns.items()}
        return TableData(
            table=self.table,
            columns=new_columns,
            dictionaries={k: list(v) for k, v in self.dictionaries.items()},
        )

    def sample_rows(self, fraction: float, seed: int = 0) -> "TableData":
        """Bernoulli-sample rows (used to build IMDB-50% for covariate shift)."""
        if not 0.0 < fraction <= 1.0:
            raise StorageError("sample fraction must be in (0, 1]")
        rng = np.random.default_rng(seed)
        mask = rng.random(self.row_count) < fraction
        return self.select_rows(np.nonzero(mask)[0])


def build_table_data(
    table: Table,
    columns: Mapping[str, Sequence[int] | np.ndarray],
    dictionaries: Mapping[str, Iterable[str]] | None = None,
) -> TableData:
    """Convenience constructor that coerces python sequences into numpy arrays."""
    np_columns = {
        name: np.asarray(values, dtype=np.int64) for name, values in columns.items()
    }
    dicts = {name: list(values) for name, values in (dictionaries or {}).items()}
    return TableData(table=table, columns=np_columns, dictionaries=dicts)
