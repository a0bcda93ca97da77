"""Relational schema definitions: tables, columns, indexes and foreign keys.

The schema objects are deliberately lightweight, hashable value objects so
that the optimizer and the encoders can use them as dictionary keys.  A
:class:`Schema` is a closed universe of :class:`Table` objects plus the
foreign-key edges between them; the workload generators and the join-graph
builder both consult it.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Iterable, Iterator

from repro.errors import CatalogError


class ColumnType(enum.Enum):
    """Supported column types of the simulated DBMS."""

    INTEGER = "integer"
    TEXT = "text"
    FLOAT = "float"

    @property
    def width_bytes(self) -> int:
        """Average on-disk width used by the cost model."""
        if self is ColumnType.INTEGER:
            return 4
        if self is ColumnType.FLOAT:
            return 8
        return 24  # average text attribute width


@dataclass(frozen=True)
class Column:
    """A single column of a table."""

    name: str
    ctype: ColumnType = ColumnType.INTEGER
    nullable: bool = True

    def __post_init__(self) -> None:
        if not self.name:
            raise CatalogError("column name must be non-empty")


@dataclass(frozen=True)
class Index:
    """A (single-column) ordered index, the analogue of a PostgreSQL B-tree."""

    table: str
    column: str
    name: str = ""
    unique: bool = False

    def __post_init__(self) -> None:
        if not self.name:
            object.__setattr__(self, "name", f"idx_{self.table}_{self.column}")


@dataclass(frozen=True)
class ForeignKey:
    """A foreign-key edge ``child.child_column -> parent.parent_column``."""

    child_table: str
    child_column: str
    parent_table: str
    parent_column: str

    @property
    def key(self) -> tuple[str, str, str, str]:
        return (self.child_table, self.child_column, self.parent_table, self.parent_column)


@dataclass
class Table:
    """A table definition: ordered columns, primary key and indexes."""

    name: str
    columns: list[Column]
    primary_key: str | None = "id"
    indexes: list[Index] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.name:
            raise CatalogError("table name must be non-empty")
        names = [c.name for c in self.columns]
        if len(names) != len(set(names)):
            raise CatalogError(f"duplicate column names in table {self.name!r}")
        self._columns_by_name = {c.name: c for c in self.columns}
        if self.primary_key is not None and self.primary_key not in self._columns_by_name:
            raise CatalogError(
                f"primary key {self.primary_key!r} is not a column of {self.name!r}"
            )

    # -- lookups -----------------------------------------------------------
    def column(self, name: str) -> Column:
        """Return the column definition or raise :class:`CatalogError`."""
        try:
            return self._columns_by_name[name]
        except KeyError as exc:
            raise CatalogError(f"table {self.name!r} has no column {name!r}") from exc

    def has_column(self, name: str) -> bool:
        return name in self._columns_by_name

    def column_names(self) -> list[str]:
        return [c.name for c in self.columns]

    def indexed_columns(self) -> set[str]:
        """Columns covered by an index (the primary key is always indexed)."""
        covered = {idx.column for idx in self.indexes}
        if self.primary_key is not None:
            covered.add(self.primary_key)
        return covered

    def has_index_on(self, column: str) -> bool:
        return column in self.indexed_columns()

    @property
    def row_width_bytes(self) -> int:
        """Average tuple width, including a fixed per-tuple header."""
        header = 24
        return header + sum(c.ctype.width_bytes for c in self.columns)

    def add_index(self, column: str, unique: bool = False) -> Index:
        """Register an additional index on ``column`` and return it."""
        if not self.has_column(column):
            raise CatalogError(f"cannot index unknown column {self.name}.{column}")
        idx = Index(table=self.name, column=column, unique=unique)
        if idx.name not in {i.name for i in self.indexes}:
            self.indexes.append(idx)
        return idx


class Schema:
    """A database schema: a named collection of tables plus foreign keys."""

    def __init__(
        self,
        name: str,
        tables: Iterable[Table],
        foreign_keys: Iterable[ForeignKey] = (),
    ) -> None:
        self.name = name
        self._tables: dict[str, Table] = {}
        for table in tables:
            if table.name in self._tables:
                raise CatalogError(f"duplicate table {table.name!r} in schema {name!r}")
            self._tables[table.name] = table
        self._foreign_keys: list[ForeignKey] = []
        for fk in foreign_keys:
            self.add_foreign_key(fk)

    # -- table access ------------------------------------------------------
    def table(self, name: str) -> Table:
        try:
            return self._tables[name]
        except KeyError as exc:
            raise CatalogError(f"schema {self.name!r} has no table {name!r}") from exc

    def has_table(self, name: str) -> bool:
        return name in self._tables

    def table_names(self) -> list[str]:
        return sorted(self._tables)

    def __contains__(self, name: object) -> bool:
        return isinstance(name, str) and name in self._tables

    def __iter__(self) -> Iterator[Table]:
        return iter(self._tables.values())

    def __len__(self) -> int:
        return len(self._tables)

    # -- foreign keys --------------------------------------------------------
    def add_foreign_key(self, fk: ForeignKey) -> None:
        """Validate and register a foreign-key edge."""
        child = self.table(fk.child_table)
        parent = self.table(fk.parent_table)
        if not child.has_column(fk.child_column):
            raise CatalogError(
                f"foreign key references unknown column {fk.child_table}.{fk.child_column}"
            )
        if not parent.has_column(fk.parent_column):
            raise CatalogError(
                f"foreign key references unknown column {fk.parent_table}.{fk.parent_column}"
            )
        if fk.key not in {existing.key for existing in self._foreign_keys}:
            self._foreign_keys.append(fk)

    @property
    def foreign_keys(self) -> list[ForeignKey]:
        return list(self._foreign_keys)

    def join_columns(self, left: str, right: str) -> list[tuple[str, str]]:
        """Column pairs ``(left_column, right_column)`` joinable via a foreign key."""
        pairs: list[tuple[str, str]] = []
        for fk in self._foreign_keys:
            if fk.child_table == left and fk.parent_table == right:
                pairs.append((fk.child_column, fk.parent_column))
            elif fk.child_table == right and fk.parent_table == left:
                pairs.append((fk.parent_column, fk.child_column))
        return pairs

    # -- convenience ----------------------------------------------------------
    def column_index(self, table: str, column: str) -> int:
        """Stable integer identifier of a column across the whole schema."""
        offset = 0
        for tname in self.table_names():
            tab = self.table(tname)
            if tname == table:
                names = tab.column_names()
                if column not in names:
                    raise CatalogError(f"schema has no column {table}.{column}")
                return offset + names.index(column)
            offset += len(tab.columns)
        raise CatalogError(f"schema {self.name!r} has no table {table!r}")

    @property
    def total_columns(self) -> int:
        return sum(len(t.columns) for t in self)

    def describe(self) -> str:
        """Multi-line human readable description of the schema."""
        lines = [f"schema {self.name} ({len(self)} tables)"]
        for tname in self.table_names():
            table = self.table(tname)
            cols = ", ".join(f"{c.name}:{c.ctype.value}" for c in table.columns)
            lines.append(f"  {tname}({cols})")
        lines.append(f"  foreign keys: {len(self._foreign_keys)}")
        return "\n".join(lines)
