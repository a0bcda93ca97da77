"""Workload and query containers shared by every benchmark."""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator

from repro.catalog.schema import Schema
from repro.errors import WorkloadError
from repro.sql.binder import BoundQuery, bind_query
from repro.sql.parser import parse_select


@dataclass
class BenchmarkQuery:
    """One benchmark query: SQL text plus its bound form and family metadata."""

    query_id: str
    family: str
    sql: str
    bound: BoundQuery

    @property
    def num_relations(self) -> int:
        return self.bound.num_relations

    @property
    def num_joins(self) -> int:
        return self.bound.num_joins

    def __str__(self) -> str:
        return f"{self.query_id} ({self.num_relations} relations, {self.num_joins} joins)"


class Workload:
    """An ordered, named collection of benchmark queries with family structure."""

    def __init__(self, name: str, schema: Schema, queries: Iterable[BenchmarkQuery]) -> None:
        self.name = name
        self.schema = schema
        self._queries: list[BenchmarkQuery] = list(queries)
        self._by_id = {q.query_id: q for q in self._queries}
        if len(self._by_id) != len(self._queries):
            raise WorkloadError(f"duplicate query ids in workload {name!r}")

    # -- container protocol ----------------------------------------------------
    def __len__(self) -> int:
        return len(self._queries)

    def __iter__(self) -> Iterator[BenchmarkQuery]:
        return iter(self._queries)

    def __contains__(self, query_id: object) -> bool:
        return query_id in self._by_id

    # -- lookups ------------------------------------------------------------------
    @property
    def queries(self) -> list[BenchmarkQuery]:
        return list(self._queries)

    def query_ids(self) -> list[str]:
        return [q.query_id for q in self._queries]

    def by_id(self, query_id: str) -> BenchmarkQuery:
        try:
            return self._by_id[query_id]
        except KeyError as exc:
            raise WorkloadError(
                f"workload {self.name!r} has no query {query_id!r}"
            ) from exc

    def fingerprint(self) -> str:
        """Stable content fingerprint: name plus every (id, family, SQL) triple.

        Used by spec-based dispatch to verify that a worker's by-name rebuild
        of the workload matches the workload the grid was launched with; a
        hand-modified workload sharing a registered name fingerprints
        differently and is rejected instead of silently replaced.  Memoized:
        the query list is fixed at construction.
        """
        cached = getattr(self, "_fingerprint", None)
        if cached is not None:
            return cached
        digest = hashlib.sha256()
        digest.update(self.name.encode("utf-8"))
        for query in self._queries:
            digest.update(f"|{query.query_id}|{query.family}|{query.sql}".encode("utf-8"))
        self._fingerprint = digest.hexdigest()[:16]
        return self._fingerprint

    def families(self) -> dict[str, list[BenchmarkQuery]]:
        """Mapping of family (base-query) id to its variants, in workload order."""
        out: dict[str, list[BenchmarkQuery]] = {}
        for query in self._queries:
            out.setdefault(query.family, []).append(query)
        return out

    def family_ids(self) -> list[str]:
        seen: list[str] = []
        for query in self._queries:
            if query.family not in seen:
                seen.append(query.family)
        return seen

    def subset(self, query_ids: Iterable[str], name: str | None = None) -> "Workload":
        """A new workload containing only the given query ids (in workload order)."""
        wanted = set(query_ids)
        missing = wanted - set(self._by_id)
        if missing:
            raise WorkloadError(f"unknown query ids {sorted(missing)}")
        selected = [q for q in self._queries if q.query_id in wanted]
        return Workload(name or f"{self.name}-subset", self.schema, selected)

    # -- statistics ------------------------------------------------------------------
    def describe(self) -> str:
        lines = [
            f"workload {self.name}: {len(self)} queries across {len(self.family_ids())} families"
        ]
        joins = [q.num_joins for q in self._queries]
        if joins:
            lines.append(
                f"  joins per query: min={min(joins)} max={max(joins)} "
                f"mean={sum(joins) / len(joins):.1f}"
            )
        return "\n".join(lines)


@dataclass
class QueryTemplate:
    """A base-query template from which variants are generated.

    Attributes:
        family: the template identifier (``"1"``, ``"2"``, ...).
        relations: FROM-list entries as ``(alias, table)`` pairs.
        joins: equi-join predicates as SQL strings (``"t.id = mk.movie_id"``).
        n_variants: how many variants (``a``, ``b``, ``c`` ...) to generate.
        make_filters: callable mapping a variant index (0-based) to the list of
            single-table filter SQL strings of that variant.
        select_list: SELECT-list SQL (defaults to ``COUNT(*)`` plus MIN over
            the first relation's primary key, in the spirit of JOB).
        group_by / order_by: optional clause fragments (used by Ext-JOB).
    """

    family: str
    relations: list[tuple[str, str]]
    joins: list[str]
    n_variants: int
    make_filters: Callable[[int], list[str]]
    select_list: str | None = None
    group_by: list[str] = field(default_factory=list)
    order_by: list[str] = field(default_factory=list)

    def variant_id(self, index: int) -> str:
        letters = "abcdefghijklmnopqrstuvwxyz"
        if index >= len(letters):
            return f"{self.family}_{index}"
        return f"{self.family}{letters[index]}"

    def render_sql(self, index: int) -> str:
        if not 0 <= index < self.n_variants:
            raise WorkloadError(
                f"template {self.family} has {self.n_variants} variants, asked for {index}"
            )
        select = self.select_list
        if select is None:
            first_alias = self.relations[0][0]
            select = f"MIN({first_alias}.id) AS first_id, COUNT(*) AS result_count"
        from_clause = ", ".join(f"{table} AS {alias}" for alias, table in self.relations)
        predicates = list(self.joins) + list(self.make_filters(index))
        sql = [f"SELECT {select}", f"FROM {from_clause}"]
        if predicates:
            sql.append("WHERE " + " AND ".join(predicates))
        if self.group_by:
            sql.append("GROUP BY " + ", ".join(self.group_by))
        if self.order_by:
            sql.append("ORDER BY " + ", ".join(self.order_by))
        return "\n".join(sql) + ";"

    def build_queries(self, schema: Schema) -> list[BenchmarkQuery]:
        """Parse, bind and wrap every variant of this template."""
        queries = []
        for index in range(self.n_variants):
            sql = self.render_sql(index)
            query_id = self.variant_id(index)
            statement = parse_select(sql)
            bound = bind_query(statement, schema, name=query_id)
            queries.append(
                BenchmarkQuery(query_id=query_id, family=self.family, sql=sql, bound=bound)
            )
        return queries


def build_workload_from_templates(
    name: str, schema: Schema, templates: Iterable[QueryTemplate]
) -> Workload:
    """Materialize a workload from a sequence of templates."""
    queries: list[BenchmarkQuery] = []
    for template in templates:
        queries.extend(template.build_queries(schema))
    return Workload(name, schema, queries)
