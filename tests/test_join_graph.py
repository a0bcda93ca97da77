"""JoinGraph against the set-based BoundQuery methods it stands for in the enumerators.

Over every JOB, ext-JOB and STACK query: for every disjoint pair of alias masks —
sampled above six relations — :meth:`JoinGraph.predicates` returns the very
``JoinPredicate`` objects :meth:`BoundQuery.joins_between` returns, in the
same order; neighbour masks are :meth:`BoundQuery.alias_adjacency` and
connectivity is :meth:`BoundQuery.is_connected`, also with a predicate dropped.
"""

from __future__ import annotations

from dataclasses import replace
from random import Random

import pytest

from repro.optimizer.join_graph import JoinGraph
from repro.sql.binder import BoundQuery
from repro.workloads import build_workload

#: Up to this many relations every disjoint pair of masks is checked.
EXHAUSTIVE_RELATIONS = 6
#: Random disjoint pairs checked per query above it.
SAMPLED_PAIRS = 400


@pytest.fixture(scope="module")
def queries(imdb_db, stack_db) -> list[BoundQuery]:
    bound = []
    for workload, database in (("job", imdb_db), ("ext_job", imdb_db), ("stack", stack_db)):
        for query in build_workload(workload, database.schema).queries:
            bound.append(query.bound)
    assert len(bound) == 113 + 24 + 112
    return bound


def disjoint_pairs(n: int, rng: Random):
    """``(left, right)`` nonempty disjoint masks over ``n`` bits: all of them, or a sample."""
    assignments = range(3**n) if n <= EXHAUSTIVE_RELATIONS else (rng.randrange(3**n) for _ in range(SAMPLED_PAIRS))
    for assignment in assignments:
        left = right = 0
        for i in range(n):
            assignment, side = divmod(assignment, 3)
            if side == 1:
                left |= 1 << i
            elif side == 2:
                right |= 1 << i
        if left and right:
            yield left, right
    if n > EXHAUSTIVE_RELATIONS:
        everything = (1 << n) - 1
        for i in range(n):
            # One alias against the rest and against a random part of it (the single-alias paths).
            rest = everything ^ (1 << i)
            yield 1 << i, rest
            yield rng.getrandbits(n) & rest or rest, 1 << i


def aliases(graph: JoinGraph, mask: int) -> set[str]:
    return {alias for i, alias in enumerate(graph.aliases) if mask >> i & 1}


def test_predicates_are_joins_between_over_every_disjoint_pair(queries):
    rng = Random(0)
    checked = 0
    for query in queries:
        graph = JoinGraph(query)
        for left, right in disjoint_pairs(len(graph.aliases), rng):
            assert left and right and not left & right
            found = graph.predicates(left, right)
            expected = query.joins_between(aliases(graph, left), aliases(graph, right))
            assert [id(j) for j in found] == [id(j) for j in expected], (query.name, left, right)
            checked += 1
    assert checked > 50_000


def test_neighbours_aliases_and_connectivity(queries):
    for query in queries:
        for variant in (query, replace(query, joins=query.joins[1:])):
            graph = JoinGraph(variant)
            adjacency = variant.alias_adjacency()
            for i, alias in enumerate(graph.aliases):
                assert aliases(graph, graph.neighbours[i]) == adjacency[alias], (variant.name, alias)
                assert graph.aliases_of(1 << i) == {alias}
            assert graph.aliases_of((1 << len(graph.aliases)) - 1) == frozenset(variant.aliases)
            assert graph.connected == variant.is_connected(), variant.name
    assert any(not JoinGraph(replace(query, joins=query.joins[1:])).connected for query in queries)
