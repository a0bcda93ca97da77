"""DPccp with a cost bound against the exhaustive submask walk it replaced.

:func:`submask_walk_search` is the reference oracle: it visits every subset
and every split of it, in descending submask order, and costs every
candidate.  :meth:`DPEnumerator.search` must fill the same table bit for bit
(inputs, join types, splits, predicate lists) over any join graph — chain,
star, cycle, clique, disconnected, with self-join predicates — bushy or
left-deep, under forced join methods and toggles, and with the all-zero cost
constants that make every candidate tie.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.config import SIMULATION_CONFIG, PostgresConfig
from repro.experiments.common import job_spec
from repro.optimizer.cost_model import JOIN_TYPE_ORDER, CostModel, PlanningContext
from repro.optimizer.enumeration import (
    DP_MAX_DISCONNECTED_RELATIONS,
    DP_MAX_RELATIONS,
    DPEntry,
    DPEnumerator,
    connected_pairs,
)
from repro.optimizer.planner import STRATEGY_DP, STRATEGY_GEQO, Planner
from repro.plans.hints import NO_HINTS, HintSet, OperatorToggles
from repro.runtime.plan_cache import PlanCache
from repro.sql.binder import BoundQuery, JoinPredicate, bind_sql
from repro.workloads import build_workload

#: Every cost term multiplies one of these: all candidates cost 0.0 and tie.
FREE = SIMULATION_CONFIG.with_overrides(
    seq_page_cost=0.0,
    random_page_cost=0.0,
    cpu_tuple_cost=0.0,
    cpu_index_tuple_cost=0.0,
    cpu_operator_cost=0.0,
)
CONFIGS = {"default": SIMULATION_CONFIG, "free": FREE}

#: Tables the generated queries draw from, each with its integer key columns.
TABLES = {
    "title": ("id", "kind_id"),
    "movie_keyword": ("movie_id", "keyword_id"),
    "keyword": ("id",),
    "movie_companies": ("movie_id", "company_id", "company_type_id"),
    "company_name": ("id",),
    "cast_info": ("movie_id", "person_id", "role_id"),
    "kind_type": ("id",),
}
SHAPES = ("chain", "star", "cycle", "clique", "disconnected", "random")
TOGGLES = (
    OperatorToggles(),
    OperatorToggles(hashjoin=False),
    OperatorToggles(nestloop=False),
    OperatorToggles(hashjoin=False, mergejoin=False),
    OperatorToggles(indexscan=False, bitmapscan=False),
)


def submask_walk_search(
    enumerator: DPEnumerator, query: BoundQuery, hints: HintSet, context: PlanningContext
) -> dict[int, DPEntry]:
    """The DP table by the exhaustive walk: every subset, every split, every candidate costed."""
    cost_model = enumerator.cost_model
    cheapest_join = cost_model.cheapest_join
    allowed = cost_model.allowed_operators(hints, context)
    aliases = query.aliases
    n = len(aliases)
    bit_of = {alias: 1 << i for i, alias in enumerate(aliases)}
    best: dict[int, DPEntry] = {
        bit_of[alias]: DPEntry(
            cost_model.join_input(query, cost_model.best_scan(query, alias, hints, context), context)
        )
        for alias in aliases
    }
    inputs = {mask: entry.input for mask, entry in best.items()}
    edges = [(bit_of[j.left_alias] | bit_of[j.right_alias], j) for j in query.joins]
    neighbours = dict.fromkeys(best, 0)
    for edge_mask, join in edges:
        neighbours[bit_of[join.left_alias]] |= edge_mask
        neighbours[bit_of[join.right_alias]] |= edge_mask

    def connected(mask: int) -> bool:
        reached = frontier = mask & -mask
        while frontier:
            bit = frontier & -frontier
            grown = neighbours[bit] & mask & ~reached
            reached |= grown
            frontier = (frontier ^ bit) | grown
        return reached == mask

    full_mask = (1 << n) - 1
    fully_connected = connected(full_mask)
    left_deep_only = not enumerator.consider_bushy
    for mask in range(3, full_mask + 1):
        if mask & (mask - 1) == 0 or (fully_connected and not connected(mask)):
            continue
        splits: list[tuple[int, int]] = []
        sub = (mask - 1) & mask
        while sub:
            if sub in inputs and mask ^ sub in inputs:
                splits.append((sub, mask ^ sub))
            sub = (sub - 1) & mask
        inside = [edge for edge in edges if edge[0] & mask == edge[0]]
        join_types = allowed.join_types
        if hints.join_methods:
            members = frozenset(alias for alias in aliases if bit_of[alias] & mask)
            join_types = allowed.join_types_for(hints, members)
        winner: tuple | None = None
        # First pass: splits joined by a predicate (one list for both orientations).
        crossing: dict[int, list[JoinPredicate]] = {}
        for sub, other in splits:
            if left_deep_only and other.bit_count() != 1:
                continue
            predicates = crossing.get(other)
            if predicates is None:
                predicates = crossing[sub] = [
                    j for edge_mask, j in inside if edge_mask & sub and edge_mask & other
                ]
            if not predicates:
                continue
            join_type, estimates = cheapest_join(
                query, join_types, inputs[sub], inputs[other], predicates, context
            )
            if winner is None or estimates[1] < winner[1][1]:
                winner = (join_type, estimates, sub, other, predicates)
        # Second pass, only when the first found nothing: cross products.
        if winner is None:
            for sub, other in splits:
                if left_deep_only and sub.bit_count() != 1 and other.bit_count() != 1:
                    continue
                join_type, estimates = cheapest_join(
                    query, join_types, inputs[sub], inputs[other], [], context
                )
                if winner is None or estimates[1] < winner[1][1]:
                    winner = (join_type, estimates, sub, other, [])
        if winner is not None:
            join_type, estimates, sub, other, predicates = winner
            record = inputs[mask] = cost_model.joined_input(inputs[sub], inputs[other], estimates)
            best[mask] = DPEntry(record, join_type, sub, other, predicates)
    return best


def _exact(table: dict[int, DPEntry]) -> list[tuple]:
    """A table as comparable values, floats by their bits, in insertion order."""
    return [
        (
            mask,
            entry.input.rows.hex(),
            entry.input.cost.hex(),
            entry.input.width.hex(),
            entry.input.sort_cost.hex(),
            entry.input.scan,
            entry.join_type,
            entry.left,
            entry.right,
            tuple(entry.predicates),
        )
        for mask, entry in table.items()
    ]


def _graph_edges(shape: str, n: int, draw) -> list[tuple[int, int]]:
    if shape == "chain":
        return [(i, i + 1) for i in range(n - 1)]
    if shape == "star":
        hub = draw(st.integers(0, n - 1))
        return [(hub, i) for i in range(n) if i != hub]
    if shape == "cycle":
        return [(i, (i + 1) % n) for i in range(n)] if n > 2 else [(0, 1)]
    if shape == "clique":
        return [(i, j) for i in range(n) for j in range(i + 1, n)]
    if shape == "disconnected":
        # Two or more components: a random chain per block of a random cut.
        cuts = sorted(draw(st.sets(st.integers(1, n - 1), min_size=1, max_size=n - 1)))
        edges = []
        for start, stop in zip([0, *cuts], [*cuts, n]):
            edges += [(i, i + 1) for i in range(start, stop - 1) if draw(st.booleans())]
        return edges
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    return draw(st.lists(st.sampled_from(pairs), min_size=1, max_size=2 * n))


@st.composite
def join_graphs(draw, max_relations: int = 8):
    """``(shape, SQL text, self-join predicates to add)`` over the IMDB schema."""
    n = draw(st.integers(2, max_relations))
    shape = draw(st.sampled_from(SHAPES))
    tables = draw(st.lists(st.sampled_from(sorted(TABLES)), min_size=n, max_size=n))
    conditions = []
    for i, j in _graph_edges(shape, n, draw):
        left = draw(st.sampled_from(TABLES[tables[i]]))
        right = draw(st.sampled_from(TABLES[tables[j]]))
        conditions.append(f"a{i}.{left} = a{j}.{right}")
    for i in range(n):
        limit = draw(st.sampled_from((None, 20, 500, 5000)))
        if limit is not None:
            conditions.append(f"a{i}.{TABLES[tables[i]][0]} < {limit}")
    sql = "SELECT COUNT(*) FROM " + ", ".join(f"{table} AS a{i}" for i, table in enumerate(tables))
    if conditions:
        sql += " WHERE " + " AND ".join(conditions)
    self_joins = [
        (i, draw(st.sampled_from(TABLES[tables[i]])), draw(st.sampled_from(TABLES[tables[i]])))
        for i in draw(st.lists(st.integers(0, n - 1), max_size=2))
    ]
    return shape, sql, self_joins


@st.composite
def planning_cases(draw):
    """A join graph plus everything else a DP search depends on."""
    shape, sql, self_joins = draw(join_graphs())
    n = sql.count(" AS ")
    forced = draw(st.lists(
        st.tuples(st.integers(3, (1 << n) - 1), st.sampled_from(JOIN_TYPE_ORDER)), max_size=4
    ))
    return {
        "shape": shape,
        "sql": sql,
        "self_joins": self_joins,
        "config": draw(st.sampled_from(sorted(CONFIGS))),
        "bushy": draw(st.booleans()),
        "toggles": draw(st.sampled_from(TOGGLES)),
        "forced": forced,
    }


def _bind(imdb_db, case: dict) -> BoundQuery:
    query = bind_sql(case["sql"], imdb_db.schema, name="dp-case")
    # The binder keeps no same-alias equality; a rewritten query may carry one.
    for i, left, right in case["self_joins"]:
        query.joins.append(JoinPredicate(f"a{i}", left, f"a{i}", right))
    return query


def _hints(query: BoundQuery, case: dict) -> HintSet:
    join_methods = {
        frozenset(alias for i, alias in enumerate(query.aliases) if mask >> i & 1): join_type
        for mask, join_type in case["forced"]
        if mask < 1 << len(query.aliases) and mask.bit_count() > 1
    }
    return HintSet(toggles=case["toggles"], join_methods=join_methods)


class TestSameTableAsTheSubmaskWalk:
    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(case=planning_cases())
    def test_every_entry_is_bit_identical(self, imdb_db, case):
        query = _bind(imdb_db, case)
        hints = _hints(query, case)
        model = CostModel(imdb_db, CONFIGS[case["config"]])
        enumerator = DPEnumerator(model, consider_bushy=case["bushy"])
        expected = submask_walk_search(enumerator, query, hints, model.planning_context())
        searched = enumerator.search(query, hints, model.planning_context())
        assert _exact(searched) == _exact(expected), case
        assert (1 << len(query.aliases)) - 1 in searched

    @pytest.mark.parametrize("config", sorted(CONFIGS))
    @pytest.mark.parametrize("bushy", (True, False), ids=("bushy", "left-deep"))
    def test_every_job_query_below_the_geqo_threshold(self, imdb_db, job_workload, config, bushy):
        model = CostModel(imdb_db, CONFIGS[config])
        enumerator = DPEnumerator(model, consider_bushy=bushy)
        queries = [q.bound for q in job_workload if q.num_relations < 10]
        assert len(queries) > 60
        for query in queries:
            expected = submask_walk_search(enumerator, query, NO_HINTS, model.planning_context())
            searched = enumerator.search(query, NO_HINTS, model.planning_context())
            assert _exact(searched) == _exact(expected), query.name


class TestConnectedPairs:
    @settings(max_examples=200, deadline=None)
    @given(n=st.integers(1, 9), data=st.data())
    def test_every_pair_once(self, n, data):
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        edges = data.draw(st.lists(st.sampled_from(pairs), max_size=3 * n)) if pairs else []
        adjacent = [0] * n
        for i, j in edges:
            adjacent[i] |= 1 << j
            adjacent[j] |= 1 << i

        def connected(mask: int) -> bool:
            reached = frontier = mask & -mask
            while frontier:
                bit = frontier & -frontier
                grown = adjacent[bit.bit_length() - 1] & mask & ~reached
                reached |= grown
                frontier = (frontier ^ bit) | grown
            return reached == mask

        def joined(a: int, b: int) -> bool:
            return any(adjacent[i] & b for i in range(n) if a >> i & 1)

        expected: dict[int, list[int]] = {}
        for mask in range(1, 1 << n):
            sub = (mask - 1) & mask
            while sub:
                other = mask ^ sub
                if sub & -sub < other & -other and connected(sub) and connected(other) and joined(sub, other):
                    expected.setdefault(mask, []).append(sub)
                sub = (sub - 1) & mask
        found = connected_pairs(adjacent)
        assert {mask: sorted(firsts) for mask, firsts in found.items()} == {
            mask: sorted(firsts) for mask, firsts in expected.items()
        }

    def test_complete_graph_pair_count(self):
        n = 8
        complete = [((1 << n) - 1) ^ (1 << i) for i in range(n)]
        assert sum(map(len, connected_pairs(complete).values())) == (3**n - 2 ** (n + 1) + 1) // 2


class TestCostBound:
    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(case=planning_cases())
    def test_bound_never_exceeds_any_join_types_cost(self, imdb_db, case):
        """Over every ordered split of every planned subset, for each join type."""
        query = _bind(imdb_db, case)
        model = CostModel(imdb_db, CONFIGS[case["config"]])
        hints = _hints(query, case)
        context = model.planning_context()
        table = DPEnumerator(model, consider_bushy=case["bushy"]).search(query, hints, context)
        bit_of = {alias: 1 << i for i, alias in enumerate(query.aliases)}
        edges = [(bit_of[j.left_alias] | bit_of[j.right_alias], j) for j in query.joins]
        checked = 0
        for mask in table:
            sub = (mask - 1) & mask
            while sub:
                other = mask ^ sub
                if sub in table and other in table:
                    left, right = table[sub].input, table[other].input
                    predicates = [j for edge_mask, j in edges if edge_mask & sub and edge_mask & other]
                    bound = model.join_cost_bound(left, right)
                    for candidate in {tuple(predicates), ()}:
                        for join_type in JOIN_TYPE_ORDER:
                            _, (_, cost) = model.cheapest_join(
                                query, (join_type,), left, right, candidate, context
                            )
                            assert bound <= cost, (join_type, sub, other)
                            checked += 1
                sub = (sub - 1) & mask
        assert checked or len(query.aliases) == 1


class TestCandidateCount:
    def test_a_third_of_the_walks_candidates_on_job_at_the_benchmark_scale(self, monkeypatch):
        database = job_spec(1.0).build()
        model = Planner(database).cost_model
        enumerator = DPEnumerator(model)
        queries = [
            q.bound for q in build_workload("job", database.schema).queries
            if q.num_relations < SIMULATION_CONFIG.geqo_threshold
        ]
        assert len(queries) == 90
        costed = 0
        cheapest_join = CostModel.cheapest_join

        def counted(self, *args, **kwargs):
            nonlocal costed
            costed += 1
            return cheapest_join(self, *args, **kwargs)

        monkeypatch.setattr(CostModel, "cheapest_join", counted)
        for query in queries:
            enumerator.search(query, NO_HINTS, model.planning_context())
        searched_count, costed = costed, 0
        for query in queries:
            submask_walk_search(enumerator, query, NO_HINTS, model.planning_context())
        walk_count = costed
        assert searched_count <= 0.4 * walk_count, (searched_count, walk_count)


class TestRouting:
    """Which queries DP takes: connected graphs up to 17 relations, disconnected ones up to 12;
    GEQO plans the others, ``geqo`` on or off."""

    @staticmethod
    def _query(imdb_db, n: int, connected: bool) -> BoundQuery:
        conditions = [f"a{i}.id = a{i + 1}.kind_id" for i in range(n - 1) if connected or i != n // 2]
        tables = ", ".join(f"title AS a{i}" for i in range(n))
        return bind_sql(f"SELECT COUNT(*) FROM {tables} WHERE {' AND '.join(conditions)}", imdb_db.schema)

    def test_limits(self, imdb_db):
        assert DPEnumerator.accepts(self._query(imdb_db, DP_MAX_RELATIONS, True))
        assert not DPEnumerator.accepts(self._query(imdb_db, DP_MAX_RELATIONS + 1, True))
        assert DPEnumerator.accepts(self._query(imdb_db, DP_MAX_DISCONNECTED_RELATIONS, False))
        assert not DPEnumerator.accepts(self._query(imdb_db, DP_MAX_DISCONNECTED_RELATIONS + 1, False))

    def test_geqo_off_plans_every_job_query_by_dp(self, imdb_db, job_workload):
        planner = Planner(imdb_db, SIMULATION_CONFIG.with_overrides(geqo=False), plan_cache=PlanCache())
        big = [q for q in job_workload if q.num_relations >= 14]
        assert {q.num_relations for q in big} == {14, 17}
        for query in big:
            assert planner.plan_with_info(query.bound).strategy == STRATEGY_DP, query.query_id

    def test_a_large_disconnected_query_goes_to_geqo(self, imdb_db):
        planner = Planner(imdb_db, SIMULATION_CONFIG.with_overrides(geqo=False), plan_cache=PlanCache())
        query = self._query(imdb_db, DP_MAX_DISCONNECTED_RELATIONS + 1, False)
        assert planner.plan_with_info(query).strategy == STRATEGY_GEQO


class TestCostConstants:
    @pytest.mark.parametrize(
        "knob", ("seq_page_cost", "random_page_cost", "cpu_tuple_cost", "cpu_index_tuple_cost",
                 "cpu_operator_cost", "parallel_setup_cost", "parallel_tuple_cost"),
    )
    def test_a_negative_cost_constant_raises(self, knob):
        with pytest.raises(ValueError, match=knob):
            PostgresConfig(**{knob: -0.5})
        with pytest.raises(ValueError, match=knob):
            SIMULATION_CONFIG.with_overrides(**{knob: math.nan})
        assert getattr(SIMULATION_CONFIG.with_overrides(**{knob: 0.0}), knob) == 0.0
