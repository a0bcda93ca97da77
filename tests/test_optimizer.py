"""Tests for cardinality estimation, the cost model, enumeration, GEQO and the planner."""

import json
import pickle
import sys
import threading
from pathlib import Path
from random import Random

import pytest

from repro.catalog.imdb import generate_imdb
from repro.config import SIMULATION_CONFIG
from repro.errors import OptimizerError
from repro.experiments.common import job_spec
from repro.optimizer.cardinality import CardinalityEstimator
from repro.optimizer.cost_model import CostModel
from repro.optimizer.enumeration import (
    DPEnumerator,
    enumerate_join_trees,
    greedy_plan,
    left_deep_plan_from_order,
)
from repro.optimizer.geqo import GeqoEnumerator, GeqoParameters
from repro.optimizer.planner import (
    STRATEGY_DP,
    STRATEGY_FORCED,
    STRATEGY_GEQO,
    STRATEGY_GREEDY,
    Planner,
)
from repro.plans.hints import BAO_HINT_SETS, NO_HINTS, HintSet, OperatorToggles
from repro.plans.physical import (
    JoinNode,
    JoinType,
    ScanType,
    plan_join_nodes,
    plan_scan_nodes,
    strip_decorations,
)
from repro.plans.properties import is_left_deep, join_order_of
from repro.runtime.plan_cache import PlanCache
from repro.sql.binder import bind_sql

REPO_ROOT = Path(__file__).resolve().parents[1]
if str(REPO_ROOT) not in sys.path:
    sys.path.insert(0, str(REPO_ROOT))

from tools import record_plan_digests  # noqa: E402

THREE_WAY = (
    "SELECT COUNT(*) FROM title AS t, movie_keyword AS mk, keyword AS k "
    "WHERE t.id = mk.movie_id AND mk.keyword_id = k.id "
    "AND k.keyword = 'sequel' AND t.production_year > 2000"
)

FIVE_WAY = (
    "SELECT COUNT(*) FROM title AS t, movie_keyword AS mk, keyword AS k, "
    "movie_companies AS mc, company_name AS cn "
    "WHERE t.id = mk.movie_id AND mk.keyword_id = k.id AND mc.movie_id = t.id "
    "AND mc.company_id = cn.id AND cn.country_code = '[us]'"
)


@pytest.fixture(scope="module")
def queries(imdb_db):
    return {
        "three": bind_sql(THREE_WAY, imdb_db.schema, name="three"),
        "five": bind_sql(FIVE_WAY, imdb_db.schema, name="five"),
    }


class TestCardinality:
    def test_base_rows_between_one_and_table_rows(self, imdb_db, queries):
        estimator = CardinalityEstimator(imdb_db)
        q = queries["three"]
        rows = estimator.base_rows(q, "t")
        assert 1.0 <= rows <= estimator.table_rows(q, "t")

    def test_equality_filter_more_selective_than_range(self, imdb_db, queries):
        estimator = CardinalityEstimator(imdb_db)
        q = queries["three"]
        eq_sel = estimator.filter_selectivity(q, q.filters_for("k")[0])
        range_sel = estimator.filter_selectivity(q, q.filters_for("t")[0])
        assert 0.0 <= eq_sel <= 1.0 and 0.0 <= range_sel <= 1.0
        assert eq_sel < range_sel

    def test_range_estimate_close_to_truth(self, imdb_db, queries):
        estimator = CardinalityEstimator(imdb_db)
        q = queries["three"]
        error = estimator.estimation_error(q, "t")
        assert error < 3.0  # single-column range on histogrammed data is decent

    def test_join_selectivity_in_unit_interval(self, imdb_db, queries):
        estimator = CardinalityEstimator(imdb_db)
        q = queries["three"]
        for predicate in q.joins:
            assert 0.0 < estimator.join_selectivity(q, predicate) <= 1.0


class TestCostModel:
    def test_best_scan_prefers_index_for_selective_filter(self, imdb_db, queries):
        model = CostModel(imdb_db)
        q = queries["three"]
        scan = model.best_scan(q, "t")
        assert scan.scan_type in (ScanType.INDEX, ScanType.BITMAP, ScanType.SEQ)
        candidates = model.candidate_scans(q, "t")
        assert any(c.scan_type is not ScanType.SEQ for c in candidates)

    def test_seqscan_chosen_without_filters(self, imdb_db, queries):
        model = CostModel(imdb_db)
        q = queries["five"]
        scan = model.best_scan(q, "mk")
        assert scan.scan_type is ScanType.SEQ

    def test_disabling_scan_types_respected(self, imdb_db, queries):
        model = CostModel(imdb_db)
        q = queries["three"]
        hints = HintSet(toggles=OperatorToggles(indexscan=False, bitmapscan=False))
        candidates = model.candidate_scans(q, "t", hints)
        assert all(c.scan_type in (ScanType.SEQ, ScanType.TID) for c in candidates)

    def test_forced_scan_method(self, imdb_db, queries):
        model = CostModel(imdb_db)
        q = queries["three"]
        hints = HintSet(scan_methods={"t": ScanType.BITMAP})
        scan = model.best_scan(q, "t", hints)
        assert scan.scan_type is ScanType.BITMAP

    def test_join_cost_positive_and_cumulative(self, imdb_db, queries):
        model = CostModel(imdb_db)
        q = queries["three"]
        left = model.best_scan(q, "t")
        right = model.best_scan(q, "mk")
        join = model.best_join(q, left, right)
        assert join.estimated_cost >= max(left.estimated_cost, right.estimated_cost)
        assert join.estimated_rows >= 1.0

    def test_forced_join_method(self, imdb_db, queries):
        model = CostModel(imdb_db)
        q = queries["three"]
        left = model.best_scan(q, "t")
        right = model.best_scan(q, "mk")
        hints = HintSet(join_methods={frozenset({"t", "mk"}): JoinType.MERGE})
        join = model.best_join(q, left, right, hints)
        assert join.join_type is JoinType.MERGE

    def test_hash_join_usually_beats_materialized_nestloop(self, imdb_db, queries):
        model = CostModel(imdb_db)
        q = queries["five"]
        left = model.best_scan(q, "mk")
        right = model.best_scan(q, "mc")
        hash_join = model.join_node(q, JoinType.HASH, left, right, q.joins_between({"mk"}, {"mc"}))
        nested_loop = model.join_node(q, JoinType.NESTED_LOOP, left, right, [])
        assert hash_join.estimated_cost < nested_loop.estimated_cost


class TestEnumeration:
    def test_left_deep_plan_covers_all_aliases(self, imdb_db, queries):
        model = CostModel(imdb_db)
        q = queries["five"]
        plan = left_deep_plan_from_order(q, model, list(q.aliases))
        assert plan.aliases == frozenset(q.aliases)
        assert is_left_deep(plan)

    def test_left_deep_plan_rejects_unknown_alias(self, imdb_db, queries):
        model = CostModel(imdb_db)
        with pytest.raises(OptimizerError):
            left_deep_plan_from_order(queries["three"], model, ["t", "zz"])

    def test_dp_beats_or_matches_worst_order(self, imdb_db, queries):
        model = CostModel(imdb_db)
        q = queries["five"]
        dp_plan = DPEnumerator(model).plan(q)
        worst = max(
            left_deep_plan_from_order(q, model, order).estimated_cost
            for order in (list(q.aliases), list(reversed(q.aliases)))
        )
        assert dp_plan.estimated_cost <= worst
        assert dp_plan.aliases == frozenset(q.aliases)

    def test_dp_left_deep_only_mode(self, imdb_db, queries):
        model = CostModel(imdb_db)
        q = queries["five"]
        plan = DPEnumerator(model, consider_bushy=False).plan(q)
        assert is_left_deep(plan)

    def test_greedy_plan_covers_all_aliases(self, imdb_db, queries):
        model = CostModel(imdb_db)
        q = queries["five"]
        plan = greedy_plan(q, model)
        assert plan.aliases == frozenset(q.aliases)

    def test_enumerate_join_trees_shapes_and_coverage(self, imdb_db, queries):
        model = CostModel(imdb_db)
        q = queries["three"]
        plans = list(enumerate_join_trees(q, model))
        assert len(plans) >= 4
        assert all(p.aliases == frozenset(q.aliases) for p in plans)

    def test_enumerate_join_trees_refuses_large_queries(self, imdb_db, queries):
        model = CostModel(imdb_db)
        with pytest.raises(OptimizerError):
            list(enumerate_join_trees(queries["five"], model, max_relations=3))


class TestGeqo:
    def test_geqo_produces_valid_plan(self, imdb_db, queries):
        model = CostModel(imdb_db)
        geqo = GeqoEnumerator(model, GeqoParameters(population_size=12, generations=5))
        plan = geqo.plan(queries["five"])
        assert plan.aliases == frozenset(queries["five"].aliases)

    def test_geqo_deterministic_for_seed(self, imdb_db, queries):
        model = CostModel(imdb_db)
        params = GeqoParameters(population_size=10, generations=4, seed=3)
        a = GeqoEnumerator(model, params).plan(queries["five"])
        b = GeqoEnumerator(model, params).plan(queries["five"])
        assert join_order_of(a) == join_order_of(b)

    def test_geqo_not_much_worse_than_dp(self, imdb_db, queries):
        model = CostModel(imdb_db)
        q = queries["five"]
        dp_cost = DPEnumerator(model).plan(q).estimated_cost
        geqo_cost = GeqoEnumerator(model).plan(q).estimated_cost
        assert geqo_cost <= dp_cost * 5.0


def random_join_query(schema, rng: Random, n_relations: int) -> str:
    """A random connected join query grown along the schema's FK edges.

    Starts from a random foreign key and repeatedly attaches a new table via a
    random edge touching the current table set, yielding a connected join
    graph of ``n_relations`` distinct tables.
    """
    edges = [
        (fk.child_table, fk.child_column, fk.parent_table, fk.parent_column)
        for fk in schema.foreign_keys
        if fk.child_table != fk.parent_table
    ]
    start = edges[rng.randrange(len(edges))]
    tables = {start[0], start[2]}
    conditions = [f"{start[0]}.{start[1]} = {start[2]}.{start[3]}"]
    while len(tables) < n_relations:
        candidates = [
            e
            for e in edges
            if (e[0] in tables) != (e[2] in tables)  # exactly one endpoint inside
        ]
        if not candidates:
            break
        child, child_col, parent, parent_col = candidates[rng.randrange(len(candidates))]
        tables.add(child if parent in tables else parent)
        conditions.append(f"{child}.{child_col} = {parent}.{parent_col}")
    from_clause = ", ".join(f"{t} AS {t}" for t in sorted(tables))
    return f"SELECT COUNT(*) FROM {from_clause} WHERE {' AND '.join(conditions)}"


class TestPlannerProperties:
    """Property-style invariants on randomized join graphs (seeded for determinism)."""

    N_RANDOM_GRAPHS = 12

    def test_dp_cost_never_worse_than_greedy(self, imdb_db):
        """DP is exhaustive over a superset of greedy's search space."""
        rng = Random(0)
        model = CostModel(imdb_db)
        for trial in range(self.N_RANDOM_GRAPHS):
            sql = random_join_query(imdb_db.schema, rng, rng.randint(3, 6))
            query = bind_sql(sql, imdb_db.schema, name=f"prop-{trial}")
            dp_cost = DPEnumerator(model).plan(query).estimated_cost
            greedy_cost = greedy_plan(query, model).estimated_cost
            assert dp_cost <= greedy_cost * (1 + 1e-9), sql

    def test_dp_cost_never_worse_than_random_left_deep_orders(self, imdb_db):
        rng = Random(0)
        model = CostModel(imdb_db)
        for trial in range(self.N_RANDOM_GRAPHS // 2):
            sql = random_join_query(imdb_db.schema, rng, rng.randint(3, 5))
            query = bind_sql(sql, imdb_db.schema, name=f"prop-ld-{trial}")
            dp_cost = DPEnumerator(model).plan(query).estimated_cost
            for _ in range(4):
                order = list(query.aliases)
                rng.shuffle(order)
                shuffled = left_deep_plan_from_order(query, model, order)
                assert dp_cost <= shuffled.estimated_cost * (1 + 1e-9), (sql, order)

    def test_geqo_respects_threshold(self, imdb_db):
        """The planner switches to GEQO exactly at ``geqo_threshold`` relations."""
        rng = Random(0)
        for trial in range(self.N_RANDOM_GRAPHS):
            n = rng.randint(3, 6)
            sql = random_join_query(imdb_db.schema, rng, n)
            query = bind_sql(sql, imdb_db.schema, name=f"prop-geqo-{trial}")
            threshold = rng.randint(2, 8)
            config = SIMULATION_CONFIG.with_overrides(geqo=True, geqo_threshold=threshold)
            strategy = Planner(imdb_db, config).plan_with_info(query).strategy
            if query.num_relations >= threshold:
                assert strategy == STRATEGY_GEQO, (sql, threshold)
            else:
                assert strategy != STRATEGY_GEQO, (sql, threshold)

    def test_geqo_disabled_never_selected(self, imdb_db):
        rng = Random(0)
        for trial in range(self.N_RANDOM_GRAPHS // 2):
            sql = random_join_query(imdb_db.schema, rng, rng.randint(3, 6))
            query = bind_sql(sql, imdb_db.schema, name=f"prop-nogeqo-{trial}")
            config = SIMULATION_CONFIG.with_overrides(geqo=False, geqo_threshold=2)
            result = Planner(imdb_db, config).plan_with_info(query)
            assert result.strategy in (STRATEGY_DP, STRATEGY_GREEDY)

    def test_geqo_plan_still_covers_all_aliases(self, imdb_db):
        rng = Random(0)
        config = SIMULATION_CONFIG.with_overrides(geqo=True, geqo_threshold=2)
        for trial in range(self.N_RANDOM_GRAPHS // 2):
            sql = random_join_query(imdb_db.schema, rng, rng.randint(4, 6))
            query = bind_sql(sql, imdb_db.schema, name=f"prop-cover-{trial}")
            plan = Planner(imdb_db, config).plan(query)
            assert strip_decorations(plan).aliases == frozenset(query.aliases)


class TestPlanner:
    def test_small_query_uses_dp(self, imdb_db, queries):
        planner = Planner(imdb_db)
        result = planner.plan_with_info(queries["three"])
        assert result.strategy == STRATEGY_DP
        assert result.planning_time_ms > 0

    def test_geqo_used_beyond_threshold(self, imdb_db, job_workload):
        config = SIMULATION_CONFIG.with_overrides(geqo_threshold=6)
        planner = Planner(imdb_db, config)
        big = next(q for q in job_workload if q.num_relations >= 8)
        result = planner.plan_with_info(big.bound)
        assert result.strategy == STRATEGY_GEQO

    def test_forced_join_order_respected(self, imdb_db, queries):
        planner = Planner(imdb_db)
        q = queries["three"]
        hints = HintSet.from_join_order(["k", "mk", "t"])
        result = planner.plan_with_info(q, hints)
        assert result.strategy == STRATEGY_FORCED
        assert join_order_of(result.plan) == ("k", "mk", "t")

    def test_leading_prefix_respected(self, imdb_db, queries):
        planner = Planner(imdb_db)
        q = queries["five"]
        hints = HintSet.from_leading_prefix(["cn", "mc"])
        plan = planner.plan(q, hints)
        assert join_order_of(plan)[:2] == ("cn", "mc")

    def test_join_collapse_limit_forces_from_order(self, imdb_db, queries):
        config = SIMULATION_CONFIG.with_overrides(join_collapse_limit=1)
        planner = Planner(imdb_db, config)
        q = queries["three"]
        plan = planner.plan(q)
        assert join_order_of(plan) == tuple(q.aliases)

    def test_aggregate_decoration_added(self, imdb_db, queries):
        planner = Planner(imdb_db)
        result = planner.plan_with_info(queries["three"])
        assert result.plan.label().startswith("Aggregate")

    def test_operator_toggle_hint_changes_join_types(self, imdb_db, queries):
        planner = Planner(imdb_db)
        q = queries["five"]
        baseline_types = {j.join_type for j in plan_join_nodes(planner.plan(q))}
        hints = HintSet(toggles=OperatorToggles(hashjoin=False))
        without_hash = {j.join_type for j in plan_join_nodes(planner.plan(q, hints))}
        assert JoinType.HASH not in without_hash or JoinType.HASH not in baseline_types

    def test_scan_nodes_have_estimates(self, imdb_db, queries):
        planner = Planner(imdb_db)
        plan = planner.plan(queries["five"])
        for scan in plan_scan_nodes(plan):
            assert scan.estimated_rows >= 1.0
            assert scan.estimated_cost > 0.0

    def test_small_effective_cache_inflates_planning_time_for_big_queries(
        self, imdb_db, job_workload
    ):
        big = next(q for q in job_workload if q.num_relations >= 11)
        small_cache = Planner(imdb_db, SIMULATION_CONFIG)
        large_cache = Planner(
            imdb_db, SIMULATION_CONFIG.with_overrides(effective_cache_size=32 * 1024**3)
        )
        slow = small_cache.plan_with_info(big.bound).planning_time_ms
        fast = large_cache.plan_with_info(big.bound).planning_time_ms
        assert slow > fast


def _pickles(planner: Planner, queries) -> list[bytes]:
    return [pickle.dumps(planner.plan(query)) for query in queries]


class TestGoldenPlans:
    """Plans are pinned byte for byte: ``tests/golden/plan_digests.json`` and,
    on the benchmark's database, ``tests/golden/plan_digests_job_scale1.json``.

    Recorded by ``tools/record_plan_digests.py`` (``make golden-plans``) at
    the last commit that changed plans on purpose.
    """

    @staticmethod
    def _assert_unchanged(recorded: dict, planned: dict) -> None:
        assert planned.keys() == recorded.keys()
        changed = [
            (query, variant, recorded[query][variant], planned[query].get(variant))
            for query in recorded
            for variant in recorded[query]
            if planned[query].get(variant) != recorded[query][variant]
        ]
        assert not changed, f"{len(changed)} plans changed, first: {changed[:5]}"

    def test_every_plan_digest_matches_the_recording(self, imdb_db, stack_db):
        document = json.loads(record_plan_digests.GOLDEN_PATH.read_text(encoding="utf-8"))
        assert document["pickle_protocol"] == record_plan_digests.PICKLE_PROTOCOL
        recorded = document["digests"]
        assert sum(len(entry) for entry in recorded.values()) > 3000
        self._assert_unchanged(recorded, record_plan_digests.plan_digests({"imdb": imdb_db, "stack": stack_db}))

    def test_job_plans_at_the_benchmark_scale_match_the_recording(self):
        document = json.loads(record_plan_digests.BENCH_GOLDEN_PATH.read_text(encoding="utf-8"))
        assert document["pickle_protocol"] == record_plan_digests.PICKLE_PROTOCOL
        spec = job_spec(record_plan_digests.BENCH_SCALE)
        assert document["databases"] == {"imdb": {"scale": spec.scale, "seed": spec.seed}}
        recorded = document["digests"]
        assert len(recorded) == 113
        planned = record_plan_digests.plan_digests(
            {"imdb": record_plan_digests.build_bench_database()}, record_plan_digests.BENCH_WORKLOADS
        )
        self._assert_unchanged(recorded, planned)

    def test_recording_reaches_every_strategy(self):
        document = json.loads(record_plan_digests.GOLDEN_PATH.read_text(encoding="utf-8"))
        strategies = {
            digest[2]
            for entry in document["digests"].values()
            for digest in entry.values()
            if digest[0] != "error"
        }
        assert strategies == {
            STRATEGY_DP, STRATEGY_GEQO, STRATEGY_GREEDY, STRATEGY_FORCED, "from-order"
        }


class TestCostTies:
    """Equal costs resolve by ``JOIN_TYPE_ORDER`` and to the split with the larger outer mask."""

    #: Every cost term multiplies one of these: all candidates cost 0.0.
    FREE = SIMULATION_CONFIG.with_overrides(
        seq_page_cost=0.0,
        random_page_cost=0.0,
        cpu_tuple_cost=0.0,
        cpu_index_tuple_cost=0.0,
        cpu_operator_cost=0.0,
    )

    def test_tied_join_types_resolve_by_join_type_order(self, imdb_db, queries):
        model = CostModel(imdb_db, self.FREE)
        q = queries["three"]
        left, right = model.best_scan(q, "t"), model.best_scan(q, "mk")
        predicates = q.joins_between({"t"}, {"mk"})
        for join_type in JoinType:
            forced = HintSet(join_methods={frozenset({"t", "mk"}): join_type})
            estimates = model.best_join_estimates(q, left, right, forced, predicates, model.planning_context(forced))
            assert estimates[0] is join_type and estimates[1][1] == 0.0
        assert model.best_join(q, left, right).join_type is JoinType.HASH
        no_hash = HintSet(toggles=OperatorToggles(hashjoin=False))
        assert model.best_join(q, left, right, no_hash).join_type is JoinType.MERGE
        only_nestloop = HintSet(toggles=OperatorToggles(hashjoin=False, mergejoin=False))
        assert model.best_join(q, left, right, only_nestloop).join_type is JoinType.NESTED_LOOP

    def test_tied_splits_resolve_to_the_larger_outer_mask(self, imdb_db, queries):
        # FROM t, mk, k (bits 1, 2, 4): of the full set's splits {mk,k}|{t}
        # has the largest outer mask, and of {mk,k} the split {k}|{mk}.
        plan = DPEnumerator(CostModel(imdb_db, self.FREE)).plan(queries["three"])
        assert plan.estimated_cost == 0.0
        assert isinstance(plan, JoinNode) and isinstance(plan.left, JoinNode)
        assert (plan.left.left.alias, plan.left.right.alias, plan.right.alias) == ("k", "mk", "t")
        assert {join.join_type for join in plan_join_nodes(plan)} == {JoinType.HASH}


class TestPlanOverNumbers:
    """The enumerators compare candidates as :class:`JoinInput` records and
    build join nodes only for the plan they return, costing both alike."""

    CONFIGS = {
        "default": SIMULATION_CONFIG,
        "geqo=off": SIMULATION_CONFIG.with_overrides(geqo=False),
    }

    def test_only_the_returned_joins_are_built(self, imdb_db, job_workload, monkeypatch):
        built = 0
        join_node = CostModel.join_node

        def counted(self, *args, **kwargs):
            nonlocal built
            built += 1
            return join_node(self, *args, **kwargs)

        monkeypatch.setattr(CostModel, "join_node", counted)
        strategies = set()
        for config in self.CONFIGS.values():
            planner = Planner(imdb_db, config)
            for query in job_workload:
                # Some JOB texts repeat: a cached plan would build nothing.
                planner.plan_cache = PlanCache()
                built = 0
                result = planner.plan_with_info(query.bound)
                assert built == len(plan_join_nodes(result.plan)), (query.query_id, result.strategy)
                strategies.add(result.strategy)
        assert strategies == {STRATEGY_DP, STRATEGY_GEQO}
        # DP takes every JOB query with GEQO off; greedy plans the largest ones directly.
        model = CostModel(imdb_db)
        for query in job_workload:
            if query.num_relations >= 14:
                built = 0
                plan = greedy_plan(query.bound, model)
                assert built == len(plan_join_nodes(plan)), query.query_id

    def test_a_node_and_its_record_cost_every_join_alike(self, imdb_db, job_workload):
        """Every join of every returned plan: the node's estimates are what
        ``best_join_estimates`` gives its children, and the record joined from
        the children's records is the record made from the node."""
        joins = 0
        for config in self.CONFIGS.values():
            planner = Planner(imdb_db, config, plan_cache=PlanCache())
            model = planner.cost_model
            for query in job_workload:
                context = model.planning_context()
                for node in plan_join_nodes(planner.plan(query.bound)):
                    left = model.join_input(query.bound, node.left, context)
                    right = model.join_input(query.bound, node.right, context)
                    estimates = (node.estimated_rows, node.estimated_cost)
                    assert model.best_join_estimates(
                        query.bound, node.left, node.right, NO_HINTS, node.predicates, context
                    ) == (node.join_type, estimates)
                    assert model.joined_input(left, right, estimates) == model.join_input(
                        query.bound, node, context
                    )
                    joins += 1
        assert joins > 1500

    def test_every_enumerator_honours_a_join_method_forced_per_subset(self, imdb_db, queries):
        q = queries["five"]
        model = CostModel(imdb_db)
        enumerators = {
            "dp": DPEnumerator(model).plan,
            "geqo": GeqoEnumerator(model).plan,
            "greedy": lambda query, hints: greedy_plan(query, model, hints),
        }
        for name, plan in enumerators.items():
            free = plan_join_nodes(plan(q, NO_HINTS))
            assert any(node.join_type is not JoinType.NESTED_LOOP for node in free), name
            forced = HintSet(join_methods={node.aliases: JoinType.NESTED_LOOP for node in free})
            joins = plan_join_nodes(plan(q, forced))
            assert all(node.join_type is JoinType.NESTED_LOOP for node in joins if node.aliases in forced.join_methods)
            assert any(node.aliases in forced.join_methods for node in joins), name

    @pytest.mark.parametrize("hints", (NO_HINTS, *BAO_HINT_SETS), ids=lambda hints: hints.name or "none")
    def test_dp_records_are_the_estimates_of_the_returned_nodes(self, imdb_db, job_workload, hints):
        """For every join of every DP plan, ``best_join_estimates`` from the
        nodes equals, bit for bit, the record DP kept for that split."""
        planner = Planner(imdb_db, plan_cache=PlanCache())
        model = planner.cost_model
        dp = DPEnumerator(model)
        checked = 0
        for query in job_workload:
            result = planner.plan_with_info(query.bound, hints)
            if result.strategy != STRATEGY_DP:
                continue
            bound = query.bound
            context = model.planning_context(hints)
            table = dp.search(bound, hints, context)
            bit_of = {alias: 1 << i for i, alias in enumerate(bound.aliases)}

            def mask_of(node) -> int:
                return sum(bit_of[alias] for alias in node.aliases)

            for node in plan_join_nodes(result.plan):
                entry = table[mask_of(node)]
                assert (entry.left, entry.right) == (mask_of(node.left), mask_of(node.right))
                assert list(node.predicates) == list(entry.predicates)
                estimates = model.best_join_estimates(bound, node.left, node.right, hints, node.predicates, context)
                assert estimates == (entry.join_type, (entry.input.rows, entry.input.cost))
                assert estimates[1] == (node.estimated_rows, node.estimated_cost)
                checked += 1
        assert checked > 500


class TestPlanningContext:
    """A planning context lives for one call: nothing it memoises may leak."""

    def test_replanning_a_mutated_query_sees_the_mutation(self, imdb_db):
        planner = Planner(imdb_db, plan_cache=PlanCache())
        query = bind_sql(THREE_WAY, imdb_db.schema, name="mutated")
        with_filter = planner.plan(query)
        query.filters = [f for f in query.filters if f.alias != "k"]
        # The plan cache keys on a fingerprint memoised on the query object,
        # which a mutation does not refresh: hence a fresh cache.
        planner.plan_cache = PlanCache()
        replanned = planner.plan(query)
        fresh = Planner(imdb_db, plan_cache=PlanCache()).plan(
            bind_sql(THREE_WAY.replace(" AND k.keyword = 'sequel'", ""), imdb_db.schema, name="mutated")
        )
        assert pickle.dumps(replanned) == pickle.dumps(fresh)
        assert pickle.dumps(replanned) != pickle.dumps(with_filter)

    def test_estimates_are_fresh_after_analyze_on_changed_data(self):
        database = generate_imdb(scale=0.05, seed=3, config=SIMULATION_CONFIG)
        planner = Planner(database)
        query = bind_sql(THREE_WAY, database.schema, name="analyzed")

        def title_rows(plan) -> float:
            return next(s.estimated_rows for s in plan_scan_nodes(plan) if s.alias == "t")

        before = title_rows(planner.plan(query))
        database._tables["title"] = database.table_data("title").sample_rows(0.25, seed=1)
        database.run_analyze()
        planner.invalidate_cached_plans()
        after = planner.plan(query)
        assert title_rows(after) < 0.5 * before
        assert pickle.dumps(after) == pickle.dumps(Planner(database).plan(query))

    def test_threads_sharing_a_planner_produce_the_serial_plans(self, imdb_db, job_workload):
        bound = [q.bound for q in job_workload]
        dp = [q for q in bound if 9 <= q.num_relations < SIMULATION_CONFIG.geqo_threshold]
        geqo = [q for q in bound if q.num_relations >= SIMULATION_CONFIG.geqo_threshold]
        queries = dp[:10] + geqo[:6]
        assert len(queries) == 16
        serial = _pickles(Planner(imdb_db, plan_cache=PlanCache()), queries)
        shared = Planner(imdb_db, plan_cache=PlanCache())
        results: dict[int, list[bytes]] = {}

        def work(index: int) -> None:
            results[index] = _pickles(shared, queries[index::4])

        threads = [threading.Thread(target=work, args=(index,)) for index in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        for index in range(4):
            assert results[index] == serial[index::4]

    def test_alias_memo_never_enters_the_pickled_state(self, imdb_db, queries):
        plan = Planner(imdb_db).plan(queries["five"])
        received = pickle.loads(pickle.dumps(plan))
        assert all("_repro_aliases" not in node.__dict__ for node in received.walk())
        untouched = pickle.dumps(received)
        assert received.aliases == plan.aliases == frozenset(queries["five"].aliases)
        for node in received.walk():
            assert node.aliases
        assert "_repro_aliases" in received.__dict__
        assert pickle.dumps(received) == untouched
        assert pickle.loads(untouched) == plan
