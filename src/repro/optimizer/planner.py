"""The top-level planner of the simulated DBMS.

The planner ties together cardinality estimation, the cost model and the
enumeration strategies, honouring the configuration knobs the paper studies:

* ``join_collapse_limit = 1`` forces the join order written in the FROM list,
* ``geqo`` / ``geqo_threshold`` switch between dynamic programming and the
  genetic optimizer; a join graph DP does not take (:meth:`DPEnumerator.accepts`)
  goes to GEQO even with ``geqo`` off, where PostgreSQL would run DP,
* ``enable_*`` switches and hint toggles restrict the operator families,
* hint sets (pg_hint_plan analogue) can force the entire join order, the scan
  method per relation and the join method per intermediate result.

The planner also reports a simulated planning time (:func:`repro.simclock.planning_ms`)
so the benchmarking framework can decompose end-to-end latency exactly like
the paper does (inference + planning + execution).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from repro import simclock
from repro.config import PostgresConfig
from repro.errors import OptimizerError
from repro.optimizer.cardinality import CardinalityEstimator
from repro.optimizer.cost_model import CostModel, PlanningContext
from repro.optimizer.enumeration import DPEnumerator, left_deep_plan_from_order
from repro.optimizer.geqo import GeqoEnumerator, GeqoParameters
from repro.optimizer.join_graph import JoinGraph
from repro.plans.hints import HintSet, NO_HINTS
from repro.plans.physical import AggregateNode, PlanNode, SortNode
from repro.runtime.plan_cache import PlanCache
from repro.simclock import (  # PlannerResult's strategy labels key the clock's planning charge
    STRATEGY_COLLAPSED,
    STRATEGY_DP,
    STRATEGY_FORCED,
    STRATEGY_GEQO,
    STRATEGY_GREEDY,
)
from repro.sql.binder import BoundQuery
from repro.storage.database import Database


@dataclass
class PlannerResult:
    """A produced plan together with planning metadata."""

    plan: PlanNode
    planning_time_ms: float
    strategy: str
    estimated_cost: float
    estimated_rows: float

    @property
    def used_geqo(self) -> bool:
        return self.strategy == STRATEGY_GEQO


class Planner:
    """Cost-based planner honouring configuration knobs and hints."""

    def __init__(
        self,
        database: Database,
        config: PostgresConfig | None = None,
        geqo_parameters: GeqoParameters | None = None,
        plan_cache: PlanCache | None = None,
    ) -> None:
        self.database = database
        self.config = config or database.config
        # Rendered once: the config is frozen and assigned only here, and every
        # cache key carries this (a sha256 over every knob) — not memoised on
        # the config object, which rides along in pickled task payloads.
        self._config_fingerprint = self.config.fingerprint()
        self.estimator = CardinalityEstimator(database)
        self.cost_model = CostModel(database, self.config, self.estimator)
        self._dp = DPEnumerator(self.cost_model)
        self._geqo = GeqoEnumerator(self.cost_model, geqo_parameters)
        # Plans are deterministic for a given (query, hints, config, database,
        # GEQO parameters), so planner results are cached — keyed by content
        # fingerprint plus this planner's scope digest, which makes the cache
        # safely shareable across planners, repetitions and ablations (any
        # knob, hint or database change maps to a different key).
        self.plan_cache = plan_cache if plan_cache is not None else PlanCache()
        # A database built from a spec is identified by it: name and row count
        # alone are the same at every data seed of one generator and scale.
        spec = database.spec.fingerprint() if database.spec is not None else ""
        self._cache_scope = hashlib.sha256(
            f"{database.name}:{database.total_rows()}:{spec}|{self._geqo.parameters!r}".encode("utf-8")
        ).hexdigest()[:16]

    # ------------------------------------------------------------------ caching
    @property
    def cache_scope(self) -> str:
        """This planner's cache-scope digest (database identity + GEQO parameters)."""
        return self._cache_scope

    def cache_key(self, query: BoundQuery, hints: HintSet = NO_HINTS) -> tuple:
        """The shared-cache key a plan request would use right now.

        Includes the scope's current generation, so a key computed before an
        :meth:`invalidate_cached_plans` bump never matches an entry stored
        after it (and vice versa).  The serving layer uses this to probe the
        cache without planning.
        """
        return self.plan_cache.key_for(query, self._config_fingerprint, hints, self._cache_scope)

    def invalidate_cached_plans(self) -> int:
        """Retire every cached plan of this planner's scope (bump-on-change).

        Call after the underlying catalog or statistics change in a way the
        fingerprints cannot see (an ANALYZE refresh, regenerated tables);
        returns the scope's new generation.
        """
        return self.plan_cache.invalidate_scope(self._cache_scope)

    # ------------------------------------------------------------------ planning
    def plan(self, query: BoundQuery, hints: HintSet = NO_HINTS) -> PlanNode:
        """Plan a query and return the physical plan (no metadata)."""
        return self.plan_with_info(query, hints).plan

    def plan_with_info(
        self, query: BoundQuery, hints: HintSet = NO_HINTS, cache_key: tuple | None = None,
        context: PlanningContext | None = None,
    ) -> PlannerResult:
        """Plan a query and return the plan plus planning metadata.

        ``cache_key`` is this request's :meth:`cache_key` when the caller has
        already built it to probe the cache (the serving layer): the lookup
        and the store then use that key — and the generation inside it —
        instead of fingerprinting the request a second time.

        ``context`` is the caller's :class:`PlanningContext` for ``query``
        when it plans the query many times, under any hint sets (Bao's arms,
        HybridQO's prefix hints); without one the same code runs on a fresh
        context.
        """
        hints.validate(query.aliases)
        n = query.num_relations
        if n == 0:
            raise OptimizerError("cannot plan a query without relations")

        if cache_key is None:
            cache_key = self.cache_key(query, hints)
        cached = self.plan_cache.get(cache_key)
        if cached is not None:
            return cached

        strategy, core = self._plan_core(query, hints, context)
        core = self._add_decorations(query, core)
        planning_time = simclock.planning_ms(query, strategy, self.config)
        result = PlannerResult(
            plan=core,
            planning_time_ms=planning_time,
            strategy=strategy,
            estimated_cost=core.estimated_cost,
            estimated_rows=core.estimated_rows,
        )
        self.plan_cache.put(cache_key, result)
        return result

    def _plan_core(
        self, query: BoundQuery, hints: HintSet, context: PlanningContext | None = None
    ) -> tuple[str, PlanNode]:
        n = query.num_relations
        # One context, handed down and dropped on return (the caller's, when
        # it brought one): the query object, the statistics and this planner
        # are all shared and mutable.
        if context is None:
            context = self.cost_model.planning_context()
        if n == 1:
            return STRATEGY_DP, self.cost_model.best_scan(query, query.aliases[0], hints, context)

        if hints.forces_join_order and len(hints.leading) == n:
            # ``best_join`` honours the hint's per-join methods.
            plan = left_deep_plan_from_order(query, self.cost_model, hints.leading, hints, context)
            return STRATEGY_FORCED, plan

        if hints.leading and not hints.join_order_exact:
            plan = self._plan_with_leading_prefix(query, hints, context)
            return STRATEGY_GREEDY, plan

        if self.config.join_collapse_limit <= 1:
            order = query.aliases
            plan = left_deep_plan_from_order(query, self.cost_model, order, hints, context)
            return STRATEGY_COLLAPSED, plan

        if self.config.geqo_enabled_for(n) or not self._dp.accepts(query):
            return STRATEGY_GEQO, self._geqo.plan(query, hints, context)

        return STRATEGY_DP, self._dp.plan(query, hints, context)

    def _plan_with_leading_prefix(self, query: BoundQuery, hints: HintSet, context: PlanningContext) -> PlanNode:
        """Honour a HybridQO-style prefix hint, then extend greedily."""
        cost_model = self.cost_model
        allowed = cost_model.allowed_operators(hints, context)
        graph = JoinGraph(query)
        prefix = list(hints.leading)
        plan = left_deep_plan_from_order(query, cost_model, prefix, hints, context)
        mask = sum(graph.bit_of[alias] for alias in plan.aliases)
        remaining = {
            alias: cost_model.best_scan(query, alias, hints, context) for alias in query.aliases if alias not in prefix
        }
        while remaining:
            links = [(alias, graph.predicates(mask, graph.bit_of[alias])) for alias in remaining]
            # Candidates are costed as numbers; only the step's winner is built.
            left = cost_model.join_input(query, plan, context)
            best: tuple | None = None
            for alias, predicates in [link for link in links if link[1]] or links:
                right = remaining[alias]
                join_type, estimates = cost_model.cheapest_join(
                    query, allowed.join_types_for(hints, plan.aliases | right.aliases), left,
                    cost_model.join_input(query, right, context), predicates, context,
                )
                if best is None or estimates[1] < best[4][1]:
                    best = (alias, join_type, right, predicates, estimates)
            assert best is not None
            alias, join_type, right, predicates, estimates = best
            plan = cost_model.join_node(query, join_type, plan, right, predicates, estimates=estimates)
            mask |= graph.bit_of[alias]
            del remaining[alias]
        return plan

    # -------------------------------------------------------------- decorations
    def _add_decorations(self, query: BoundQuery, plan: PlanNode) -> PlanNode:
        """Attach sort / aggregate nodes required by the SELECT statement."""
        statement = query.statement
        if statement is None:
            return plan
        if statement.order_by:
            keys = []
            for item in statement.order_by:
                alias = item.column.alias or query.aliases[0]
                keys.append((alias, item.column.column))
            plan = SortNode(child=plan, sort_keys=tuple(keys)).with_estimates(
                plan.estimated_rows,
                plan.estimated_cost
                + plan.estimated_rows * self.config.cpu_operator_cost * 2.0,
            )
        has_aggregate = any(item.function for item in statement.select_items)
        if has_aggregate or statement.group_by:
            group_by = tuple(
                (col.alias or query.aliases[0], col.column) for col in statement.group_by
            )
            aggregates = tuple(str(item) for item in statement.select_items if item.function)
            out_rows = 1.0 if not group_by else max(plan.estimated_rows * 0.1, 1.0)
            plan = AggregateNode(
                child=plan, group_by=group_by, aggregates=aggregates
            ).with_estimates(
                out_rows,
                plan.estimated_cost + plan.estimated_rows * self.config.cpu_operator_cost,
            )
        return plan
