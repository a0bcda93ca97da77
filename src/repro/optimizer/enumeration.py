"""Join-order enumeration: dynamic programming over connected pairs, greedy
merging and exhaustive join-tree enumeration.

* :class:`DPEnumerator` — bottom-up dynamic programming over the connected
  subgraph / complement pairs of the join graph (DPccp), considering bushy
  trees when the configuration allows them.
* :func:`greedy_plan` — a cheap greedy enumerator for the queries dynamic
  programming does not take (:meth:`DPEnumerator.accepts`) when GEQO is
  disabled.
* :func:`left_deep_plan_from_order` — builds a plan for an explicit join
  order; shared by GEQO's winner, hint handling and several LQOs.
* :func:`enumerate_join_trees` — exhaustively enumerates all join-tree shapes
  of a (small) query; used by the Section 8.7 bushy-vs-left-deep study.
"""

from __future__ import annotations

import math
from itertools import combinations
from operator import itemgetter
from typing import Iterator, NamedTuple, Sequence

from repro.errors import OptimizerError
from repro.optimizer.cost_model import CostModel, JoinInput, PlanningContext
from repro.plans.hints import HintSet, NO_HINTS
from repro.plans.physical import JoinKind, JoinType, PlanNode, ScanNode
from repro.sql.binder import BoundQuery, JoinPredicate

#: Most relations :class:`DPEnumerator` takes on over a connected join graph:
#: JOB's largest queries.  Its work grows with the graph's connected pairs
#: (44,097 for JOB's 17-relation queries), not with the 3^n subset splits.
DP_MAX_RELATIONS = 17
#: Most relations it takes on over a disconnected join graph.  DP then runs
#: over the complete graph, whose pairs do grow as 3^n / 2 (about 2.6·10^5
#: at 12 relations, 6.4·10^7 at 17).  The planner routes larger queries to
#: GEQO or, with GEQO disabled, to :func:`greedy_plan`.
DP_MAX_DISCONNECTED_RELATIONS = 12


def require_inner_only(query: BoundQuery, caller: str) -> None:
    """Reject queries with outer-join edges in inner-only enumerators.

    Outer edges pin their operand order, so the raw enumerators would
    silently mistreat their predicates as reorderable inner joins; callers
    must enumerate ``query.core_query()`` and fold the edges afterwards (as
    the planner and :func:`enumerate_join_trees` do).
    """
    if query.outer_edges:
        raise OptimizerError(
            f"{caller} only enumerates inner joins; plan the core query and "
            "fold the outer-join edges in syntax order instead"
        )


def left_deep_plan_from_order(
    query: BoundQuery,
    cost_model: CostModel,
    order: Sequence[str],
    hints: HintSet = NO_HINTS,
    context: PlanningContext | None = None,
) -> PlanNode:
    """Build a left-deep plan joining relations in the given order.

    Scan and join methods are chosen by the cost model unless the hint set
    forces them.  Cross products are allowed (they simply cost a lot), which
    lets GEQO evaluate arbitrary permutations.
    """
    require_inner_only(query, "left_deep_plan_from_order")
    if not order:
        raise OptimizerError("cannot build a plan for an empty join order")
    missing = set(order) - set(query.aliases)
    if missing:
        raise OptimizerError(f"join order references unknown aliases {sorted(missing)}")
    if context is None:
        context = cost_model.planning_context(hints)
    plan: PlanNode = cost_model.best_scan(query, order[0], hints, context)
    for alias in order[1:]:
        right = cost_model.best_scan(query, alias, hints, context)
        plan = cost_model.best_join(query, plan, right, hints, context=context)
    return plan


def greedy_plan(
    query: BoundQuery, cost_model: CostModel, hints: HintSet = NO_HINTS, context: PlanningContext | None = None
) -> PlanNode:
    """Greedy enumeration: repeatedly merge the cheapest joinable pair of sub-plans.

    Produces bushy plans when beneficial.  Used for the queries dynamic
    programming does not take when GEQO is disabled.  Candidates are
    costed as numbers; join nodes are built for the returned plan only.
    """
    require_inner_only(query, "greedy_plan")
    if context is None:
        context = cost_model.planning_context(hints)
    # A sub-plan is (aliases, costing record, recipe): a scan, or the
    # (left recipe, right recipe, predicates) of a join.
    parts: list[tuple[frozenset[str], JoinInput, object]] = []
    for alias in query.aliases:
        scan = cost_model.best_scan(query, alias, hints, context)
        parts.append((scan.aliases, cost_model.join_input(query, scan, context), scan))
    if not parts:
        raise OptimizerError("query has no relations")
    while len(parts) > 1:
        pairs = [
            (i, j, query.joins_between(parts[i][0], parts[j][0]))
            for i, j in combinations(range(len(parts)), 2)
        ]
        best: tuple | None = None
        # Pairs connected by a predicate; cross products only when there is none.
        for i, j, predicates in [pair for pair in pairs if pair[2]] or pairs:
            join_types = cost_model.join_types_for(hints, parts[i][0] | parts[j][0], context)
            _join_type, estimates = cost_model.cheapest_join(
                query, join_types, parts[i][1], parts[j][1], predicates, JoinKind.INNER, context
            )
            if best is None or estimates[1] < best[0][1]:
                best = (estimates, i, j, predicates)
        assert best is not None
        estimates, i, j, predicates = best
        (left_aliases, left, left_recipe), (right_aliases, right, right_recipe) = parts[i], parts[j]
        parts = [part for k, part in enumerate(parts) if k not in (i, j)]
        parts.append((
            left_aliases | right_aliases,
            cost_model.joined_input(left, right, estimates),
            (left_recipe, right_recipe, predicates),
        ))

    def build(recipe) -> PlanNode:
        if isinstance(recipe, ScanNode):
            return recipe
        left, right, predicates = recipe
        return cost_model.best_join(query, build(left), build(right), hints, predicates, context)

    return build(parts[0][2])


def connected_pairs(adjacent: Sequence[int]) -> dict[int, list[int]]:
    """Every connected-subgraph / complement pair of a graph, grouped by union (DPccp).

    ``adjacent[i]`` is the bitmask of the nodes joined to node ``i``.  A pair
    is two disjoint connected node sets with an edge between them; each
    unordered pair is listed once, by the half that holds the union's lowest
    node: ``{first | second: [first, ...]}``.  The enumeration is
    Moerkotte & Neumann's DPccp (VLDB 2006): its work is proportional to the
    pairs found, where walking every subset's splits costs Θ(3^n).
    """

    # A connected set is grown again as a complement of each of its partners.
    reach_of: dict[int, int] = {}

    def neighbourhood(group: int) -> int:
        reach = reach_of.get(group)
        if reach is None:
            reach = 0
            rest = group
            while rest:
                low = rest & -rest
                reach |= adjacent[low.bit_length() - 1]
                rest ^= low
            reach = reach_of[group] = reach & ~group
        return reach

    def grown(start: int, excluded: int) -> list[int]:
        """``start`` and every connected superset of it avoiding ``excluded``, each once."""
        found = [start]
        stack = [(start, excluded)]
        while stack:
            group, excluded = stack.pop()
            frontier = neighbourhood(group) & ~excluded
            # A later extension never re-adds a node of this frontier: that
            # superset is reached from here, by a subset of the frontier.
            excluded |= frontier
            extension = frontier
            while extension:
                found.append(group | extension)
                stack.append((group | extension, excluded))
                extension = (extension - 1) & frontier
        return found

    pairs: dict[int, list[int]] = {}
    for node in reversed(range(len(adjacent))):
        start = 1 << node
        # Connected sets whose lowest node is ``node``.
        for first in grown(start, (start << 1) - 1):
            # Complements avoid ``first`` and every node up to its lowest, and
            # are found from their lowest neighbour of ``first`` only.
            excluded = first | (((first & -first) << 1) - 1)
            frontier = neighbourhood(first) & ~excluded
            rest = frontier
            while rest:
                top = 1 << (rest.bit_length() - 1)
                rest ^= top
                for second in grown(top, excluded | (frontier & ((top << 1) - 1))):
                    pairs.setdefault(first | second, []).append(first)
    return pairs


class DPEntry(NamedTuple):
    """The cheapest plan of one relation subset in the DP table."""

    input: JoinInput
    #: ``None`` for a base relation (``input.scan`` is its plan).
    join_type: JoinType | None = None
    #: Masks of the winning split's outer and inner halves.
    left: int = 0
    right: int = 0
    predicates: Sequence[JoinPredicate] = ()


class DPEnumerator:
    """Dynamic programming over the connected pairs of the join graph (DPccp).

    Relation subsets are integer bitmasks over the FROM-list positions.
    :meth:`search` fills the table with numbers (a :class:`JoinInput` and
    the winning split per subset); :meth:`plan` then builds the join nodes
    of the cheapest full plan, top-down, through ``best_join``.
    """

    def __init__(self, cost_model: CostModel, consider_bushy: bool | None = None) -> None:
        self.cost_model = cost_model
        if consider_bushy is None:
            consider_bushy = cost_model.config.enable_bushy_plans
        self.consider_bushy = consider_bushy

    @staticmethod
    def accepts(query: BoundQuery) -> bool:
        """Whether :meth:`plan` takes ``query``: :data:`DP_MAX_RELATIONS` over a
        connected join graph, :data:`DP_MAX_DISCONNECTED_RELATIONS` otherwise."""
        n = len(query.aliases)
        return 0 < n <= DP_MAX_DISCONNECTED_RELATIONS or (n <= DP_MAX_RELATIONS and query.is_connected())

    def plan(
        self, query: BoundQuery, hints: HintSet = NO_HINTS, context: PlanningContext | None = None
    ) -> PlanNode:
        """Return the cheapest plan found by dynamic programming."""
        require_inner_only(query, "DPEnumerator")
        if not self.accepts(query):
            raise OptimizerError(
                f"dynamic programming does not take this join graph of {len(query.aliases)} relations "
                "(DPEnumerator.accepts); use GEQO or greedy_plan"
            )
        cost_model = self.cost_model
        if context is None:
            context = cost_model.planning_context(hints)
        table = self.search(query, hints, context)

        def build(mask: int) -> PlanNode:
            entry = table[mask]
            if entry.join_type is None:
                assert entry.input.scan is not None
                return entry.input.scan
            # ``best_join`` stays the one route by which a returned join is built.
            return cost_model.best_join(
                query, build(entry.left), build(entry.right), hints, entry.predicates, context
            )

        return build((1 << len(query.aliases)) - 1)

    def search(self, query: BoundQuery, hints: HintSet, context: PlanningContext) -> dict[int, DPEntry]:
        """The DP table: the cheapest entry of every planned subset (bit ``i`` is ``query.aliases[i]``).

        The planned subsets are the connected ones of the join graph, or of
        the complete graph when the join graph is disconnected (cross
        products then join its components).  A subset's candidates are both
        orientations of each of its :func:`connected_pairs` joined by a
        predicate, or — when none is — of every pair as a cross product.
        They are costed in ascending order of :meth:`CostModel.join_cost_bound`
        until a bound exceeds the cheapest cost found: no candidate left
        could beat it, or tie it.  A tie goes to the larger outer mask.
        """
        cost_model = self.cost_model
        cheapest_join = cost_model.cheapest_join
        join_cost_bound = cost_model.join_cost_bound
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
        # Every join predicate beside the mask of the two aliases it connects
        # (``query.joins`` order, the order predicates take inside a node).
        edges = [(bit_of[j.left_alias] | bit_of[j.right_alias], j) for j in query.joins]
        if query.is_connected():
            adjacent = [0] * n
            for join in query.joins:
                left, right = bit_of[join.left_alias], bit_of[join.right_alias]
                adjacent[left.bit_length() - 1] |= right
                adjacent[right.bit_length() - 1] |= left
        else:
            adjacent = [((1 << n) - 1) ^ (1 << i) for i in range(n)]
        left_deep_only = not self.consider_bushy
        inner_join = JoinKind.INNER
        by_bound = itemgetter(0)

        pairs = connected_pairs(adjacent)
        # Increasing masks: every proper subset of a mask is a smaller integer.
        for mask in sorted(pairs):
            firsts = pairs[mask]
            inside = [edge for edge in edges if edge[0] & mask == edge[0]]
            # A forced join method depends on the subset, not on the split.
            join_types = context.join_types
            if hints.join_methods:
                members = frozenset(alias for alias in aliases if bit_of[alias] & mask)
                join_types = cost_model.join_types_for(hints, members, context)
            # (bound, outer mask, inner mask, predicates); both orientations
            # of a pair share one predicate list.
            candidates: list[tuple[float, int, int, list[JoinPredicate]]] = []
            for first in firsts:
                second = mask ^ first
                predicates = [j for edge_mask, j in inside if edge_mask & first and edge_mask & second]
                if predicates:
                    for outer, inner in ((first, second), (second, first)):
                        # Left-deep only: the inner input must be a base relation.
                        if not left_deep_only or inner.bit_count() == 1:
                            bound = join_cost_bound(inputs[outer], inputs[inner])
                            candidates.append((bound, outer, inner, predicates))
            if not candidates:
                # No pair is joined by a predicate: cross products.
                for first in firsts:
                    second = mask ^ first
                    if left_deep_only and first.bit_count() != 1 and second.bit_count() != 1:
                        continue
                    for outer, inner in ((first, second), (second, first)):
                        candidates.append((join_cost_bound(inputs[outer], inputs[inner]), outer, inner, []))
            candidates.sort(key=by_bound)
            best_cost, best_outer = math.inf, 0
            winner: tuple = ()
            for bound, outer, inner, predicates in candidates:
                if bound > best_cost:
                    break
                join_type, estimates = cheapest_join(
                    query, join_types, inputs[outer], inputs[inner], predicates, inner_join, context
                )
                cost = estimates[1]
                if cost < best_cost or (cost == best_cost and outer > best_outer):
                    best_cost, best_outer = cost, outer
                    winner = (join_type, estimates, outer, inner, predicates)
            join_type, estimates, outer, inner, predicates = winner
            record = inputs[mask] = cost_model.joined_input(inputs[outer], inputs[inner], estimates)
            best[mask] = DPEntry(record, join_type, outer, inner, predicates)
        return best


def enumerate_join_trees(
    query: BoundQuery,
    cost_model: CostModel,
    hints: HintSet = NO_HINTS,
    max_relations: int = 7,
    allow_cross_products: bool = False,
) -> Iterator[PlanNode]:
    """Exhaustively enumerate every join-tree shape of a small query.

    Every yielded plan covers all relations; scan and join methods are picked
    by the cost model per node.  Shapes include left-deep, right-deep, zigzag
    and bushy trees — exactly the space analysed in Section 8.7.

    Outer-join edges never reorder: only the inner-join core is enumerated,
    and every yielded core shape is wrapped by the pinned outer folds in
    syntax order (the nullable side always on the right).
    """
    context = cost_model.planning_context(hints)
    if query.outer_edges:
        core_query = query.core_query()
        for core_plan in enumerate_join_trees(
            core_query, cost_model, hints, max_relations, allow_cross_products
        ):
            plan = core_plan
            for edge in query.outer_edges:
                right = cost_model.best_scan(query, edge.nullable_alias, hints, context)
                plan = cost_model.best_outer_join(query, edge, plan, right, hints, context)
            yield plan
        return

    aliases = list(query.aliases)
    n = len(aliases)
    if n > max_relations:
        raise OptimizerError(
            f"refusing to exhaustively enumerate {n} relations (max {max_relations})"
        )
    if n == 0:
        raise OptimizerError("query has no relations")

    scans = {alias: cost_model.best_scan(query, alias, hints, context) for alias in aliases}

    def build(subset: frozenset[str]) -> Iterator[PlanNode]:
        if len(subset) == 1:
            (alias,) = subset
            yield scans[alias]
            return
        members = sorted(subset)
        # Enumerate unordered splits by always keeping the first (anchor)
        # member on the left: only subsets of the remaining members may move
        # to the right side.
        rest = members[1:]
        for r in range(0, len(rest) + 1):
            for right_members in combinations(rest, r):
                right_set = frozenset(right_members)
                left_set = subset - right_set
                if not right_set or not left_set:
                    continue
                predicates = query.joins_between(left_set, right_set)
                if not predicates and not allow_cross_products:
                    continue
                for left_plan in build(left_set):
                    for right_plan in build(right_set):
                        yield cost_model.best_join(query, left_plan, right_plan, hints, predicates, context)
                        # Also yield the mirrored orientation: inner/outer roles
                        # matter for nested-loop and hash joins.
                        yield cost_model.best_join(query, right_plan, left_plan, hints, predicates, context)

    yield from build(frozenset(aliases))
