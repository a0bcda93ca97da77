"""Join-order enumeration: dynamic programming over connected pairs and
exhaustive join-tree enumeration.

* :class:`DPEnumerator` — bottom-up dynamic programming over the connected
  subgraph / complement pairs of the join graph (DPccp), considering bushy
  trees when the configuration allows them.  The planner hands the queries
  it does not take (:meth:`DPEnumerator.accepts`) to GEQO, ``geqo`` on or off.
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
from repro.optimizer.join_graph import JoinGraph
from repro.plans.hints import HintSet, NO_HINTS
from repro.plans.physical import JoinType, PlanNode
from repro.sql.binder import BoundQuery, JoinPredicate

#: Most relations :class:`DPEnumerator` takes on over a connected join graph:
#: JOB's largest queries.  Its work grows with the graph's connected pairs
#: (44,097 for JOB's 17-relation queries), not with the 3^n subset splits.
DP_MAX_RELATIONS = 17
#: Most relations it takes on over a disconnected join graph.  DP then runs
#: over the complete graph, whose pairs do grow as 3^n / 2 (about 2.6·10^5
#: at 12 relations, 6.4·10^7 at 17).  The planner routes larger queries to
#: GEQO, with ``geqo`` on or off.
DP_MAX_DISCONNECTED_RELATIONS = 12


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
    if not order:
        raise OptimizerError("cannot build a plan for an empty join order")
    missing = set(order) - set(query.aliases)
    if missing:
        raise OptimizerError(f"join order references unknown aliases {sorted(missing)}")
    if context is None:
        context = cost_model.planning_context()
    plan: PlanNode = cost_model.best_scan(query, order[0], hints, context)
    for alias in order[1:]:
        right = cost_model.best_scan(query, alias, hints, context)
        plan = cost_model.best_join(query, plan, right, hints, context=context)
    return plan


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
        if not self.accepts(query):
            raise OptimizerError(
                f"dynamic programming does not take this join graph of {len(query.aliases)} relations "
                "(DPEnumerator.accepts); use GEQO"
            )
        cost_model = self.cost_model
        if context is None:
            context = cost_model.planning_context()
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
        allowed = cost_model.allowed_operators(hints, context)
        graph = JoinGraph(query)
        n = len(graph.aliases)
        best: dict[int, DPEntry] = {
            bit: DPEntry(cost_model.join_input(query, cost_model.best_scan(query, alias, hints, context), context))
            for alias, bit in graph.bit_of.items()
        }
        inputs = {mask: entry.input for mask, entry in best.items()}
        if graph.connected:
            adjacent = graph.neighbours
        else:
            adjacent = [((1 << n) - 1) ^ (1 << i) for i in range(n)]
        left_deep_only = not self.consider_bushy
        by_bound = itemgetter(0)

        pairs = connected_pairs(adjacent)
        # Increasing masks: every proper subset of a mask is a smaller integer.
        for mask in sorted(pairs):
            firsts = pairs[mask]
            # A forced join method depends on the subset, not on the split.
            join_types = allowed.join_types
            if hints.join_methods:
                join_types = allowed.join_types_for(hints, graph.aliases_of(mask))
            # (bound, outer mask, inner mask, predicates); both orientations
            # of a pair share one predicate list.
            candidates: list[tuple[float, int, int, list[JoinPredicate]]] = []
            for first in firsts:
                second = mask ^ first
                predicates = graph.predicates(first, second)
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
                    query, join_types, inputs[outer], inputs[inner], predicates, context
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
    """
    context = cost_model.planning_context()
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
