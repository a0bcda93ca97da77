"""Join-order enumeration: System-R dynamic programming, greedy fallback and
exhaustive join-tree enumeration.

* :class:`DPEnumerator` — the classical bottom-up dynamic programming over
  connected sub-sets of relations, considering bushy trees when the
  configuration allows them.
* :func:`greedy_plan` — a cheap greedy enumerator used when dynamic
  programming would be too expensive and GEQO is disabled.
* :func:`left_deep_plan_from_order` — builds a plan for an explicit join
  order; shared by GEQO's winner, hint handling and several LQOs.
* :func:`enumerate_join_trees` — exhaustively enumerates all join-tree shapes
  of a (small) query; used by the Section 8.7 bushy-vs-left-deep study.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterator, NamedTuple, Sequence

from repro.errors import OptimizerError
from repro.optimizer.cost_model import CostModel, JoinInput, PlanningContext
from repro.plans.hints import HintSet, NO_HINTS
from repro.plans.physical import JoinKind, JoinType, PlanNode, ScanNode
from repro.sql.binder import BoundQuery, JoinPredicate

#: Most relations :class:`DPEnumerator` takes on: 2^n subsets become
#: impractical in pure Python beyond it, and the planner routes larger
#: queries to GEQO or, with GEQO disabled, to :func:`greedy_plan`.
DP_MAX_RELATIONS = 12


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

    Produces bushy plans when beneficial.  Used for very large queries when
    dynamic programming is infeasible and GEQO is disabled.  Candidates are
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
    """System-R style dynamic programming over connected relation subsets.

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

    def plan(
        self, query: BoundQuery, hints: HintSet = NO_HINTS, context: PlanningContext | None = None
    ) -> PlanNode:
        """Return the cheapest plan found by dynamic programming."""
        require_inner_only(query, "DPEnumerator")
        n = len(query.aliases)
        if n == 0:
            raise OptimizerError("query has no relations")
        if n > DP_MAX_RELATIONS:
            raise OptimizerError(
                f"dynamic programming over {n} relations is not supported; use GEQO"
            )
        cost_model = self.cost_model
        if context is None:
            context = cost_model.planning_context(hints)
        table = self.search(query, hints, context)
        full_mask = (1 << n) - 1
        if full_mask not in table:
            # The join graph is disconnected in a way the DP table did not
            # cover; fall back to the greedy enumerator.
            return greedy_plan(query, cost_model, hints, context)

        def build(mask: int) -> PlanNode:
            entry = table[mask]
            if entry.join_type is None:
                assert entry.input.scan is not None
                return entry.input.scan
            # ``best_join`` stays the one route by which a returned join is built.
            return cost_model.best_join(
                query, build(entry.left), build(entry.right), hints, entry.predicates, context
            )

        return build(full_mask)

    def search(self, query: BoundQuery, hints: HintSet, context: PlanningContext) -> dict[int, DPEntry]:
        """The DP table: the cheapest entry of every planned subset (bit ``i`` is ``query.aliases[i]``)."""
        cost_model = self.cost_model
        cheapest_join = cost_model.cheapest_join
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
        left_deep_only = not self.consider_bushy
        inner = JoinKind.INNER

        # Increasing masks: every proper subset of a mask is a smaller integer.
        for mask in range(3, full_mask + 1):
            if mask & (mask - 1) == 0 or (fully_connected and not connected(mask)):
                continue
            # Proper, non-empty splits of the subset into two planned halves.
            splits: list[tuple[int, int]] = []
            sub = (mask - 1) & mask
            while sub:
                if sub in inputs and mask ^ sub in inputs:
                    splits.append((sub, mask ^ sub))
                sub = (sub - 1) & mask
            inside = [edge for edge in edges if edge[0] & mask == edge[0]]
            # A forced join method depends on the subset, not on the split.
            join_types = context.join_types
            if hints.join_methods:
                members = frozenset(alias for alias in aliases if bit_of[alias] & mask)
                join_types = cost_model.join_types_for(hints, members, context)
            winner: tuple | None = None
            # First pass: splits connected by at least one join predicate;
            # both orientations of a split share one predicate list.
            crossing: dict[int, list[JoinPredicate]] = {}
            for sub, other in splits:
                if left_deep_only and other.bit_count() != 1:
                    # Left-deep only: the inner (right) input must be a base
                    # relation.  Both orientations of every split are
                    # enumerated, so no plans are lost.
                    continue
                predicates = crossing.get(other)
                if predicates is None:
                    predicates = crossing[sub] = [
                        j for edge_mask, j in inside if edge_mask & sub and edge_mask & other
                    ]
                if not predicates:
                    continue
                join_type, estimates = cheapest_join(
                    query, join_types, inputs[sub], inputs[other], predicates, inner, context
                )
                if winner is None or estimates[1] < winner[1][1]:
                    winner = (join_type, estimates, sub, other, predicates)
            # Second pass (only if necessary): allow cross products.
            if winner is None:
                for sub, other in splits:
                    if left_deep_only and sub.bit_count() != 1 and other.bit_count() != 1:
                        continue
                    join_type, estimates = cheapest_join(
                        query, join_types, inputs[sub], inputs[other], [], inner, context
                    )
                    if winner is None or estimates[1] < winner[1][1]:
                        winner = (join_type, estimates, sub, other, [])
            if winner is not None:
                join_type, estimates, sub, other, predicates = winner
                record = inputs[mask] = cost_model.joined_input(inputs[sub], inputs[other], estimates)
                best[mask] = DPEntry(record, join_type, sub, other, predicates)
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


def count_join_tree_shapes(n_relations: int) -> int:
    """Number of ordered binary join trees over ``n`` distinct relations.

    Equals ``n! * Catalan(n - 1)`` — the quantity behind the paper's remark
    that there are far more bushy than left-deep plans.
    """
    if n_relations <= 0:
        return 0
    catalan = 1
    for i in range(2, n_relations):
        catalan = catalan * (n_relations - 1 + i) // i
    factorial = 1
    for i in range(2, n_relations + 1):
        factorial *= i
    return factorial * catalan


def count_left_deep_orders(n_relations: int) -> int:
    """Number of left-deep join orders (simply ``n!``)."""
    total = 1
    for i in range(2, n_relations + 1):
        total *= i
    return total
