"""PostgreSQL-flavoured cost model over the physical operators.

Costs are expressed in the usual abstract cost units (``seq_page_cost = 1``).
The formulas follow the structure of PostgreSQL's ``costsize.c`` but are
simplified to what the simulated executor actually models: page I/O split
into sequential and random accesses, per-tuple CPU costs, hash build/probe
costs, sort costs and a work_mem spill penalty.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import NamedTuple, Sequence

from repro.config import PAGE_SIZE_BYTES, PostgresConfig
from repro.errors import OptimizerError
from repro.optimizer.cardinality import CardinalityEstimator
from repro.plans.hints import HintSet, NO_HINTS, OperatorToggles
from repro.plans.physical import JoinCandidate, JoinNode, JoinType, PlanNode, ScanNode, ScanType
from repro.sql.binder import BoundQuery, FilterPredicate, JoinPredicate
from repro.storage.database import Database

#: Deterministic ordering of join types for tie-breaking.
JOIN_TYPE_ORDER: tuple[JoinType, ...] = (JoinType.HASH, JoinType.MERGE, JoinType.NESTED_LOOP)

#: Deterministic ordering of scan types for tie-breaking.
SCAN_TYPE_ORDER: tuple[ScanType, ...] = (
    ScanType.SEQ,
    ScanType.INDEX,
    ScanType.BITMAP,
    ScanType.TID,
)
_SCAN_RANK = {scan_type: rank for rank, scan_type in enumerate(SCAN_TYPE_ORDER)}

# Enum members as module constants: ``JoinType.HASH`` is an attribute lookup
# on the enum class, and the join formula runs once per candidate join.
_HASH, _MERGE, _NESTED_LOOP = JoinType.HASH, JoinType.MERGE, JoinType.NESTED_LOOP


@dataclass(frozen=True)
class OperatorEnables:
    """Effective operator availability after merging config and hint toggles."""

    seqscan: bool
    indexscan: bool
    bitmapscan: bool
    tidscan: bool
    nestloop: bool
    hashjoin: bool
    mergejoin: bool

    def allowed_join_types(self) -> tuple[JoinType, ...]:
        """The enabled join types in :data:`JOIN_TYPE_ORDER`; all of them when none is."""
        enabled = (self.hashjoin, self.mergejoin, self.nestloop)
        return tuple(t for t, on in zip(JOIN_TYPE_ORDER, enabled) if on) or JOIN_TYPE_ORDER


class AllowedOperators(NamedTuple):
    """What one hint set's operator toggles and forced scan methods allow.

    A :class:`PlanningContext` keeps one per distinct pair of those two hint
    parts (:meth:`CostModel.allowed_operators`); an enumerator looks its
    record up once per planning call and reads it for every candidate.
    """

    enables: OperatorEnables
    #: Join types costed when no hint forces one, in :data:`JOIN_TYPE_ORDER`.
    join_types: tuple[JoinType, ...]
    #: Cheapest scan per alias.
    scans: dict[str, ScanNode]

    def join_types_for(self, hints: HintSet, aliases: frozenset[str]) -> tuple[JoinType, ...]:
        """The join types costed for the join producing ``aliases``: the hint's forced one, else all allowed."""
        forced = hints.join_method_for(aliases) if hints.join_methods else None
        return self.join_types if forced is None else (forced,)


@dataclass
class PlanningContext:
    """What planning one query works out once instead of once per candidate.

    Independent of hints: the selectivity, row-width and index-probe memos
    depend on the query and the statistics of the moment alone, and what
    operator toggles and forced scans change is kept per pair of them in
    :attr:`allowed`.  So one context serves every planning call and every
    search step over one query, under any hint sets: the planner makes one
    per call, Bao one per query for all of its arms, an LQO search one per
    ``(query, search)``, HybridQO one per query for all of its prefix hints.
    ``BoundQuery`` is mutable, ``ANALYZE`` changes statistics and one
    ``CostModel`` serves concurrent planner threads, so a context is a local
    of whoever created it (:meth:`CostModel.planning_context`), handed down
    and dropped on return — never stored on anything shared.
    """

    #: Memo of ``CardinalityEstimator.join_rows``.
    join_selectivity: dict[JoinPredicate, float] = field(default_factory=dict)
    #: Tuple width in bytes per alias set (the sum of its tables' widths).
    row_width: dict[frozenset[str], float] = field(default_factory=dict)
    #: ``(table, column) -> (fixed cost per index probe, index entries)``, ``None`` without an index.
    index_probes: dict[tuple[str, str], tuple[float, float] | None] = field(default_factory=dict)
    #: ``(operator toggles, forced scan methods) -> what they allow``.
    allowed: dict[tuple[OperatorToggles, frozenset], AllowedOperators] = field(default_factory=dict)


class JoinInput(NamedTuple):
    """What costing a join reads of one of its inputs.

    The enumerators keep one per sub-plan and compare candidate joins as
    numbers, building :class:`JoinNode` objects only for the plan they
    return; :meth:`CostModel.join_input` makes one from a plan node, so a
    node and the record made for it cost every join alike.
    """

    #: Estimated rows and total cost, clamped to ``>= 1`` and ``>= 0``.
    rows: float
    cost: float
    #: Tuple width in bytes: a sum of integer byte counts, exact in any order.
    width: float
    #: Cost of sorting the input for a merge join (free when a scan delivers the order).
    sort_cost: float
    #: The input itself when it is a base-relation scan (index order, index nested loop).
    scan: ScanNode | None


class CostModel:
    """Estimates the cost of scans, joins and whole plans.

    The planning methods take an optional trailing :class:`PlanningContext`;
    without one they create a context of their own and run the same code.
    """

    def __init__(
        self,
        database: Database,
        config: PostgresConfig | None = None,
        estimator: CardinalityEstimator | None = None,
    ) -> None:
        self._db = database
        self.config = config or database.config
        self.estimator = estimator or CardinalityEstimator(database)

    # ------------------------------------------------------------------ toggles
    def resolve_enables(self, hints: HintSet = NO_HINTS) -> OperatorEnables:
        """Merge the configuration's ``enable_*`` knobs with hint toggles."""
        cfg = self.config
        toggles = hints.toggles
        def pick(hint_value: bool | None, config_value: bool) -> bool:
            return config_value if hint_value is None else hint_value

        return OperatorEnables(
            seqscan=pick(toggles.seqscan, cfg.enable_seqscan),
            indexscan=pick(toggles.indexscan, cfg.enable_indexscan),
            bitmapscan=pick(toggles.bitmapscan, cfg.enable_bitmapscan),
            tidscan=cfg.enable_tidscan,
            nestloop=pick(toggles.nestloop, cfg.enable_nestloop),
            hashjoin=pick(toggles.hashjoin, cfg.enable_hashjoin),
            mergejoin=pick(toggles.mergejoin, cfg.enable_mergejoin),
        )

    def planning_context(self) -> PlanningContext:
        """A fresh context for planning one query, under any hint sets."""
        return PlanningContext()

    def allowed_operators(self, hints: HintSet, context: PlanningContext) -> AllowedOperators:
        """What ``hints``' operator toggles and forced scans allow, memoised in ``context``."""
        key = (hints.toggles, frozenset(hints.scan_methods.items()))
        allowed = context.allowed.get(key)
        if allowed is None:
            enables = self.resolve_enables(hints)
            allowed = context.allowed[key] = AllowedOperators(enables, enables.allowed_join_types(), {})
        return allowed

    # -------------------------------------------------------------------- scans
    def _table_geometry(self, query: BoundQuery, alias: str) -> tuple[float, float]:
        """(row_count, page_count) of the base relation behind ``alias``."""
        stats = self._db.statistics(query.table_of(alias))
        return float(stats.row_count), float(stats.page_count)

    def _driving_filter(
        self, query: BoundQuery, alias: str
    ) -> tuple[FilterPredicate | None, float]:
        """Most selective filter on an *indexed* column, used to drive index scans."""
        table = query.table_of(alias)
        best: FilterPredicate | None = None
        best_sel = 1.0
        for predicate in query.filters_for(alias):
            if predicate.op in ("is_null", "is_not_null", "not_in", "not_like", "like", "!="):
                continue
            if not self._db.has_index(table, predicate.column):
                continue
            sel = self.estimator.filter_selectivity(query, predicate)
            if sel < best_sel:
                best = predicate
                best_sel = sel
        return best, best_sel

    def candidate_scans(
        self, query: BoundQuery, alias: str, hints: HintSet = NO_HINTS, enables: OperatorEnables | None = None
    ) -> list[ScanNode]:
        """All allowed scan alternatives for one alias, with estimates attached
        (``enables``: ``hints``' :meth:`resolve_enables`, when the caller holds it)."""
        enables = enables or self.resolve_enables(hints)
        forced = hints.scan_method_for(alias)
        table = query.table_of(alias)
        filters = tuple(query.filters_for(alias))
        rows, pages = self._table_geometry(query, alias)
        out_rows = self.estimator.base_rows(query, alias)
        cfg = self.config

        driving, driving_sel = self._driving_filter(query, alias)
        pk = self._db.schema.table(table).primary_key

        candidates: list[ScanNode] = []

        def add(scan_type: ScanType, cost: float, index_column: str | None = None) -> None:
            candidates.append(
                ScanNode(float(out_rows), float(cost), alias, table, scan_type, filters, index_column)
            )

        # Sequential scan: always considered (PostgreSQL keeps it as fallback,
        # `enable_seqscan=off` only disables it via a cost penalty).
        seq_cost = (
            pages * cfg.seq_page_cost
            + rows * cfg.cpu_tuple_cost
            + rows * len(filters) * cfg.cpu_operator_cost
        )
        if not enables.seqscan and forced is not ScanType.SEQ:
            seq_cost += 1.0e7
        if forced in (None, ScanType.SEQ):
            add(ScanType.SEQ, seq_cost)

        if driving is not None:
            index = self._db.index(table, driving.column)
            if index is not None:
                leaf_pages = float(index.page_count)
                height = float(index.height)
                matched = max(rows * driving_sel, 1.0)
                heap_pages_fetched = min(matched, pages)

                if enables.indexscan or forced is ScanType.INDEX:
                    index_cost = (
                        (height + driving_sel * leaf_pages) * cfg.random_page_cost
                        + heap_pages_fetched * cfg.random_page_cost * 0.75
                        + matched * (cfg.cpu_index_tuple_cost + cfg.cpu_tuple_cost)
                        + matched * len(filters) * cfg.cpu_operator_cost
                    )
                    if forced in (None, ScanType.INDEX):
                        add(ScanType.INDEX, index_cost, index_column=driving.column)

                if enables.bitmapscan or forced is ScanType.BITMAP:
                    bitmap_pages = min(2.0 * matched / max(1.0, rows / pages), pages)
                    bitmap_cost = (
                        (height + driving_sel * leaf_pages) * cfg.random_page_cost
                        + bitmap_pages * (cfg.seq_page_cost * 1.5)
                        + matched * (cfg.cpu_index_tuple_cost + cfg.cpu_tuple_cost)
                        + matched * len(filters) * cfg.cpu_operator_cost
                    )
                    if forced in (None, ScanType.BITMAP):
                        add(ScanType.BITMAP, bitmap_cost, index_column=driving.column)

        # Tid scan: only attractive for an equality filter on the primary key.
        if (enables.tidscan or forced is ScanType.TID) and pk is not None:
            pk_eq = [
                f for f in filters if f.column == pk and f.op == "=" and self._db.has_index(table, pk)
            ]
            if pk_eq and forced in (None, ScanType.TID):
                tid_cost = cfg.random_page_cost + cfg.cpu_tuple_cost + len(filters) * cfg.cpu_operator_cost
                add(ScanType.TID, tid_cost, index_column=pk)

        if forced is not None and not candidates:
            # The forced scan type is structurally impossible (e.g. index scan
            # without an indexed filter); fall back to a sequential scan, the
            # same silent fallback pg_hint_plan exhibits.
            add(ScanType.SEQ, seq_cost)
        if not candidates:
            add(ScanType.SEQ, seq_cost)
        return candidates

    def best_scan(
        self, query: BoundQuery, alias: str, hints: HintSet = NO_HINTS, context: PlanningContext | None = None
    ) -> ScanNode:
        """Cheapest allowed scan for an alias (honouring forced scan methods)."""
        allowed = self.allowed_operators(hints, context or self.planning_context())
        scan = allowed.scans.get(alias)
        if scan is None:
            scan = allowed.scans[alias] = min(
                self.candidate_scans(query, alias, hints, allowed.enables),
                key=lambda n: (n.estimated_cost, _SCAN_RANK[n.scan_type]),
            )
        elif scan.alias is not alias:
            # ``str`` identity is part of a plan's pickle (one object is
            # written once) and GEQO's aliases have two origins: keep the caller's.
            scan = replace(scan, alias=alias)
        return scan

    # --------------------------------------------------------------------- joins
    def _input(self, rows: float, cost: float, width: float, scan: ScanNode | None) -> JoinInput:
        rows = max(rows, 1.0)
        sort_cost = rows * math.log2(max(rows, 2.0)) * self.config.cpu_operator_cost * 2.0 if rows > 1 else 0.0
        return JoinInput(rows, max(cost, 0.0), width, sort_cost, scan)

    def join_input(self, query: BoundQuery, plan: PlanNode, context: PlanningContext) -> JoinInput:
        """The record :meth:`cheapest_join` costs ``plan`` by as a join input."""
        aliases = plan.aliases
        width = context.row_width.get(aliases)
        if width is None:
            width = 0.0
            for alias in aliases:
                width += self._db.schema.table(query.table_of(alias)).row_width_bytes
            context.row_width[aliases] = width
        return self._input(
            plan.estimated_rows, plan.estimated_cost, width, plan if isinstance(plan, ScanNode) else None
        )

    def joined_input(self, left: JoinInput, right: JoinInput, estimates: tuple[float, float]) -> JoinInput:
        """The record of the join of ``left`` and ``right`` estimated at ``(rows, cost)``:
        equal to :meth:`join_input` of the node :meth:`join_node` builds for it."""
        rows, cost = estimates
        return self._input(rows, cost, left.width + right.width, None)

    def _index_probe(
        self, scan: ScanNode, predicates: Sequence[JoinPredicate], context: PlanningContext
    ) -> tuple[float, float] | None:
        """``(fixed cost per probe, index entries)`` of an index nested loop into ``scan``.

        The index is that of the first predicate (in ``predicates`` order) on
        an indexed column of ``scan``; ``None`` when there is none.
        """
        alias = scan.alias
        probes = context.index_probes
        for predicate in predicates:
            if predicate.involves(alias):
                key = (scan.table, predicate.column_for(alias))
                if key in probes:
                    probe = probes[key]
                else:
                    index = self._db.index(*key)
                    cfg = self.config
                    probe = probes[key] = None if index is None else (
                        float(index.height) * cfg.random_page_cost * 0.5 + cfg.cpu_index_tuple_cost,
                        max(float(index.entry_count), 1.0),
                    )
                if probe is not None:
                    return probe
        return None

    def cheapest_join(
        self, query: BoundQuery, join_types: Sequence[JoinType], left: JoinInput, right: JoinInput,
        predicates: Sequence[JoinPredicate], context: PlanningContext,
    ) -> tuple[JoinType, tuple[float, float]]:
        """``(join type, (output rows, total cost))`` of the cheapest of ``join_types``.

        The one join cost formula.  Costs include the input costs.  All types
        share one ``join_rows`` estimate; ``join_types`` must be in
        :data:`JOIN_TYPE_ORDER`, so that on a cost tie the earlier type wins.
        """
        cfg = self.config
        cpu_operator_cost = cfg.cpu_operator_cost
        cpu_tuple_cost = cfg.cpu_tuple_cost
        left_rows, left_cost, _, left_sort_cost, left_scan = left
        right_rows, right_cost, right_width, right_sort_cost, right_scan = right
        rows = self.estimator.join_rows(query, left_rows, right_rows, predicates, context.join_selectivity)
        cross_penalty = 0.0 if predicates else left_rows * right_rows * cpu_operator_cost

        best_type: JoinType | None = None
        best_cost = math.inf
        for join_type in join_types:
            if join_type is _HASH:
                inner_bytes = right_rows * max(right_width, 8.0)
                cost = (
                    left_cost
                    + right_cost
                    + right_rows * cpu_operator_cost * 1.5  # build
                    + left_rows * cpu_operator_cost  # probe
                    + rows * cpu_tuple_cost
                    + cross_penalty
                )
                if inner_bytes > cfg.work_mem:
                    spill_pages = inner_bytes / PAGE_SIZE_BYTES
                    cost += 2.0 * spill_pages * cfg.seq_page_cost
            elif join_type is _MERGE:
                if left_scan is not None and _is_sorted_on_join_key(left_scan, predicates):
                    left_sort_cost = 0.0
                if right_scan is not None and _is_sorted_on_join_key(right_scan, predicates):
                    right_sort_cost = 0.0
                cost = (
                    left_cost
                    + right_cost
                    + left_sort_cost
                    + right_sort_cost
                    + (left_rows + right_rows) * cpu_operator_cost
                    + rows * cpu_tuple_cost
                    + cross_penalty
                )
            elif join_type is _NESTED_LOOP:
                probe = None if right_scan is None else self._index_probe(right_scan, predicates, context)
                if probe is not None:
                    fixed_probe_cost, index_entries = probe
                    probe_cost = fixed_probe_cost + max(right_rows / index_entries, 1.0) * cpu_tuple_cost
                    cost = left_cost + left_rows * probe_cost + rows * cpu_tuple_cost
                else:
                    # Materialized nested loop: the inner is evaluated once and
                    # re-scanned from memory for every outer tuple.
                    cost = (
                        left_cost
                        + right_cost
                        + left_rows * right_rows * cpu_operator_cost
                        + rows * cpu_tuple_cost
                    )
                cost += cross_penalty
            else:
                raise OptimizerError(f"unknown join type {join_type!r}")
            if best_type is None or cost < best_cost:
                best_type, best_cost = join_type, cost
        assert best_type is not None
        return best_type, (rows, best_cost)

    def join_cost_bound(self, left: JoinInput, right: JoinInput) -> float:
        """A lower bound on the cost :meth:`cheapest_join` gives any join of ``left`` to ``right``.

        Every join type costs ``left.cost + right.cost`` plus terms that are
        never negative, except the index nested loop into a scan, which pays
        ``left.rows`` probes of at least ``cpu_tuple_cost`` each instead of
        ``right.cost``.  The bound holds bit for bit, not just in real
        arithmetic: every term is ``>= 0`` (:class:`PostgresConfig` rejects
        negative cost constants) and IEEE addition and multiplication are
        monotone, so adding a term never lowers a running sum.
        """
        if right.scan is None:
            return left.cost + right.cost
        return left.cost + min(right.cost, left.rows * self.config.cpu_tuple_cost)

    def join_node(
        self,
        query: BoundQuery,
        join_type: JoinType,
        left: PlanNode,
        right: PlanNode,
        predicates: Sequence[JoinPredicate] | None = None,
        estimates: tuple[float, float] | None = None,
    ) -> JoinNode:
        """Build a join node of a specific type with estimates attached.

        ``estimates`` is the ``(rows, cost)`` the caller already worked out
        for this join (:meth:`best_join` costs its candidates as numbers and
        builds only the winner); without it they are derived here.
        """
        if predicates is None:
            predicates = query.joins_between(left.aliases, right.aliases)
        if estimates is None:
            context = self.planning_context()
            estimates = self.cheapest_join(
                query, (join_type,), self.join_input(query, left, context),
                self.join_input(query, right, context), predicates, context,
            )[1]
        rows, cost = estimates
        return JoinNode(float(rows), float(cost), join_type, left, right, tuple(predicates))

    def best_join_estimates(
        self, query: BoundQuery, left: PlanNode, right: PlanNode, hints: HintSet,
        predicates: Sequence[JoinPredicate], context: PlanningContext,
    ) -> tuple[JoinType, tuple[float, float]]:
        """``(join type, (rows, cost))`` of the node :meth:`best_join` would build.

        For callers that compare many candidate joins and keep one: cost them
        as numbers, then hand the winner's to :meth:`join_node`.
        """
        join_types = self.allowed_operators(hints, context).join_types_for(hints, left.aliases | right.aliases)
        return self.cheapest_join(
            query, join_types, self.join_input(query, left, context), self.join_input(query, right, context),
            predicates, context,
        )

    def best_join(
        self, query: BoundQuery, left: PlanNode, right: PlanNode, hints: HintSet = NO_HINTS,
        predicates: Sequence[JoinPredicate] | None = None, context: PlanningContext | None = None,
    ) -> JoinNode:
        """Cheapest allowed join between two sub-plans (considering both orientations
        only for the inner/outer-sensitive operators via the caller's symmetry)."""
        if context is None:
            context = self.planning_context()
        if predicates is None:
            predicates = query.joins_between(left.aliases, right.aliases)
        join_type, estimates = self.best_join_estimates(query, left, right, hints, predicates, context)
        return self.join_node(query, join_type, left, right, predicates, estimates=estimates)

    def candidate_join(
        self, query: BoundQuery, join_types: Sequence[JoinType], left: PlanNode, right: PlanNode,
        left_input: JoinInput, right_input: JoinInput, predicates: Sequence[JoinPredicate], context: PlanningContext,
    ) -> JoinCandidate:
        """The join :meth:`best_join` would build without a forced join method,
        over ``join_types`` (its :class:`AllowedOperators`' ones), costed from
        the children's records and left unbuilt.

        For searches that cost many candidate joins and keep few: they keep
        the :class:`JoinInput` of every sub-plan they hold and build the
        candidates they keep with :meth:`build_join`.
        """
        join_type, (rows, cost) = self.cheapest_join(
            query, join_types, left_input, right_input, predicates, context
        )
        return JoinCandidate(float(rows), float(cost), join_type, left, right, tuple(predicates))

    def build_join(self, query: BoundQuery, candidate: JoinCandidate) -> JoinNode:
        """The node of a :meth:`candidate_join`: the one :meth:`best_join` builds."""
        return self.join_node(
            query, candidate.join_type, candidate.left, candidate.right, candidate.predicates,
            estimates=(candidate.estimated_rows, candidate.estimated_cost),
        )


def _is_sorted_on_join_key(scan: ScanNode, predicates: Sequence[JoinPredicate]) -> bool:
    """Whether ``scan`` is an index scan delivering a join key's order (no sort for a merge join)."""
    if scan.scan_type is not ScanType.INDEX:
        return False
    for predicate in predicates:
        if predicate.involves(scan.alias) and predicate.column_for(scan.alias) == scan.index_column:
            return True
    return False
