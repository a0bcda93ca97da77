"""The search state every learned join-order search plans with (Neo, Balsa, LEON).

Beside every subplan it keeps the alias mask, the :class:`JoinInput` record
and the encoder state, so a candidate join is costed and encoded as one new
node, from records, and built only when the search keeps it.  What a method
does with the candidates — Neo's greedy step, LEON's ranked top-k — stays in
its own loop.
"""

from __future__ import annotations

from typing import Any, NamedTuple

import numpy as np

from repro.lqo.base import LQOEnvironment
from repro.optimizer.cost_model import JoinInput, PlanningContext
from repro.optimizer.join_graph import JoinGraph
from repro.plans.hints import NO_HINTS
from repro.plans.physical import JoinCandidate, PlanNode, validate_plan
from repro.sql.binder import BoundQuery, JoinPredicate


class Subplan(NamedTuple):
    """A subplan a search holds, beside what costing and encoding a join with it reads."""

    #: A built plan, or a candidate join costed but not built.
    plan: PlanNode | JoinCandidate
    #: One bit per alias of the query's ``aliases`` it covers.
    mask: int
    record: JoinInput
    #: Its encoder state; ``None`` while the method's model is untrained.
    state: Any


class JoinSearch:
    """One search over one query.

    Candidates are encoded only when the method's model is ``trained``, with
    ``vector`` (the query's; made here when not given).  ``context`` is the
    query's planning context when the caller plans it many times (a fit).
    """

    def __init__(
        self, env: LQOEnvironment, query: BoundQuery, trained: bool,
        context: PlanningContext | None = None, vector: np.ndarray | None = None,
    ) -> None:
        self.query = query
        self.cost_model = env.planner.cost_model
        self.context = context if context is not None else self.cost_model.planning_context()
        self.graph = JoinGraph(query)
        self.join_types = self.cost_model.allowed_operators(NO_HINTS, self.context).join_types
        self.encoder = env.tree_conv if trained else None
        self.vector = None
        if trained:
            self.vector = vector if vector is not None else env.query_vector(query)

    def scan(self, alias: str) -> Subplan:
        scan = self.cost_model.best_scan(self.query, alias, context=self.context)
        state = None if self.encoder is None else self.encoder.node_state(scan)
        return Subplan(scan, self.graph.bit_of[alias], self.cost_model.join_input(self.query, scan, self.context), state)

    def join(self, left: Subplan, right: Subplan, predicates: list[JoinPredicate]) -> Subplan:
        """The cheapest join of ``left`` to ``right`` (both built), costed and encoded, not built."""
        join = self.cost_model.candidate_join(
            self.query, self.join_types, left.plan, right.plan, left.record, right.record, predicates, self.context,
        )
        record = self.cost_model.joined_input(left.record, right.record, (join.estimated_rows, join.estimated_cost))
        state = None if self.encoder is None else self.encoder.node_state(join, left.state, right.state)
        return Subplan(join, left.mask | right.mask, record, state)

    def row(self, subplan: Subplan) -> np.ndarray:
        """The model's input for ``subplan``: query vector, then plan vector."""
        return np.concatenate([self.vector, self.encoder.readout(subplan.state)])

    def build(self, subplan: Subplan) -> Subplan:
        """``subplan`` with its candidate join, if it holds one, built."""
        if isinstance(subplan.plan, JoinCandidate):
            return subplan._replace(plan=self.cost_model.build_join(self.query, subplan.plan))
        return subplan

    def complete(self, subplan: Subplan) -> tuple[PlanNode, Any]:
        """The executed plan of a subplan covering the query, and its encoder state."""
        subplan = self.build(subplan)
        validate_plan(subplan.plan, self.query.aliases)
        return subplan.plan, subplan.state
