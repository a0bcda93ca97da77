"""LEON: an ML-aided optimizer based on learning-to-rank over enumerated plans.

LEON (Chen et al., VLDB 2023) keeps the DBMS's dynamic-programming enumeration
but replaces pure cost-based pruning with a learned pairwise ranking model:
candidate sub-plans of every equivalence class are scored and only the most
promising are kept.  The approach is accurate but pays for it with extreme
inference times — the paper measures hours per workload on JOB because tens of
thousands of sub-plans are scored per query (Section 8.2.2).  The same
characteristic shows up here: LEON's inference walks a DP lattice (or a wide
beam for very large queries) and scores every candidate with the ranker, so it
is by far the slowest method at inference time, while its executed plans are
often competitive.
"""

from __future__ import annotations

from itertools import combinations
from typing import NamedTuple

import numpy as np

from repro.lqo.base import BaseOptimizer, LQOEnvironment, PlannedQuery, TrainingReport
from repro.ml.nn import PairwiseRanker
from repro.optimizer.cost_model import JoinInput
from repro.plans.hints import BAO_HINT_SETS
from repro.plans.physical import JoinCandidate, PlanNode, validate_plan
from repro.sql.binder import BoundQuery, JoinPredicate
from repro.workloads.workload import BenchmarkQuery


class _Held(NamedTuple):
    """What a search keeps beside a subplan."""

    #: One bit per alias of ``query.aliases`` it covers.
    mask: int
    record: JoinInput
    #: Its encoder state; ``None`` while the ranker is untrained and ranks by cost.
    state: object


#: A subplan a search holds — a built plan, or a candidate join it has costed
#: but not built — with what it keeps beside it.
Subplan = tuple[PlanNode | JoinCandidate, _Held]


class _RankedSearch:
    """What one search over one query works out once: a planning context, the
    query's encoding and, beside every subplan, that subplan's alias mask,
    join-input record and encoder state — so a candidate join costs and
    encodes one new node, as a record.  Only the candidates it keeps are built."""

    def __init__(self, env: LQOEnvironment, ranker: PairwiseRanker, query: BoundQuery) -> None:
        self.query = query
        self.ranker = ranker
        self.cost_model = env.planner.cost_model
        self.context = self.cost_model.planning_context()
        self.encoder = env.tree_encoder() if ranker.is_trained else None
        self.query_vector = env.query_vector(query) if ranker.is_trained else None
        self.bit_of = bit_of = {alias: 1 << i for i, alias in enumerate(query.aliases)}
        # Every join predicate beside the mask of its two aliases, in ``query.joins`` order.
        self._edges = [(bit_of.get(j.left_alias, 0) | bit_of.get(j.right_alias, 0), j) for j in query.joins]

    def predicates(self, left_mask: int, right_mask: int) -> list[JoinPredicate]:
        """``query.joins_between`` the aliases of two disjoint masks."""
        return [j for edge_mask, j in self._edges if edge_mask & left_mask and edge_mask & right_mask]

    def scan(self, alias: str) -> Subplan:
        scan = self.cost_model.best_scan(self.query, alias, context=self.context)
        state = None if self.encoder is None else self.encoder.node_state(scan)
        return scan, _Held(self.bit_of[alias], self.cost_model.join_input(self.query, scan, self.context), state)

    def join(self, left: Subplan, right: Subplan, predicates: list[JoinPredicate]) -> Subplan:
        (left_plan, left_held), (right_plan, right_held) = left, right
        join = self.cost_model.candidate_join(
            self.query, left_plan, right_plan, left_held.record, right_held.record, predicates, self.context
        )
        record = self.cost_model.joined_input(
            left_held.record, right_held.record, (join.estimated_rows, join.estimated_cost)
        )
        state = None if self.encoder is None else self.encoder.node_state(join, left_held.state, right_held.state)
        return join, _Held(left_held.mask | right_held.mask, record, state)

    def scores(self, candidates: list[Subplan]) -> np.ndarray:
        """Rank candidates: learned score when trained, else cost estimates."""
        if self.encoder is None:
            return np.asarray([plan.estimated_cost for plan, _ in candidates])
        matrix = np.vstack(
            [np.concatenate([self.query_vector, self.encoder.readout(held.state)]) for _, held in candidates]
        )
        return self.ranker.score(matrix)

    def top(self, candidates: list[Subplan], keep: int) -> list[Subplan]:
        """The ``keep`` best-ranked candidates, built."""
        kept = []
        for i in np.argsort(self.scores(candidates))[:keep]:
            plan, held = candidates[i]
            if isinstance(plan, JoinCandidate):
                plan = self.cost_model.build_join(self.query, plan)
            kept.append((plan, held))
        return kept

    def best(self, candidates: list[Subplan]) -> PlanNode:
        return candidates[int(np.argmin(self.scores(candidates)))][0]


class LeonOptimizer(BaseOptimizer):
    """Learning-to-rank guided plan enumeration with per-class pruning."""

    name = "leon"

    def __init__(
        self,
        env: LQOEnvironment,
        candidates_per_class: int = 2,
        max_dp_relations: int = 7,
        beam_width: int = 6,
        executed_candidates_per_query: int = 4,
        seed: int = 0,
    ) -> None:
        super().__init__(env)
        self.candidates_per_class = candidates_per_class
        self.max_dp_relations = max_dp_relations
        self.beam_width = beam_width
        self.executed_candidates_per_query = executed_candidates_per_query
        self.seed = seed
        self._rng = np.random.default_rng(seed)
        self._ranker = PairwiseRanker(input_size=env.query_plan_vector_size, seed=seed + 7)

    # ------------------------------------------------------------------ features
    def _features(self, query: BoundQuery, plan: PlanNode) -> np.ndarray:
        return self.env.query_plan_vector(query, plan)

    # ------------------------------------------------------------------ training
    def _candidate_plans_for_training(self, query: BenchmarkQuery) -> list[PlanNode]:
        """Diverse candidate plans: the DBMS plan, hint-set plans and random orders."""
        from repro.optimizer.enumeration import left_deep_plan_from_order

        plans: list[PlanNode] = []
        seen: set[str] = set()

        def add(plan: PlanNode) -> None:
            signature = plan.pretty()
            if signature not in seen:
                seen.add(signature)
                plans.append(plan)

        add(self.env.plan_with_hints(query.bound).plan)
        for arm in BAO_HINT_SETS[1:4]:
            add(self.env.plan_with_hints(query.bound, arm).plan)
        aliases = list(query.bound.aliases)
        cost_model = self.env.planner.cost_model
        context = cost_model.planning_context()
        for _ in range(2):
            order = list(aliases)
            self._rng.shuffle(order)
            add(left_deep_plan_from_order(query.bound, cost_model, order, context=context))
        return plans

    def fit(self, train_queries: list[BenchmarkQuery]) -> TrainingReport:
        def body(queries: list[BenchmarkQuery]) -> int:
            better_rows: list[np.ndarray] = []
            worse_rows: list[np.ndarray] = []
            for query in queries:
                candidates = self._candidate_plans_for_training(query)
                candidates = candidates[: self.executed_candidates_per_query]
                measured: list[tuple[float, np.ndarray]] = []
                for plan in candidates:
                    latency, timed_out = self.env.training_latency(query.bound, plan)
                    if timed_out:
                        latency = latency * 2.0
                    measured.append((latency, self._features(query.bound, plan)))
                measured.sort(key=lambda item: item[0])
                for (fast_latency, fast_vec), (slow_latency, slow_vec) in combinations(measured, 2):
                    if slow_latency <= fast_latency * 1.02:
                        continue  # skip near-ties; they carry no ranking signal
                    better_rows.append(fast_vec)
                    worse_rows.append(slow_vec)
            if better_rows:
                self._ranker = PairwiseRanker(
                    input_size=self.env.query_plan_vector_size, seed=self.seed + 7
                )
                self._ranker.fit_pairs(
                    np.vstack(better_rows), np.vstack(worse_rows), epochs=50, seed=self.seed
                )
            return 1

        return self._timed_fit(body, train_queries)

    # ------------------------------------------------------------------ inference
    def _dp_enumerate(self, query: BoundQuery, search: _RankedSearch) -> PlanNode | None:
        """DP over connected subsets keeping the top-k ranked candidates per class."""
        aliases = list(query.aliases)
        n = len(aliases)
        table: dict[int, list[Subplan]] = {
            1 << i: [search.scan(alias)] for i, alias in enumerate(aliases)
        }
        for size in range(2, n + 1):
            for combo in combinations(range(n), size):
                mask = 0
                for i in combo:
                    mask |= 1 << i
                candidates: list[Subplan] = []
                sub = (mask - 1) & mask
                while sub:
                    other = mask ^ sub
                    if sub in table and other in table:
                        predicates = search.predicates(sub, other)
                        if predicates:
                            for left in table[sub]:
                                for right in table[other]:
                                    candidates.append(search.join(left, right, predicates))
                    sub = (sub - 1) & mask
                if candidates:
                    table[mask] = search.top(candidates, self.candidates_per_class)
        finalists = table.get((1 << n) - 1)
        return search.best(finalists) if finalists else None

    def _beam_search(self, query: BoundQuery, search: _RankedSearch) -> PlanNode | None:
        """Ranked beam search over left-deep orders for very large queries."""
        aliases = list(query.aliases)
        scans = {alias: search.scan(alias) for alias in aliases}
        beams = search.top(list(scans.values()), self.beam_width)
        for _ in range(len(aliases) - 1):
            expansions: list[Subplan] = []
            for beam in beams:
                mask = beam[1].mask
                links = [
                    (alias, search.predicates(mask, bit))
                    for alias, bit in search.bit_of.items() if not bit & mask
                ]
                connected = [link for link in links if link[1]] or links
                expansions += [search.join(beam, scans[alias], predicates) for alias, predicates in connected]
            if not expansions:
                break
            beams = search.top(expansions, self.beam_width)
        everything = (1 << len(aliases)) - 1
        complete = [beam for beam in beams if beam[1].mask == everything]
        return search.best(complete) if complete else None

    def _strategy(self, query: BoundQuery) -> str:
        return "ranked-dp" if query.num_relations <= self.max_dp_relations else "ranked-beam"

    def search_plan(self, query: BoundQuery) -> PlanNode:
        """Ranked DP for small queries, a ranked beam for large ones."""
        search = _RankedSearch(self.env, self._ranker, query)
        if self._strategy(query) == "ranked-dp":
            plan = self._dp_enumerate(query, search)
        else:
            plan = self._beam_search(query, search)
        if plan is None:
            plan = self.env.plan_with_hints(query).plan
        validate_plan(plan, query.aliases)
        return plan

    def plan_query(self, query: BenchmarkQuery) -> PlannedQuery:
        def body(q: BenchmarkQuery):
            plan = self.search_plan(q.bound)
            hints = self.env.hints_from_plan(q.bound, plan)
            planning_time = self.env.hinted_planning_time_ms(q.bound)
            return plan, hints, planning_time, {"strategy": self._strategy(q.bound)}

        return self._timed_inference(body, query)
