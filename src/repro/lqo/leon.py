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
often competitive.  Both walk the shared :class:`~repro.lqo.search.JoinSearch`
state.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np

from repro import simclock
from repro.lqo.base import BaseOptimizer, LQOEnvironment, PlannedQuery, TrainingReport
from repro.lqo.search import JoinSearch, Subplan
from repro.ml.nn import PairwiseRanker
from repro.optimizer.enumeration import left_deep_plan_from_order
from repro.plans.hints import BAO_HINT_SETS
from repro.plans.physical import PlanNode
from repro.sql.binder import BoundQuery
from repro.workloads.workload import BenchmarkQuery


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
        cost_model = self.env.planner.cost_model
        context = cost_model.planning_context()
        for _ in range(2):
            order = list(query.bound.aliases)
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
    def _scores(self, search: JoinSearch, candidates: list[Subplan]) -> np.ndarray:
        """Rank candidates: learned score when trained, else cost estimates."""
        if search.encoder is None:
            return np.asarray([subplan.plan.estimated_cost for subplan in candidates])
        return self._ranker.score(np.vstack([search.row(subplan) for subplan in candidates]))

    def _top(self, search: JoinSearch, candidates: list[Subplan], keep: int) -> list[Subplan]:
        """The ``keep`` best-ranked candidates, built."""
        return [search.build(candidates[i]) for i in np.argsort(self._scores(search, candidates))[:keep]]

    def _best(self, search: JoinSearch, candidates: list[Subplan]) -> Subplan:
        return candidates[int(np.argmin(self._scores(search, candidates)))]

    def _dp_enumerate(self, search: JoinSearch) -> Subplan | None:
        """DP over connected subsets keeping the top-k ranked candidates per class."""
        n = len(search.query.aliases)
        table: dict[int, list[Subplan]] = {
            1 << i: [search.scan(alias)] for i, alias in enumerate(search.query.aliases)
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
                        predicates = search.graph.predicates(sub, other)
                        if predicates:
                            for left in table[sub]:
                                for right in table[other]:
                                    candidates.append(search.join(left, right, predicates))
                    sub = (sub - 1) & mask
                if candidates:
                    table[mask] = self._top(search, candidates, self.candidates_per_class)
        finalists = table.get((1 << n) - 1)
        return self._best(search, finalists) if finalists else None

    def _beam_search(self, search: JoinSearch) -> Subplan | None:
        """Ranked beam search over left-deep orders for very large queries."""
        aliases = search.query.aliases
        scans = {alias: search.scan(alias) for alias in aliases}
        beams = self._top(search, list(scans.values()), self.beam_width)
        for _ in range(len(aliases) - 1):
            expansions: list[Subplan] = []
            for beam in beams:
                links = [
                    (alias, search.graph.predicates(beam.mask, bit))
                    for alias, bit in search.graph.bit_of.items() if not bit & beam.mask
                ]
                connected = [link for link in links if link[1]] or links
                expansions += [search.join(beam, scans[alias], predicates) for alias, predicates in connected]
            if not expansions:
                break
            beams = self._top(search, expansions, self.beam_width)
        everything = (1 << len(aliases)) - 1
        complete = [beam for beam in beams if beam.mask == everything]
        return self._best(search, complete) if complete else None

    def _strategy(self, query: BoundQuery) -> str:
        """The search: DP up to ``max_dp_relations``, else a beam."""
        return "ranked-dp" if query.num_relations <= self.max_dp_relations else "ranked-beam"

    def search_plan(self, query: BoundQuery) -> PlanNode:
        """Ranked DP for small queries, a ranked beam for large ones."""
        search = JoinSearch(self.env, query, self._ranker.is_trained)
        if self._strategy(query) == "ranked-dp":
            found = self._dp_enumerate(search)
        else:
            found = self._beam_search(search)
        if found is None:
            return self.env.plan_with_hints(query).plan
        return search.complete(found)[0]

    def plan_query(self, query: BenchmarkQuery) -> PlannedQuery:
        def body(q: BenchmarkQuery):
            plan = self.search_plan(q.bound)
            planning_time = simclock.hinted_planning_ms(q.bound)
            return plan, planning_time, {"strategy": self._strategy(q.bound)}

        return self._timed_inference(body, query)
