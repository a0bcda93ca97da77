"""GEQO — the genetic query optimizer for queries with many relations.

PostgreSQL switches from exhaustive dynamic programming to a genetic algorithm
once a query joins ``geqo_threshold`` (default 12) or more relations.  The
simulator mirrors that behaviour: chromosomes are join-order permutations,
fitness is the estimated cost of the left-deep plan built from the
permutation, and the population evolves through tournament selection, order
crossover and swap mutation.

The paper's Section 8.5 ablation (enable vs. disable GEQO) is driven by this
module together with the planner's configuration handling.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.errors import OptimizerError
from repro.optimizer.cost_model import CostModel, JoinInput, PlanningContext
from repro.optimizer.enumeration import left_deep_plan_from_order, require_inner_only
from repro.plans.hints import HintSet, NO_HINTS
from repro.plans.physical import JoinKind, PlanNode
from repro.runtime.fingerprint import stable_seed
from repro.sql.binder import BoundQuery


@dataclass(frozen=True)
class GeqoParameters:
    """Tuning knobs of the genetic search (defaults sized for simulation speed)."""

    population_size: int = 16
    generations: int = 12
    tournament_size: int = 3
    crossover_rate: float = 0.9
    mutation_rate: float = 0.15
    #: Random seed making the search deterministic for a given query.
    seed: int = 0


class GeqoEnumerator:
    """Genetic join-order search producing left-deep plans."""

    def __init__(self, cost_model: CostModel, parameters: GeqoParameters | None = None) -> None:
        self.cost_model = cost_model
        self.parameters = parameters or GeqoParameters()

    # ------------------------------------------------------------------ helpers
    @staticmethod
    def _order_crossover(rng: random.Random, parent_a: list[str], parent_b: list[str]) -> list[str]:
        """Order crossover (OX): keep a slice of parent A, fill the rest from B."""
        n = len(parent_a)
        if n < 3:
            return list(parent_a)
        i, j = sorted(rng.sample(range(n), 2))
        child: list[str | None] = [None] * n
        kept = child[i:j + 1] = parent_a[i:j + 1]
        fill = [alias for alias in parent_b if alias not in kept]
        position = 0
        for k in range(n):
            if child[k] is None:
                child[k] = fill[position]
                position += 1
        return [alias for alias in child if alias is not None]

    @staticmethod
    def _swap_mutation(rng: random.Random, order: list[str]) -> list[str]:
        n = len(order)
        if n < 2:
            return list(order)
        i, j = rng.sample(range(n), 2)
        mutated = list(order)
        mutated[i], mutated[j] = mutated[j], mutated[i]
        return mutated

    def _seeded_orders(self, query: BoundQuery, rng: random.Random, count: int) -> list[list[str]]:
        """Initial population: random permutations plus one connectivity-aware order."""
        aliases = list(query.aliases)
        population = []
        neighbours = query.alias_adjacency()
        # One "breadth-first from the most connected relation" individual gives
        # the search a sensible starting point, as PostgreSQL's GEQO does with
        # its heuristic initialization.  A self-join predicate counts twice
        # towards a relation's degree.
        if aliases:
            start = max(aliases, key=lambda a: len(neighbours[a]) + (a in neighbours[a]))
            visited = [start]
            frontier = [start]
            while frontier:
                node = frontier.pop(0)
                for neighbor in sorted(neighbours[node]):
                    if neighbor not in visited:
                        visited.append(neighbor)
                        frontier.append(neighbor)
            for alias in aliases:
                if alias not in visited:
                    visited.append(alias)
            population.append(visited)
        while len(population) < count:
            permutation = list(aliases)
            rng.shuffle(permutation)
            population.append(permutation)
        return population

    # --------------------------------------------------------------------- search
    def plan(
        self, query: BoundQuery, hints: HintSet = NO_HINTS, context: PlanningContext | None = None
    ) -> PlanNode:
        """Run the genetic search and return the best plan found."""
        require_inner_only(query, "GeqoEnumerator")
        aliases = list(query.aliases)
        if not aliases:
            raise OptimizerError("query has no relations")
        cost_model = self.cost_model
        if context is None:
            context = cost_model.planning_context(hints)
        if len(aliases) == 1:
            return cost_model.best_scan(query, aliases[0], hints, context)

        # Individuals share join-order prefixes and a left-deep plan's cost
        # depends on its order alone: memoise every prefix costed in this
        # search, as a trie ``alias -> (prefix record, prefix mask, longer
        # prefixes)``.  Candidates are numbers; the winner alone is built.
        bit_of = {alias: 1 << i for i, alias in enumerate(aliases)}
        scan_inputs = {
            alias: cost_model.join_input(query, cost_model.best_scan(query, alias, hints, context), context)
            for alias in aliases
        }
        # Per alias, the predicates touching it beside the mask of their two
        # aliases, in ``query.joins`` order.
        edges = [(bit_of.get(j.left_alias, 0) | bit_of.get(j.right_alias, 0), j) for j in query.joins]
        edges_of = {alias: [edge for edge in edges if edge[0] & bit] for alias, bit in bit_of.items()}
        cheapest_join = cost_model.cheapest_join
        prefixes: dict = {}

        def fitness(order: list[str]) -> float:
            record: JoinInput | None = None
            mask = 0
            longer = prefixes
            for alias in order:
                known = longer.get(alias)
                if known is None:
                    bit = bit_of[alias]
                    extended = scan_inputs[alias]
                    if record is not None:
                        predicates = [j for edge_mask, j in edges_of[alias] if edge_mask & mask]
                        join_types = context.join_types
                        if hints.join_methods:
                            members = frozenset(a for a in aliases if bit_of[a] & (mask | bit))
                            join_types = cost_model.join_types_for(hints, members, context)
                        _join_type, estimates = cheapest_join(
                            query, join_types, record, extended, predicates, JoinKind.INNER, context
                        )
                        extended = cost_model.joined_input(record, extended, estimates)
                    known = longer[alias] = (extended, mask | bit, {})
                record, mask, longer = known
            assert record is not None
            return record.cost

        params = self.parameters
        # Seed from a stable digest of the alias set: builtin hash() is salted
        # per process and would make plans differ across processes/runs.
        rng = random.Random(params.seed ^ stable_seed(*sorted(aliases), bits=32))
        scored: list[tuple[float, list[str]]] = [
            (fitness(order), order)
            for order in self._seeded_orders(query, rng, params.population_size)
        ]
        scored.sort(key=lambda item: item[0])

        for _generation in range(params.generations):
            next_population = scored[:2]  # elitism
            while len(next_population) < params.population_size:
                parent_a = self._tournament(rng, scored)
                parent_b = self._tournament(rng, scored)
                if rng.random() < params.crossover_rate:
                    child = self._order_crossover(rng, parent_a, parent_b)
                else:
                    child = list(parent_a)
                if rng.random() < params.mutation_rate:
                    child = self._swap_mutation(rng, child)
                next_population.append((fitness(child), child))
            next_population.sort(key=lambda item: item[0])
            scored = next_population[: params.population_size]

        # The trie holds numbers, and ``str`` identity is part of a plan's
        # pickle: build the winner from its own order list.
        return left_deep_plan_from_order(query, cost_model, scored[0][1], hints, context)

    def _tournament(self, rng: random.Random, scored: list[tuple[float, list[str]]]) -> list[str]:
        contenders = rng.sample(scored, min(self.parameters.tournament_size, len(scored)))
        contenders.sort(key=lambda item: item[0])
        return contenders[0][1]
