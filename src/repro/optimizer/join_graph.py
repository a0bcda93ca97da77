"""The join graph of one query as bitmasks (bit ``i``: ``query.aliases[i]``), read by
every enumerator and search.  Built from the query being enumerated and never stored
on the query or on anything planner threads share.  :meth:`BoundQuery.joins_between`
and its kin stay the set-based reference.
"""

from __future__ import annotations

from repro.sql.binder import BoundQuery, JoinPredicate


class JoinGraph:
    """Alias bits, predicate masks and neighbour masks of one bound query."""

    __slots__ = ("aliases", "bit_of", "edges", "neighbours", "_touching")

    def __init__(self, query: BoundQuery) -> None:
        self.aliases = aliases = query.aliases
        self.bit_of = bit_of = {alias: 1 << i for i, alias in enumerate(aliases)}
        #: Every join predicate beside the mask of the two aliases it connects,
        #: in ``query.joins`` order (the order predicates take inside a node).
        self.edges = [(bit_of[j.left_alias] | bit_of[j.right_alias], j) for j in query.joins]
        #: ``neighbours[i]``: mask of the aliases joined to alias ``i`` (its own
        #: bit too when a self-join predicate makes it its own neighbour).
        self.neighbours = [0] * len(aliases)
        for join in query.joins:
            left, right = bit_of[join.left_alias], bit_of[join.right_alias]
            self.neighbours[left.bit_length() - 1] |= right
            self.neighbours[right.bit_length() - 1] |= left
        #: Per alias, the edges touching it (still in ``query.joins`` order).
        self._touching = [[edge for edge in self.edges if edge[0] & bit] for bit in bit_of.values()]

    def predicates(self, left: int, right: int) -> list[JoinPredicate]:
        """The predicates joining two disjoint masks, in ``query.joins`` order."""
        # A single alias on either side: scan only the predicates touching it.
        if not right & (right - 1):
            edges = self._touching[right.bit_length() - 1]
        elif not left & (left - 1):
            edges = self._touching[left.bit_length() - 1]
        else:
            edges = self.edges
        return [j for edge_mask, j in edges if edge_mask & left and edge_mask & right]

    def aliases_of(self, mask: int) -> frozenset[str]:
        """The alias set of a mask (the key of a forced join method)."""
        return frozenset(alias for alias, bit in self.bit_of.items() if bit & mask)

    @property
    def connected(self) -> bool:
        """Whether the join graph connects every relation (:meth:`BoundQuery.is_connected`)."""
        everything = (1 << len(self.aliases)) - 1
        reached = frontier = everything & 1
        while frontier:
            low = frontier & -frontier
            grown = self.neighbours[low.bit_length() - 1] & ~reached
            reached |= grown
            frontier = (frontier ^ low) | grown
        return reached == everything
