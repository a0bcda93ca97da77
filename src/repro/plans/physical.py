"""Physical plan node types.

Plan nodes are immutable value objects.  Cardinality and cost estimates are
attached by the optimizer when the plan is built (``estimated_rows`` /
``estimated_cost``) so that encoders can read them without re-running
estimation, mirroring how LQOs read estimates out of ``EXPLAIN``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace
from typing import Iterator, NamedTuple, Sequence

from repro.errors import PlanError
from repro.sql.binder import FilterPredicate, JoinPredicate


class ScanType(enum.Enum):
    """Physical scan operators of the simulated DBMS."""

    SEQ = "Seq Scan"
    INDEX = "Index Scan"
    BITMAP = "Bitmap Heap Scan"
    TID = "Tid Scan"


class JoinType(enum.Enum):
    """Physical join operators of the simulated DBMS."""

    NESTED_LOOP = "Nested Loop"
    HASH = "Hash Join"
    MERGE = "Merge Join"


class JoinKind(enum.Enum):
    """Logical join kinds: inner, or NULL-extending outer variants.

    Outer kinds pin the operand order of their join node — the right child
    is always the nullable side for LEFT, and FULL additionally NULL-extends
    the left side.  The optimizer never commutes across a non-INNER node.
    """

    INNER = "Inner"
    LEFT = "Left"
    FULL = "Full"


@dataclass(frozen=True)
class PlanNode:
    """Base class for physical plan nodes."""

    #: Estimated output rows (set by the optimizer; -1 when unknown).
    estimated_rows: float = field(default=-1.0, compare=False)
    #: Estimated total cost in PostgreSQL cost units (set by the optimizer).
    estimated_cost: float = field(default=-1.0, compare=False)

    @property
    def aliases(self) -> frozenset[str]:
        """Base-relation aliases below this node.

        Memoised under a ``_repro_*`` key (nodes are immutable, the optimizer
        asks once per join considered); :meth:`__getstate__` strips it, so a
        plan pickles to the same bytes whether or not it was ever asked.
        """
        try:
            return self.__dict__["_repro_aliases"]
        except KeyError:
            aliases = self.__dict__["_repro_aliases"] = self._aliases()
            return aliases

    def _aliases(self) -> frozenset[str]:
        raise NotImplementedError

    def __getstate__(self) -> dict:
        state = self.__dict__
        if "_repro_aliases" in state:
            state = state.copy()
            del state["_repro_aliases"]
        return state

    def children(self) -> tuple["PlanNode", ...]:
        return ()

    def with_estimates(self, rows: float, cost: float) -> "PlanNode":
        """Return a copy of this node with estimates attached."""
        return replace(self, estimated_rows=float(rows), estimated_cost=float(cost))

    # -- traversal ----------------------------------------------------------
    def walk(self) -> Iterator["PlanNode"]:
        """Pre-order traversal of the plan tree."""
        yield self
        for child in self.children():
            yield from child.walk()

    def node_count(self) -> int:
        return sum(1 for _ in self.walk())

    def label(self) -> str:
        raise NotImplementedError

    def pretty(self, indent: int = 0) -> str:
        """EXPLAIN-style indented rendering of the plan tree."""
        pad = "  " * indent
        parts = [f"{pad}{self.label()}"]
        if self.estimated_rows >= 0:
            parts[-1] += f"  (rows={self.estimated_rows:.0f} cost={self.estimated_cost:.1f})"
        for child in self.children():
            parts.append(child.pretty(indent + 1))
        return "\n".join(parts)


@dataclass(frozen=True)
class ScanNode(PlanNode):
    """A leaf node scanning one base relation under an alias."""

    alias: str = ""
    table: str = ""
    scan_type: ScanType = ScanType.SEQ
    filters: tuple[FilterPredicate, ...] = ()
    #: Column used by INDEX / BITMAP / TID scans to drive the access path.
    index_column: str | None = None

    def __post_init__(self) -> None:
        if not self.alias or not self.table:
            raise PlanError("scan node requires both an alias and a table")
        if self.scan_type in (ScanType.INDEX, ScanType.BITMAP, ScanType.TID) and not self.index_column:
            raise PlanError(f"{self.scan_type.value} on {self.alias!r} requires an index column")

    def _aliases(self) -> frozenset[str]:
        return frozenset({self.alias})

    def label(self) -> str:
        suffix = f" using {self.index_column}" if self.index_column else ""
        return f"{self.scan_type.value} on {self.table} {self.alias}{suffix}"


@dataclass(frozen=True)
class JoinNode(PlanNode):
    """An inner node joining two sub-plans with one or more equi-join predicates."""

    join_type: JoinType = JoinType.HASH
    left: PlanNode | None = None
    right: PlanNode | None = None
    predicates: tuple[JoinPredicate, ...] = ()
    #: Logical kind: INNER joins reorder freely, LEFT/FULL NULL-extend
    #: unmatched rows and pin their operand order.
    join_kind: JoinKind = JoinKind.INNER

    def __post_init__(self) -> None:
        if self.left is None or self.right is None:
            raise PlanError("join node requires both children")
        if self.join_kind is not JoinKind.INNER and not self.predicates:
            raise PlanError(f"{self.join_kind.value} join requires at least one predicate")
        left, right = self.left.aliases, self.right.aliases
        if not left.isdisjoint(right):
            raise PlanError(f"join children share aliases {sorted(left & right)}")
        for predicate in self.predicates:
            a, b = predicate.left_alias, predicate.right_alias
            if not ((a in left and b in right) or (a in right and b in left)):
                raise PlanError(
                    f"join predicate {predicate} does not connect the two children"
                )

    def _aliases(self) -> frozenset[str]:
        assert self.left is not None and self.right is not None
        return self.left.aliases | self.right.aliases

    def children(self) -> tuple[PlanNode, ...]:
        assert self.left is not None and self.right is not None
        return (self.left, self.right)

    @property
    def is_cross_product(self) -> bool:
        return not self.predicates

    def label(self) -> str:
        preds = _predicate_text(self.predicates)
        if self.join_kind is JoinKind.INNER:
            operator = self.join_type.value
        elif self.join_type is JoinType.NESTED_LOOP:
            # PostgreSQL style: "Nested Loop Left Join" but "Hash Left Join".
            operator = f"{self.join_type.value} {self.join_kind.value} Join"
        else:
            base = self.join_type.value.removesuffix(" Join")
            operator = f"{base} {self.join_kind.value} Join"
        return f"{operator} on {preds}"


class JoinCandidate(NamedTuple):
    """An inner join of two built sub-plans, costed but not built.

    What a search compares candidate joins by: its fields read like those of
    :class:`JoinNode`, so plan encoders encode both alike, and
    :meth:`~repro.optimizer.cost_model.CostModel.build_join` turns the
    candidates a search keeps into nodes.
    """

    estimated_rows: float
    estimated_cost: float
    join_type: JoinType
    left: PlanNode
    right: PlanNode
    predicates: tuple[JoinPredicate, ...]

    def label(self) -> str:
        return f"{self.join_type.value} on {_predicate_text(self.predicates)}"


def _predicate_text(predicates: Sequence[JoinPredicate]) -> str:
    return " AND ".join(str(p) for p in predicates) or "<cross product>"


@dataclass(frozen=True)
class SortNode(PlanNode):
    """A sort on top of a sub-plan (ORDER BY or merge-join input)."""

    child: PlanNode | None = None
    sort_keys: tuple[tuple[str, str], ...] = ()  # (alias, column) pairs

    def __post_init__(self) -> None:
        if self.child is None:
            raise PlanError("sort node requires a child")

    def _aliases(self) -> frozenset[str]:
        assert self.child is not None
        return self.child.aliases

    def children(self) -> tuple[PlanNode, ...]:
        assert self.child is not None
        return (self.child,)

    def label(self) -> str:
        keys = ", ".join(f"{a}.{c}" for a, c in self.sort_keys)
        return f"Sort ({keys})"


@dataclass(frozen=True)
class AggregateNode(PlanNode):
    """A (grouped) aggregation on top of a sub-plan."""

    child: PlanNode | None = None
    group_by: tuple[tuple[str, str], ...] = ()
    aggregates: tuple[str, ...] = ()  # rendered aggregate expressions

    def __post_init__(self) -> None:
        if self.child is None:
            raise PlanError("aggregate node requires a child")

    def _aliases(self) -> frozenset[str]:
        assert self.child is not None
        return self.child.aliases

    def children(self) -> tuple[PlanNode, ...]:
        assert self.child is not None
        return (self.child,)

    def label(self) -> str:
        mode = "GroupAggregate" if self.group_by else "Aggregate"
        return f"{mode} ({', '.join(self.aggregates) or '*'})"


# ---------------------------------------------------------------------------
# Traversal helpers
# ---------------------------------------------------------------------------

def plan_scan_nodes(plan: PlanNode) -> list[ScanNode]:
    """All scan leaves of a plan in pre-order."""
    return [node for node in plan.walk() if isinstance(node, ScanNode)]


def plan_join_nodes(plan: PlanNode) -> list[JoinNode]:
    """All join nodes of a plan in pre-order."""
    return [node for node in plan.walk() if isinstance(node, JoinNode)]


def plan_aliases(plan: PlanNode) -> frozenset[str]:
    """The set of base-relation aliases covered by a plan."""
    return plan.aliases


def plan_depth(plan: PlanNode) -> int:
    """Height of the plan tree (a single scan has depth 1)."""
    children = plan.children()
    if not children:
        return 1
    return 1 + max(plan_depth(child) for child in children)


def strip_decorations(plan: PlanNode) -> PlanNode:
    """Remove sort/aggregate wrappers, returning the scan/join core of a plan."""
    while isinstance(plan, (SortNode, AggregateNode)):
        assert plan.child is not None
        plan = plan.child
    return plan


def validate_plan(plan: PlanNode, expected_aliases: Sequence[str]) -> None:
    """Check a plan covers exactly ``expected_aliases`` (raises :class:`PlanError`)."""
    got = plan.aliases
    expected = frozenset(expected_aliases)
    if got != expected:
        missing = expected - got
        extra = got - expected
        raise PlanError(
            f"plan covers wrong aliases (missing={sorted(missing)}, extra={sorted(extra)})"
        )
