"""Structural properties of physical plans (tree shape, join order).

Used by the Section 8.7 plan-type analysis (bushy vs. left-deep) and by the
hints an LQO derives from a plan it built (its join order).
"""

from __future__ import annotations

import enum

from repro.plans.physical import JoinNode, PlanNode, ScanNode, strip_decorations


class PlanShape(enum.Enum):
    """Join-tree shape classification."""

    SINGLE_RELATION = "single"
    LEFT_DEEP = "left-deep"
    RIGHT_DEEP = "right-deep"
    ZIGZAG = "zigzag"
    BUSHY = "bushy"


def _join_core(plan: PlanNode) -> PlanNode:
    return strip_decorations(plan)


def is_left_deep(plan: PlanNode) -> bool:
    """True when every join's right child is a base relation (a left-deep chain)."""
    core = _join_core(plan)
    for node in core.walk():
        if isinstance(node, JoinNode):
            assert node.right is not None
            if not isinstance(strip_decorations(node.right), ScanNode):
                return False
    return True


def is_right_deep(plan: PlanNode) -> bool:
    """True when every join's left child is a base relation."""
    core = _join_core(plan)
    for node in core.walk():
        if isinstance(node, JoinNode):
            assert node.left is not None
            if not isinstance(strip_decorations(node.left), ScanNode):
                return False
    return True


def is_zigzag(plan: PlanNode) -> bool:
    """True when every join has at least one base-relation child (but mixes sides)."""
    core = _join_core(plan)
    for node in core.walk():
        if isinstance(node, JoinNode):
            assert node.left is not None and node.right is not None
            left_scan = isinstance(strip_decorations(node.left), ScanNode)
            right_scan = isinstance(strip_decorations(node.right), ScanNode)
            if not (left_scan or right_scan):
                return False
    return True


def is_bushy(plan: PlanNode) -> bool:
    """True when at least one join combines two composite (non-leaf) inputs."""
    return not is_zigzag(plan)


def classify_plan_shape(plan: PlanNode) -> PlanShape:
    """Classify a plan as single-relation / left-deep / right-deep / zigzag / bushy.

    Following the paper (footnote 8), left-deep and right-deep are reported
    without loss of generality; the zigzag class captures linear trees that
    alternate which side holds the base relation.
    """
    core = _join_core(plan)
    if isinstance(core, ScanNode):
        return PlanShape.SINGLE_RELATION
    if is_left_deep(core):
        return PlanShape.LEFT_DEEP
    if is_right_deep(core):
        return PlanShape.RIGHT_DEEP
    if is_zigzag(core):
        return PlanShape.ZIGZAG
    return PlanShape.BUSHY


def join_order_of(plan: PlanNode) -> tuple[str, ...]:
    """The left-to-right order in which base relations appear in the plan."""
    core = _join_core(plan)
    order: list[str] = []

    def visit(node: PlanNode) -> None:
        node = strip_decorations(node)
        if isinstance(node, ScanNode):
            order.append(node.alias)
            return
        for child in node.children():
            visit(child)

    visit(core)
    return tuple(order)
