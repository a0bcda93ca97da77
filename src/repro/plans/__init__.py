"""Physical query plans, plan properties and the hint mechanism.

A physical plan is a binary tree of :class:`ScanNode` leaves and
:class:`JoinNode` inner nodes, optionally topped by sort / aggregate nodes.
Plans are produced by the optimizer (:mod:`repro.optimizer.planner`), consumed
by the executor (:mod:`repro.executor.engine`), vectorized by the encoders
(:mod:`repro.encoding.plan_encoding`) and generated directly by the learned
optimizers (:mod:`repro.lqo`).
"""

from repro.plans.physical import (
    AggregateNode,
    JoinNode,
    JoinType,
    PlanNode,
    ScanNode,
    ScanType,
    SortNode,
    plan_aliases,
    plan_depth,
    plan_join_nodes,
    plan_scan_nodes,
)
from repro.plans.properties import (
    PlanShape,
    classify_plan_shape,
    is_bushy,
    is_left_deep,
    join_order_of,
)
from repro.plans.hints import HintSet, OperatorToggles, BAO_HINT_SETS, BAO_ARM_NAMES

__all__ = [
    "AggregateNode",
    "JoinNode",
    "JoinType",
    "PlanNode",
    "ScanNode",
    "ScanType",
    "SortNode",
    "plan_aliases",
    "plan_depth",
    "plan_join_nodes",
    "plan_scan_nodes",
    "PlanShape",
    "classify_plan_shape",
    "is_bushy",
    "is_left_deep",
    "join_order_of",
    "HintSet",
    "OperatorToggles",
    "BAO_HINT_SETS",
    "BAO_ARM_NAMES",
]
