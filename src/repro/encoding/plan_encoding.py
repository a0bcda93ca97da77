"""Plan encoding: vectorizing physical plan trees for ML models.

Every plan node becomes a fixed-size feature vector holding

* a one-hot of the physical operator family (3 join types + 4 scan types),
* a one-hot of the base table (scan nodes only),
* log-scaled cardinality and cost estimates (as read from EXPLAIN).

The encoded plan keeps the binary tree structure (:class:`EncodedPlanTree`),
which tree-structured models (tree convolution / Tree-LSTM, Section 5) consume
directly; :meth:`PlanTreeEncoder.pooled_vector` additionally provides the
pooled fixed-size representation used by simpler regressors such as Bao's.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.catalog.schema import Schema
from repro.errors import EncodingError
from repro.plans.physical import (
    JoinCandidate, JoinNode, JoinType, PlanNode, ScanNode, ScanType, strip_decorations,
)

_JOIN_TYPES = (JoinType.NESTED_LOOP, JoinType.HASH, JoinType.MERGE)
_SCAN_TYPES = (ScanType.SEQ, ScanType.INDEX, ScanType.BITMAP, ScanType.TID)


@dataclass
class PlanNodeFeatures:
    """Feature vector of one plan node."""

    vector: np.ndarray
    label: str


@dataclass
class EncodedPlanTree:
    """A binary tree of node feature vectors mirroring the plan structure."""

    features: np.ndarray
    label: str
    left: "EncodedPlanTree | None" = None
    right: "EncodedPlanTree | None" = None

    def node_count(self) -> int:
        count = 1
        if self.left is not None:
            count += self.left.node_count()
        if self.right is not None:
            count += self.right.node_count()
        return count

    def all_features(self) -> np.ndarray:
        """Matrix of every node's features (pre-order), shape (n_nodes, dim)."""
        rows = [self.features]
        if self.left is not None:
            rows.append(self.left.all_features())
        if self.right is not None:
            rows.append(self.right.all_features())
        return np.vstack(rows)


class PlanTreeEncoder:
    """Encodes physical plans of one schema into feature trees and pooled vectors."""

    def __init__(self, schema: Schema, include_table_identity: bool = True) -> None:
        self.schema = schema
        self.include_table_identity = include_table_identity
        self._tables = schema.table_names()
        self._table_index = {name: i for i, name in enumerate(self._tables)}
        self._n_tables = len(self._tables) if include_table_identity else 0

    # -- geometry -----------------------------------------------------------------
    @property
    def node_feature_size(self) -> int:
        # operator one-hots + table one-hot + [log rows, log cost, is_join, is_scan]
        return len(_JOIN_TYPES) + len(_SCAN_TYPES) + self._n_tables + 4

    # -- encoding ------------------------------------------------------------------
    def join_vector(self, join_type: JoinType, rows: float, cost: float) -> np.ndarray:
        """Feature vector of a join from the three numbers an encoder reads of it.

        The record entry of :meth:`node_vector`: a search encodes a candidate
        join it has costed but not built through it, and every join node
        goes through it too.
        """
        vector = np.zeros(self.node_feature_size, dtype=np.float32)
        vector[_JOIN_TYPES.index(join_type)] = 1.0
        vector[-2] = 1.0  # is_join
        self._set_estimates(vector, rows, cost)
        return vector

    def node_vector(self, node: PlanNode | JoinCandidate) -> np.ndarray:
        """Feature vector of one scan or join node (its children do not enter)."""
        if isinstance(node, (JoinNode, JoinCandidate)):
            return self.join_vector(node.join_type, node.estimated_rows, node.estimated_cost)
        n_join, n_scan = len(_JOIN_TYPES), len(_SCAN_TYPES)
        vector = np.zeros(self.node_feature_size, dtype=np.float32)
        if isinstance(node, ScanNode):
            vector[n_join + _SCAN_TYPES.index(node.scan_type)] = 1.0
            vector[-1] = 1.0  # is_scan
            if self.include_table_identity:
                index = self._table_index.get(node.table)
                if index is None:
                    raise EncodingError(f"plan references unknown table {node.table!r}")
                vector[n_join + n_scan + index] = 1.0
        self._set_estimates(vector, node.estimated_rows, node.estimated_cost)
        return vector

    @staticmethod
    def _set_estimates(vector: np.ndarray, rows: float, cost: float) -> None:
        vector[-4] = np.log1p(max(rows, 1.0)) / 20.0
        vector[-3] = np.log1p(max(cost, 1.0)) / 20.0

    def encode_node(self, node: PlanNode | JoinCandidate) -> PlanNodeFeatures:
        """:meth:`node_vector` together with the node's EXPLAIN label."""
        return PlanNodeFeatures(vector=self.node_vector(node), label=node.label())

    def encode(self, plan: PlanNode | JoinCandidate) -> EncodedPlanTree:
        """Encode the scan/join core of a plan — or a candidate join over two plans — into a feature tree."""
        return self._encode_recursive(strip_decorations(plan))

    def _encode_recursive(self, node: PlanNode | JoinCandidate) -> EncodedPlanTree:
        features = self.encode_node(node)
        if isinstance(node, (JoinNode, JoinCandidate)):
            assert node.left is not None and node.right is not None
            return EncodedPlanTree(
                features=features.vector,
                label=features.label,
                left=self._encode_recursive(strip_decorations(node.left)),
                right=self._encode_recursive(strip_decorations(node.right)),
            )
        return EncodedPlanTree(features=features.vector, label=features.label)

    def pooled_vector(self, plan: PlanNode) -> np.ndarray:
        """Fixed-size pooled plan representation: [max-pool, mean-pool, sum of logs].

        This is the "stacking/pooling" style aggregation listed in Table 1 for
        methods that do not run a tree-structured network over the plan.
        """
        tree = self.encode(plan)
        matrix = tree.all_features()
        max_pool = matrix.max(axis=0)
        mean_pool = matrix.mean(axis=0)
        depth = np.asarray([matrix.shape[0] / 32.0], dtype=np.float32)
        return np.concatenate([max_pool, mean_pool, depth]).astype(np.float32)

