"""The tree-structured plan encoder: a tree-convolution-style composition.

The paper's LQOs process plan trees either with tree convolutions (Neo, Bao,
Balsa, Lero, LEON) or Tree-LSTMs (RTOS, LOGER, HybridQO).  Every method run
here — HybridQO included — encodes plans with the one tree convolution below.
For HybridQO that is a documented deviation from Table 1, which lists a
Tree-LSTM for it; RTOS and LOGER, the other Tree-LSTM methods, are excluded
from the paper's experiments (Section 8.2) and are not implemented.

The encoder is a *fixed-weight* recursive composition function: the
composition matrices are drawn once from a seeded random generator and never
trained, while the downstream MLP head (``repro.ml.nn``) is the trainable
part.  This is a deliberate, documented simplification (docs/ARCHITECTURE.md,
"The LQO search loop"): it preserves what matters for the paper's analysis —
the representation is a function of the *tree structure* and of the per-node
operator/table/cardinality features — while keeping the backpropagation
machinery limited to the MLP head.  The same simplification is applied to
every method, so comparisons stay apples to apples.

The encoder is one *compose step* — a node's features plus the states of its
two children give the node's state — and a *readout* from the root's state to
the plan vector.  Encoding a whole tree is the recursion over that step; a
bottom-up plan search that already holds the states of two subplans composes
only the new join node (:meth:`TreeConvolutionEncoder.node_state`).  A state
is a value the caller keeps beside the subplan it describes: nothing is stored
on plan nodes or keyed by them, because a node's estimates do not take part in
its equality, plans outlive the environment (and so the weights) that encoded
them, and every environment seeds its own encoder.
"""

from __future__ import annotations

import numpy as np

from repro.encoding.plan_encoding import EncodedPlanTree, PlanTreeEncoder
from repro.errors import ModelError
from repro.plans.physical import JoinCandidate, PlanNode

#: A node's state: its hidden state and the element-wise max of its subtree's.
State = tuple[np.ndarray, np.ndarray]


class TreeConvolutionEncoder:
    """Recursive tree-convolution-style composition with max-pooling readout.

    Each node's hidden state is ``tanh(W_root x + W_left h_left + W_right
    h_right)``; the plan representation is the concatenation of the root state
    and the element-wise max over all node states (dynamic pooling).  A node's
    state is ``(hidden, max over its subtree's hidden states)``: a running max
    is exact in any order.
    """

    def __init__(
        self,
        plan_encoder: PlanTreeEncoder,
        hidden_size: int = 64,
        seed: int = 17,
    ) -> None:
        if hidden_size <= 0:
            raise ModelError("hidden size must be positive")
        self.plan_encoder = plan_encoder
        self.hidden_size = hidden_size
        rng = np.random.default_rng(seed)
        feature_size = plan_encoder.node_feature_size
        scale_x = 1.0 / np.sqrt(feature_size)
        scale_h = 1.0 / np.sqrt(hidden_size)
        self._w_root = rng.normal(0.0, scale_x, size=(feature_size, hidden_size))
        self._w_left = rng.normal(0.0, scale_h, size=(hidden_size, hidden_size))
        self._w_right = rng.normal(0.0, scale_h, size=(hidden_size, hidden_size))
        self._bias = rng.normal(0.0, 0.01, size=hidden_size)

    def compose(
        self,
        features: np.ndarray,
        left: State | None = None,
        right: State | None = None,
    ) -> State:
        """``(hidden state, element-wise max of the subtree's hidden states)``."""
        no_child = np.zeros(self.hidden_size)
        h_left = no_child if left is None else left[0]
        h_right = no_child if right is None else right[0]
        hidden = np.tanh(
            features @ self._w_root + h_left @ self._w_left + h_right @ self._w_right + self._bias
        )
        pooled = hidden
        for child in (left, right):
            if child is not None:
                pooled = np.maximum(pooled, child[1])
        return hidden, pooled

    def readout(self, state: State) -> np.ndarray:
        """Root hidden state followed by the max-pooled one."""
        return np.concatenate(state).astype(np.float64)

    @property
    def output_size(self) -> int:
        """Length of a plan vector: the root's hidden state plus the pooled one."""
        return 2 * self.hidden_size

    def node_state(
        self, node: PlanNode | JoinCandidate, left: State | None = None, right: State | None = None
    ) -> State:
        """State of a scan or join node whose children's states are known.

        A :class:`JoinCandidate` — a join costed but not built — composes to
        the state of the node it would build: both go through
        :meth:`PlanTreeEncoder.join_vector`.
        """
        return self.compose(self.plan_encoder.node_vector(node), left, right)

    def encode_tree(self, tree: EncodedPlanTree) -> np.ndarray:
        """Encode an already-vectorized plan tree."""

        def state(node: EncodedPlanTree | None) -> State | None:
            if node is None:
                return None
            return self.compose(node.features, state(node.left), state(node.right))

        return self.readout(state(tree))

    def encode_plan(self, plan: PlanNode) -> np.ndarray:
        """Encode a physical plan directly."""
        return self.encode_tree(self.plan_encoder.encode(plan))
