"""Tree-structured plan encoders: tree convolution and a Tree-LSTM-style cell.

The paper's LQOs process plan trees either with tree convolutions (Neo, Bao,
Balsa, Lero, LEON) or Tree-LSTMs (RTOS, LOGER, HybridQO).  Here both are
implemented as *fixed-weight* recursive composition functions: the composition
matrices are drawn once from a seeded random generator and never trained,
while the downstream MLP head (``repro.ml.nn``) is the trainable part.

This is a deliberate, documented simplification (docs/ARCHITECTURE.md, "The
LQO search loop"): it preserves what matters for the paper's analysis — the
representation is a function of the *tree structure* and of the per-node
operator/table/cardinality features — while keeping the backpropagation
machinery limited to the MLP head.  The same simplification is applied to
every method, so comparisons stay apples to apples.

Both encoders are one *compose step* — a node's features plus the states of
its two children give the node's state — and a *readout* from the root's
state to the plan vector.  Encoding a whole tree is the recursion over that
step; a bottom-up plan search that already holds the states of two subplans
composes only the new join node (:meth:`TreeEncoder.node_state`).  A state is
a value the caller keeps beside the subplan it describes: nothing is stored on
plan nodes or keyed by them, because a node's estimates do not take part in
its equality, plans outlive the environment (and so the weights) that encoded
them, and every environment seeds its own encoder.
"""

from __future__ import annotations

import numpy as np

from typing import Any

from repro.encoding.plan_encoding import EncodedPlanTree, PlanTreeEncoder
from repro.errors import ModelError
from repro.plans.physical import JoinCandidate, PlanNode


class TreeEncoder:
    """The recursion both encoders share; subclasses give the step and the readout."""

    plan_encoder: PlanTreeEncoder
    hidden_size: int

    @property
    def output_size(self) -> int:
        """Length of a plan vector: the root's hidden state plus the pooled one."""
        return 2 * self.hidden_size

    def compose(self, features: np.ndarray, left: Any = None, right: Any = None) -> Any:
        """State of a node from its feature vector and its children's states."""
        raise NotImplementedError

    def readout(self, state: Any) -> np.ndarray:
        """The plan vector of the tree whose root has ``state``."""
        raise NotImplementedError

    def node_state(self, node: PlanNode | JoinCandidate, left: Any = None, right: Any = None) -> Any:
        """State of a scan or join node whose children's states are known.

        A :class:`JoinCandidate` — a join costed but not built — composes to
        the state of the node it would build: both go through
        :meth:`PlanTreeEncoder.join_vector`.
        """
        return self.compose(self.plan_encoder.node_vector(node), left, right)

    def encode_tree(self, tree: EncodedPlanTree) -> np.ndarray:
        """Encode an already-vectorized plan tree."""

        def state(node: EncodedPlanTree | None) -> Any:
            if node is None:
                return None
            return self.compose(node.features, state(node.left), state(node.right))

        return self.readout(state(tree))

    def encode_plan(self, plan: PlanNode) -> np.ndarray:
        """Encode a physical plan directly."""
        return self.encode_tree(self.plan_encoder.encode(plan))


class TreeConvolutionEncoder(TreeEncoder):
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
        left: tuple[np.ndarray, np.ndarray] | None = None,
        right: tuple[np.ndarray, np.ndarray] | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
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

    def readout(self, state: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
        """Root hidden state followed by the max-pooled one."""
        return np.concatenate(state).astype(np.float64)


class TreeLSTMEncoder(TreeEncoder):
    """A child-sum Tree-LSTM-style composition with fixed random gates.

    Hidden and cell states are composed bottom-up; the representation is the
    concatenation of the root hidden state and the mean hidden state over all
    nodes (the "pooling" aggregation listed for the Tree-LSTM methods in
    Table 1).  A node's state is ``(hidden, cell, hidden states of its subtree
    in post-order)``: a floating-point mean depends on the order it sums in,
    so the readout reduces the same stack of states a whole-tree pass builds.
    """

    def __init__(
        self,
        plan_encoder: PlanTreeEncoder,
        hidden_size: int = 64,
        seed: int = 23,
    ) -> None:
        if hidden_size <= 0:
            raise ModelError("hidden size must be positive")
        self.plan_encoder = plan_encoder
        self.hidden_size = hidden_size
        rng = np.random.default_rng(seed)
        feature_size = plan_encoder.node_feature_size
        scale_x = 1.0 / np.sqrt(feature_size)
        scale_h = 1.0 / np.sqrt(hidden_size)

        def w_x():
            return rng.normal(0.0, scale_x, size=(feature_size, hidden_size))

        def w_h():
            return rng.normal(0.0, scale_h, size=(hidden_size, hidden_size))

        self._wi_x, self._wi_h = w_x(), w_h()
        self._wf_x, self._wf_h = w_x(), w_h()
        self._wo_x, self._wo_h = w_x(), w_h()
        self._wu_x, self._wu_h = w_x(), w_h()

    @staticmethod
    def _sigmoid(x: np.ndarray) -> np.ndarray:
        return 1.0 / (1.0 + np.exp(-x))

    def compose(self, features: np.ndarray, left: tuple | None = None, right: tuple | None = None) -> tuple:
        """``(hidden, cell, the subtree's hidden states in post-order)``."""
        children = [child for child in (left, right) if child is not None]
        if children:
            h_sum = np.sum([h for h, _, _ in children], axis=0)
        else:
            h_sum = np.zeros(self.hidden_size)
        x = features
        i = self._sigmoid(x @ self._wi_x + h_sum @ self._wi_h)
        o = self._sigmoid(x @ self._wo_x + h_sum @ self._wo_h)
        u = np.tanh(x @ self._wu_x + h_sum @ self._wu_h)
        c = i * u
        below: tuple[np.ndarray, ...] = ()
        for _, c_child, hidden_states in children:
            f = self._sigmoid(x @ self._wf_x + c_child @ self._wf_h)
            c = c + f * c_child
            below += hidden_states
        h = o * np.tanh(c)
        return h, c, below + (h,)

    def readout(self, state: tuple) -> np.ndarray:
        """Root hidden state followed by the mean over the post-order hidden states."""
        root_h, _, hidden_states = state
        mean_h = np.mean(np.vstack(hidden_states), axis=0)
        return np.concatenate([root_h, mean_h]).astype(np.float64)
