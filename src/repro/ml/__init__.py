"""A small, pure-numpy machine-learning substrate for the learned optimizers.

The paper's LQOs use PyTorch models (tree convolutions, Tree-LSTMs, MLP
heads).  This package provides the equivalents without a DL framework:

* :mod:`repro.ml.nn` — an MLP regressor and a pairwise ranker on one
  backbone (ReLU, dropout, Adam) and one training policy: early stopping on a
  *fixed* validation set (the training practice the paper recommends in
  Section 5.1); each model supplies only its loss (squared error, pairwise
  logistic),
* :mod:`repro.ml.tree_models` — the tree-convolution plan encoder, with
  fixed random composition weights feeding the trainable MLP head,
* :mod:`repro.ml.replay` — the experience buffer used by the RL-flavoured
  methods, and its one retrain rule (:meth:`ReplayBuffer.refit`).
"""

from repro.ml.nn import MLPRegressor, PairwiseRanker, TrainingHistory
from repro.ml.tree_models import TreeConvolutionEncoder
from repro.ml.replay import Experience, ReplayBuffer

__all__ = [
    "MLPRegressor",
    "PairwiseRanker",
    "TrainingHistory",
    "TreeConvolutionEncoder",
    "Experience",
    "ReplayBuffer",
]
