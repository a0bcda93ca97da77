"""A small, pure-numpy machine-learning substrate for the learned optimizers.

The paper's LQOs use PyTorch models (tree convolutions, Tree-LSTMs, MLP
heads).  This package provides the equivalents without a DL framework:

* :mod:`repro.ml.nn` — a multi-layer perceptron with ReLU, dropout, Adam and
  early stopping on a *fixed* validation set (the training practice the paper
  recommends in Section 5.1),
* :mod:`repro.ml.tree_models` — the tree-convolution plan encoder, with
  fixed random composition weights feeding the trainable MLP head,
* :mod:`repro.ml.losses` — regression (MSE on log latency) and pairwise
  learning-to-rank losses,
* :mod:`repro.ml.replay` — the experience buffer used by the RL-flavoured
  methods.
"""

from repro.ml.nn import MLPRegressor, PairwiseRanker, TrainingHistory
from repro.ml.tree_models import TreeConvolutionEncoder
from repro.ml.losses import mse_loss, q_error, pairwise_accuracy
from repro.ml.replay import Experience, ReplayBuffer

__all__ = [
    "MLPRegressor",
    "PairwiseRanker",
    "TrainingHistory",
    "TreeConvolutionEncoder",
    "mse_loss",
    "q_error",
    "pairwise_accuracy",
    "Experience",
    "ReplayBuffer",
]
