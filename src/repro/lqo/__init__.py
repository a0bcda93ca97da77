"""Learned query optimizers (LQOs) and the classical PostgreSQL baseline.

Every optimizer implements the :class:`repro.lqo.base.BaseOptimizer` contract:
``fit`` on a list of training queries and ``plan_query`` for inference.  Their
training and inference times are simulated, minted by :mod:`repro.simclock`
from the work each call does, so the benchmarking framework can decompose
end-to-end latency the way the paper does (inference + planning + execution,
Section 8.2.1) and two runs give the same bytes.

Implemented methods — the six of the paper's end-to-end evaluation, registered
in ``repro.lqo.registry``:

* :class:`PostgresBaseline` — the simulated DBMS's own cost-based optimizer,
* :class:`BaoOptimizer` — hint-set steering (Marcus et al.),
* :class:`NeoOptimizer` — value-network plan search bootstrapped from the DBMS,
* :class:`BalsaOptimizer` — Neo-style search bootstrapped from the cost model
  with timeouts and on-policy training,
* :class:`LeonOptimizer` — learning-to-rank over enumerated candidate plans,
* :class:`HybridQOOptimizer` — MCTS hint generation plus a learned selector.

RTOS, Lero and LOGER, which the paper lists in Tables 1 and 2 but leaves out
of its experiments (Section 8.2), are not implemented.
"""

from repro.lqo.base import (
    BaseOptimizer,
    LQOEnvironment,
    PlannedQuery,
    TrainingReport,
)
from repro.lqo.postgres_baseline import PostgresBaseline
from repro.lqo.bao import BaoOptimizer
from repro.lqo.neo import NeoOptimizer
from repro.lqo.balsa import BalsaOptimizer
from repro.lqo.leon import LeonOptimizer
from repro.lqo.hybridqo import HybridQOOptimizer
from repro.lqo.registry import MethodInfo, available_methods, create_optimizer, method_info

__all__ = [
    "BaseOptimizer",
    "LQOEnvironment",
    "PlannedQuery",
    "TrainingReport",
    "PostgresBaseline",
    "BaoOptimizer",
    "NeoOptimizer",
    "BalsaOptimizer",
    "LeonOptimizer",
    "HybridQOOptimizer",
    "MethodInfo",
    "available_methods",
    "create_optimizer",
    "method_info",
]
