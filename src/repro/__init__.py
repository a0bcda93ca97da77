"""repro — an end-to-end benchmarking framework for learned query optimizers.

This package reproduces "Is Your Learned Query Optimizer Behaving As You
Expect?  A Machine Learning Perspective" (Lehmann, Sulimov, Stockinger, VLDB
2024): a PostgreSQL-style simulated DBMS substrate, the JOB/STACK workloads,
implementations of the learned query optimizers it evaluates end to end (Neo,
Bao, Balsa, LEON, HybridQO; RTOS, Lero and LOGER are excluded there and appear
only in Tables 1 and 2), and the paper's benchmarking framework (dataset
splits, measurement protocol, timing decomposition, ablations).

Quick start::

    from repro import quickstart_environment
    from repro.lqo import create_optimizer
    from repro.core import generate_split

    context, env = quickstart_environment(scale=0.5)
    split = generate_split(context.workload, "random", seed=0)
    bao = create_optimizer("bao", env)
    bao.fit(split.train_queries(context.workload))
    planned = bao.plan_query(context.workload.by_id(split.test_ids[0]))
    print(planned.plan.pretty())
"""

from __future__ import annotations

__version__ = "1.0.0"

from repro.config import (
    CONFIG_PRESETS,
    DEFAULT_CONFIG,
    OUR_FRAMEWORK_CONFIG,
    SIMULATION_CONFIG,
    PostgresConfig,
)
from repro.errors import ReproError


def quickstart_environment(scale: float = 0.5, seed: int = 42):
    """Build a synthetic IMDB, the JOB workload and an optimizer environment.

    Returns ``(context, env)`` where ``context`` bundles the database and the
    workload and ``env`` is an :class:`repro.lqo.LQOEnvironment` ready to be
    handed to any optimizer.
    """
    from repro.experiments.common import job_context
    from repro.lqo.base import LQOEnvironment

    context = job_context(scale=scale, seed=seed)
    env = LQOEnvironment(context.database)
    return context, env


__all__ = [
    "__version__",
    "ReproError",
    "PostgresConfig",
    "DEFAULT_CONFIG",
    "SIMULATION_CONFIG",
    "OUR_FRAMEWORK_CONFIG",
    "CONFIG_PRESETS",
    "quickstart_environment",
]
