"""Registry of optimizers: the methods the paper evaluates end to end, by name."""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ExperimentError
from repro.lqo.balsa import BalsaOptimizer
from repro.lqo.bao import BaoOptimizer
from repro.lqo.base import BaseOptimizer, LQOEnvironment
from repro.lqo.hybridqo import HybridQOOptimizer
from repro.lqo.leon import LeonOptimizer
from repro.lqo.neo import NeoOptimizer
from repro.lqo.postgres_baseline import PostgresBaseline


@dataclass(frozen=True)
class MethodInfo:
    """One registered optimizer implementation."""

    name: str
    cls: type[BaseOptimizer]


#: The methods of the paper's end-to-end evaluation (Section 8.2), in the
#: order its figures list them.  RTOS, Lero and LOGER are excluded there and
#: appear only in Tables 1 and 2.
_REGISTRY: dict[str, MethodInfo] = {
    cls.name: MethodInfo(name=cls.name, cls=cls)
    for cls in (
        PostgresBaseline,
        BaoOptimizer,
        HybridQOOptimizer,
        NeoOptimizer,
        BalsaOptimizer,
        LeonOptimizer,
    )
}

#: Order in which the paper lists the methods it evaluates end to end.
MAIN_EVALUATION_METHODS: tuple[str, ...] = tuple(_REGISTRY)


def available_methods() -> list[str]:
    """Names of the registered optimizers."""
    return list(_REGISTRY)


def method_info(name: str) -> MethodInfo:
    """Metadata for one registered method."""
    key = name.lower()
    if key not in _REGISTRY:
        raise ExperimentError(
            f"unknown optimizer {name!r}; available: {sorted(_REGISTRY)}"
        )
    return _REGISTRY[key]


def create_optimizer(name: str, env: LQOEnvironment, **kwargs) -> BaseOptimizer:
    """Instantiate a registered optimizer bound to an environment."""
    info = method_info(name)
    return info.cls(env, **kwargs)
