"""Timing metrics and aggregation used by the experiment runner.

The paper decomposes end-to-end latency into inference time (LQO work before
the query reaches the DBMS), planning time (the DBMS planner), and execution
time, and treats the end-to-end sum as the primary objective (Section 8.2.1).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from statistics import mean

import numpy as np


@dataclass
class QueryTiming:
    """Timing decomposition of one evaluated query."""

    query_id: str
    method: str
    inference_time_ms: float
    planning_time_ms: float
    execution_time_ms: float
    timed_out: bool = False
    num_joins: int = 0
    metadata: dict = field(default_factory=dict)

    @property
    def end_to_end_ms(self) -> float:
        """Inference + planning + execution (the paper's primary objective)."""
        return self.inference_time_ms + self.planning_time_ms + self.execution_time_ms

    @property
    def pre_execution_ms(self) -> float:
        """Inference + planning — what Figure 4's left panel shows."""
        return self.inference_time_ms + self.planning_time_ms

    def to_dict(self) -> dict:
        """JSON-serializable form (inverse of :meth:`from_dict`)."""
        return {
            "query_id": self.query_id,
            "method": self.method,
            "inference_time_ms": self.inference_time_ms,
            "planning_time_ms": self.planning_time_ms,
            "execution_time_ms": self.execution_time_ms,
            "timed_out": self.timed_out,
            "num_joins": self.num_joins,
            "metadata": _jsonable(self.metadata),
        }

    @staticmethod
    def from_dict(payload: dict) -> "QueryTiming":
        return QueryTiming(
            query_id=payload["query_id"],
            method=payload["method"],
            inference_time_ms=float(payload["inference_time_ms"]),
            planning_time_ms=float(payload["planning_time_ms"]),
            execution_time_ms=float(payload["execution_time_ms"]),
            timed_out=bool(payload.get("timed_out", False)),
            num_joins=int(payload.get("num_joins", 0)),
            metadata=dict(payload.get("metadata", {})),
        )


def _jsonable(value):
    """Best-effort conversion of metadata values into JSON-serializable types."""
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, np.generic):
        return value.item()
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return str(value)


@dataclass
class MethodRunResult:
    """All per-query timings of one method on one split, plus training accounting."""

    method: str
    split_name: str
    workload_name: str
    timings: list[QueryTiming] = field(default_factory=list)
    training_time_s: float = 0.0
    executed_training_plans: int = 0

    # -- aggregates ---------------------------------------------------------------
    @property
    def total_execution_ms(self) -> float:
        return float(sum(t.execution_time_ms for t in self.timings))

    @property
    def total_inference_ms(self) -> float:
        return float(sum(t.inference_time_ms for t in self.timings))

    @property
    def total_planning_ms(self) -> float:
        return float(sum(t.planning_time_ms for t in self.timings))

    @property
    def total_end_to_end_ms(self) -> float:
        return float(sum(t.end_to_end_ms for t in self.timings))

    @property
    def timed_out_queries(self) -> list[str]:
        return [t.query_id for t in self.timings if t.timed_out]

    def timing_for(self, query_id: str) -> QueryTiming:
        for timing in self.timings:
            if timing.query_id == query_id:
                return timing
        raise KeyError(f"no timing recorded for query {query_id!r}")

    def execution_times(self) -> np.ndarray:
        return np.asarray([t.execution_time_ms for t in self.timings], dtype=float)

    def end_to_end_times(self) -> np.ndarray:
        return np.asarray([t.end_to_end_ms for t in self.timings], dtype=float)

    def to_dict(self) -> dict:
        """JSON-serializable form, including every per-query timing."""
        return {
            "method": self.method,
            "split_name": self.split_name,
            "workload_name": self.workload_name,
            "training_time_s": self.training_time_s,
            "executed_training_plans": self.executed_training_plans,
            "timings": [t.to_dict() for t in self.timings],
        }

    @staticmethod
    def from_dict(payload: dict) -> "MethodRunResult":
        return MethodRunResult(
            method=payload["method"],
            split_name=payload["split_name"],
            workload_name=payload["workload_name"],
            training_time_s=float(payload.get("training_time_s", 0.0)),
            executed_training_plans=int(payload.get("executed_training_plans", 0)),
            timings=[QueryTiming.from_dict(t) for t in payload.get("timings", [])],
        )

    def summary_row(self) -> dict[str, object]:
        """One row of the Figure 4/5 style summary table."""
        return {
            "method": self.method,
            "split": self.split_name,
            "queries": len(self.timings),
            "inference_ms": round(self.total_inference_ms, 2),
            "planning_ms": round(self.total_planning_ms, 2),
            "execution_ms": round(self.total_execution_ms, 2),
            "end_to_end_ms": round(self.total_end_to_end_ms, 2),
            "timeouts": len(self.timed_out_queries),
            "training_time_s": round(self.training_time_s, 2),
        }


def workload_summary(results: list[MethodRunResult]) -> list[dict[str, object]]:
    """Summary rows for a list of method runs (Figure 4/5 table form)."""
    return [result.summary_row() for result in results]


def mean_end_to_end_ms(results: list[MethodRunResult]) -> float:
    """Mean total end-to-end workload time across several runs of the same method."""
    if not results:
        return 0.0
    return float(mean(result.total_end_to_end_ms for result in results))
