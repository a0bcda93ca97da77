"""Vectorized plan execution with buffer-pool-aware timing.

The executor evaluates physical plans against the columnar storage, producing
both the (aggregate) query result and a detailed account of the work
performed: pages hit in the buffer pool, pages read "from disk" sequentially
or randomly, tuples processed, spill bytes.  The timing model converts that
work profile into a deterministic simulated latency whose cold-vs-hot cache
behaviour reproduces the measurement-protocol findings of Sections 7.3/8.6.

Two interchangeable engines run the one operator set on two intermediate-result
representations (see ``docs/EXECUTOR.md``): the straightforward row engine
(:class:`ExecutionEngine`, the reference) and the late-materializing columnar
engine (:class:`ColumnarExecutionEngine`, the default).  :func:`create_engine`
picks one by kind; both produce byte-identical results and simulated timings.
"""

from repro.executor.operators import OperatorMetrics, Relation
from repro.executor.timing import TimingModel, TimingBreakdown
from repro.executor.engine import ExecutionEngine, ExecutionResult, create_engine
from repro.executor.columnar import ColumnarBatch, ColumnarExecutionEngine
from repro.executor.explain import explain_plan, explain_analyze

__all__ = [
    "OperatorMetrics",
    "Relation",
    "TimingModel",
    "TimingBreakdown",
    "ExecutionEngine",
    "ExecutionResult",
    "ColumnarBatch",
    "ColumnarExecutionEngine",
    "create_engine",
    "explain_plan",
    "explain_analyze",
]
