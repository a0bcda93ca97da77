"""Exception hierarchy for the repro package.

Every error raised by the library derives from :class:`ReproError` so callers
can catch a single base class.  Sub-classes mirror the major subsystems
(catalog, SQL frontend, planner, executor, benchmarking framework).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro package."""


class CatalogError(ReproError):
    """Schema or statistics problem (unknown table/column, bad definition)."""


class StorageError(ReproError):
    """Problem in the columnar storage or buffer pool layer."""


class SQLError(ReproError):
    """Base class for SQL frontend errors."""


class SQLSyntaxError(SQLError):
    """The query text could not be tokenized or parsed."""

    def __init__(self, message: str, position: int | None = None) -> None:
        super().__init__(message)
        self.position = position


class BindingError(SQLError):
    """A parsed query references tables or columns not present in the schema."""


class PlanError(ReproError):
    """A physical or logical plan is malformed or cannot be constructed."""


class HintError(PlanError):
    """A hint set references unknown relations or conflicts with itself."""


class OptimizerError(ReproError):
    """The planner could not produce a plan for the query."""


class ExecutionError(ReproError):
    """The executor failed while running a physical plan."""


class EncodingError(ReproError):
    """A query or plan could not be featurized for an ML model."""


class ModelError(ReproError):
    """A learned optimizer model is misconfigured or not trained."""


class NotTrainedError(ModelError):
    """Inference was requested from a model that has not been trained."""


class SplitError(ReproError):
    """A dataset split is invalid (overlapping sets, unknown queries, ...)."""


class ExperimentError(ReproError):
    """The benchmarking framework was asked to do something inconsistent."""


class PlanServiceError(ExperimentError):
    """The plan-serving control plane failed or rejected a request."""


class PlanRejected(PlanServiceError):
    """The plan server turned a request away under admission control.

    An explicit backpressure signal, never a silent stall: the server is
    alive but at capacity (global or per-client in-flight limit).  Carries
    ``retry_after_s``, the server's backoff suggestion.
    """

    def __init__(self, message: str, retry_after_s: float = 0.05) -> None:
        super().__init__(message)
        self.retry_after_s = retry_after_s


class WorkloadError(ReproError):
    """A workload or query template is malformed."""
