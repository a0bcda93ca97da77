"""Benchmark workloads: JOB-style, STACK-style and Ext-JOB query families.

A :class:`Workload` is an ordered collection of :class:`BenchmarkQuery`
objects, each tagged with the base-query family it was generated from.  The
family structure (e.g. JOB's ``1a``/``1b``/``1c``/``1d`` variants of base
query 1) is what the paper's three dataset-split strategies operate on
(Section 7.2), so it is a first-class concept here.

Workloads are rebuildable by name: :func:`build_workload` maps a workload id
from :data:`WORKLOADS` (``"job"``, ``"stack"``, ``"ext_job"``) plus a schema back to the
bound workload.  The parallel runtime uses this to ship only the workload
*name* to worker processes — the worker rebinds the queries against the
schema of its spec-rebuilt database instead of unpickling hundreds of bound
query objects.
"""

from typing import Callable

from repro.catalog.schema import Schema
from repro.errors import WorkloadError
from repro.workloads.workload import BenchmarkQuery, Workload
from repro.workloads.job import build_job_workload, JOB_FAMILY_SIZES
from repro.workloads.stack import build_stack_workload
from repro.workloads.ext_job import build_ext_job_workload

#: Workload name (its ``Workload.name``) -> ``builder(schema)``.
WORKLOADS: dict[str, Callable[[Schema], Workload]] = {
    "job": build_job_workload,
    "stack": build_stack_workload,
    "ext_job": build_ext_job_workload,
}


def build_workload(name: str, schema: Schema) -> Workload:
    """Rebuild the workload named ``name`` against ``schema``."""
    try:
        builder = WORKLOADS[name]
    except KeyError as exc:
        raise WorkloadError(f"unknown workload {name!r}; known: {sorted(WORKLOADS)}") from exc
    return builder(schema)


def is_registered_workload(name: str) -> bool:
    """Whether a worker can rebuild the workload ``name`` by name."""
    return name in WORKLOADS


__all__ = [
    "BenchmarkQuery",
    "Workload",
    "build_job_workload",
    "JOB_FAMILY_SIZES",
    "build_stack_workload",
    "build_ext_job_workload",
    "build_workload",
    "is_registered_workload",
    "WORKLOADS",
]
