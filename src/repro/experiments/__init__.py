"""Experiment drivers: one module per table and figure of the paper.

Every module exposes a ``run(...)`` function returning structured results and
a ``main()`` that prints the corresponding table/series in plain text.  The
mapping to the paper is the "Paper ↔ code crosswalk" of docs/ARCHITECTURE.md;
each benchmark under ``benchmarks/`` states the paper's reported shape beside
what it asserts.
"""

from repro.experiments import common

__all__ = ["common"]
