"""Experiment drivers: one module per table and figure of the paper.

:mod:`repro.experiments.figures` holds the ``FIGURES`` table (one entry per
figure, table and section study: title, ``run`` and row function) and the
runner behind ``python -m repro.experiments [ids...] --scale --workers
--out``.  The driver modules keep the logic the entries call.  The mapping to
the paper is the "Paper ↔ code crosswalk" of docs/ARCHITECTURE.md.  The
table is not imported here: importing ``repro.experiments.common`` stays
light.
"""

from repro.experiments import common

__all__ = ["common"]
