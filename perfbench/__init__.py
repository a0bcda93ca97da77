"""perfbench: one layered benchmark for the query path, the executor, the figure-4 sweep and the plan server.

``python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1`` is
the command ``BENCHMARK.json`` names; ``python -m perfbench run`` runs every
workload untraced and traced, and ``python -m perfbench compare A.json B.json``
judges two result sets by the bounds in ``BENCHMARK.json``.  See ``README.md``.
"""
