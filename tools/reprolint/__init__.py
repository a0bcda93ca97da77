"""reprolint: AST-based invariant linter for the reproduction.

The runtime test suite proves the headline guarantees — byte-identical
results across serial/parallel/distributed sweeps, HMAC verification *before*
``pickle.loads`` on network bytes, deterministic seeded replay — but only for
the code paths a test happens to execute.  ``reprolint`` re-states three of
those guarantees as compile-time rules over the source itself, so a
regression fails ``make lint`` (and the CI lint job) before any test runs:

* **DET** — no wall-clock or unseeded randomness in deterministic paths
  (:mod:`tools.reprolint.det`).
* **SEC** — ``pickle.loads`` only in allowlisted functions, and dominated by
  a signature verification in network-reachable modules
  (:mod:`tools.reprolint.sec`).
* **CONC** — lock-owning classes mutate shared ``self._*`` state only under
  their lock (:mod:`tools.reprolint.conc`).

Run it as ``python -m tools.reprolint src`` (see :mod:`tools.reprolint.cli`
for ``--json`` and the exit-code contract).  Rule catalog, the invariant each
rule encodes, and the suppression policy live in ``docs/STATIC_ANALYSIS.md``.
"""

from tools.reprolint.config import LintConfig, default_config
from tools.reprolint.engine import lint_paths
from tools.reprolint.findings import RULE_CATALOG, Finding

__all__ = ["Finding", "LintConfig", "RULE_CATALOG", "default_config", "lint_paths"]
