"""DET rules: no wall clock, no unseeded randomness in deterministic paths.

The reproduction's results must be pure functions of (workload, config,
seed): sweeps replay byte-identically across serial, parallel and
distributed execution, and simulated timings come from deterministic work
accounting, never the host clock.  Any wall-clock read or process-global RNG
call inside a deterministic path silently breaks that contract, usually in a
way only a cross-transport equivalence test can catch at runtime — so it is
rejected statically instead:

* **DET101** ``time.time()`` / ``time.time_ns()``.  Monotonic clocks
  (``time.monotonic``, ``time.perf_counter``) stay legal: they drive deadlines,
  timeouts and *measured* timing mode, none of which feed deterministic
  results.
* **DET102** ``datetime.now()`` / ``utcnow()`` / ``today()`` and
  ``date.today()``.
* **DET103** calls through a process-global or OS-entropy RNG: module-level
  ``random.*`` (the shared, unseeded global generator) and module-level
  ``numpy.random.*`` (the legacy global state), plus ``random.SystemRandom``
  (entropy by design).
* **DET104** RNG constructors without an explicit seed argument:
  ``random.Random()``, ``np.random.default_rng()``, ``np.random.RandomState()``.
  Pass the task-derived seed instead.

Sanctioned exceptions are named in the config's ``det_allow`` list (empty
for ``src/`` today) — an allowlist entry, unlike an inline suppression, is
reviewed once and documented centrally.
"""

from __future__ import annotations

import ast
from pathlib import Path

from tools.reprolint.astutil import dotted_name, qualname_of
from tools.reprolint.config import LintConfig, path_matches
from tools.reprolint.findings import Finding

#: Wall-clock reads (DET101).
_WALL_CLOCK = {"time.time", "time.time_ns"}

#: Calendar-clock reads (DET102) under their usual import spellings.
_CALENDAR_CLOCK = {
    "datetime.now",
    "datetime.utcnow",
    "datetime.today",
    "datetime.datetime.now",
    "datetime.datetime.utcnow",
    "datetime.datetime.today",
    "date.today",
    "datetime.date.today",
}

#: Names under ``numpy.random`` that are *not* the legacy global generator:
#: constructors and machinery (DET104 judges their seeding separately).
_NP_RANDOM_NON_GLOBAL = {
    "default_rng",
    "Generator",
    "RandomState",
    "SeedSequence",
    "BitGenerator",
    "PCG64",
    "PCG64DXSM",
    "Philox",
    "MT19937",
    "SFC64",
}

#: Constructors that must receive an explicit seed (DET104).
_SEEDED_CONSTRUCTORS = {
    "random.Random",
    "np.random.default_rng",
    "numpy.random.default_rng",
    "np.random.RandomState",
    "numpy.random.RandomState",
}


def _classify(call: ast.Call) -> tuple[str, str] | None:
    """(rule id, complaint) for one call, or ``None`` when it is clean."""
    name = dotted_name(call.func)
    if name is None:
        return None
    if name in _WALL_CLOCK:
        return "DET101", f"wall-clock read {name}() in a deterministic path"
    if name in _CALENDAR_CLOCK:
        return "DET102", f"calendar-clock read {name}() in a deterministic path"
    if name in _SEEDED_CONSTRUCTORS:
        if not call.args and not call.keywords:
            return "DET104", f"{name}() constructed without an explicit seed"
        return None
    if name in ("random.SystemRandom", "np.random.SystemRandom"):
        return "DET103", f"{name} draws OS entropy and can never replay deterministically"
    parts = name.split(".")
    if parts[0] == "random" and len(parts) == 2 and parts[1] not in ("Random", "SystemRandom"):
        return (
            "DET103",
            f"{name}() uses the process-global RNG; use a seeded random.Random(seed) instance",
        )
    if parts[0] in ("np", "numpy") and len(parts) == 3 and parts[1] == "random":
        if parts[2] not in _NP_RANDOM_NON_GLOBAL:
            return (
                "DET103",
                f"{name}() uses numpy's legacy global RNG; use np.random.default_rng(seed)",
            )
    return None


def check(tree: ast.AST, path: Path, config: LintConfig) -> list[Finding]:
    """DET findings for one parsed module (parents must be attached)."""
    if not path_matches(path, config.det_paths):
        return []
    findings: list[Finding] = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        classified = _classify(node)
        if classified is None:
            continue
        rule, message = classified
        qualname = qualname_of(node)
        if config.det_allowed(path, qualname):
            continue
        findings.append(
            Finding(str(path), node.lineno, node.col_offset, rule, message)
        )
    return findings
