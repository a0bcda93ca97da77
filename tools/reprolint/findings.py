"""The ``Finding`` record and the rule catalog.

Every rule module reports violations as :class:`Finding` instances; the
engine sorts them, filters per-line suppressions, and the CLI renders them
as text or JSON.  ``RULE_CATALOG`` is the single authoritative list of rule
ids — the CLI's ``--list-rules``, the suppression parser and the docs all
key off it.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Rule id -> one-line description.  The first three characters of an id are
#: its family (DET/SEC/CONC); ``E999`` is the parse-failure pseudo-rule.
RULE_CATALOG: dict[str, str] = {
    "DET101": "wall-clock read (time.time/time.time_ns) in a deterministic path",
    "DET102": "calendar-clock read (datetime.now/utcnow/today, date.today) in a deterministic path",
    "DET103": "call into a process-global or OS-entropy RNG (random.*, np.random.*) in a deterministic path",
    "DET104": "RNG constructed without an explicit seed (random.Random(), np.random.default_rng()) in a deterministic path",
    "SEC201": "pickle.loads/pickle.load outside the allowlisted trusted-input functions",
    "SEC202": "network-reachable pickle.loads not dominated by a signature-verify gate in the same function",
    "CONC401": "lock-owning class mutates a shared self._* attribute outside 'with self._lock'",
    "CONC402": "lock-owning class reads a mutated self._* attribute outside 'with self._lock'",
    "E999": "file could not be parsed",
}


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location."""

    path: str
    line: int
    col: int
    rule: str
    message: str

    def sort_key(self) -> tuple:
        """Stable ordering: by file, then position, then rule id."""
        return (self.path, self.line, self.col, self.rule)

    def to_dict(self) -> dict:
        """JSON-ready form (the ``--json`` surface; keys are stable)."""
        return {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "rule": self.rule,
            "message": self.message,
        }

    def render(self) -> str:
        """One-line human-readable form, ``path:line:col: RULE message``."""
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"
