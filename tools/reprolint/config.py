"""Lint configuration: which paths each rule family audits, and allowlists.

The defaults returned by :func:`default_config` encode this repository's
invariants (documented in ``docs/STATIC_ANALYSIS.md``); the self-test suite
builds custom configs pointing the same rules at fixture files.  Path
patterns are ``fnmatch`` globs matched against POSIX-style paths, anchored
at the end (``*/repro/executor/*.py`` matches wherever the tree is checked
out).
"""

from __future__ import annotations

from dataclasses import dataclass
from fnmatch import fnmatch
from pathlib import Path


def path_matches(path: Path | str, patterns: tuple[str, ...]) -> bool:
    """Whether ``path`` (any absolute/relative spelling) matches a pattern."""
    posix = Path(path).as_posix()
    return any(fnmatch(posix, pattern) for pattern in patterns)


@dataclass(frozen=True)
class LintConfig:
    """Everything the rule modules need to know about the audited tree."""

    #: DET: deterministic paths — no wall clock, no unseeded randomness.
    det_paths: tuple[str, ...] = ()
    #: DET: sanctioned exceptions, ``(path pattern, function qualname)``.
    det_allow: tuple[tuple[str, str], ...] = ()
    #: SEC: functions allowed to unpickle, ``(path pattern, qualname)``.
    sec_allow: tuple[tuple[str, str], ...] = ()
    #: SEC: network-reachable modules where every unpickle must additionally
    #: be dominated by a signature-verify gate (SEC202).
    sec_verified_paths: tuple[str, ...] = ()
    #: CONC: modules whose lock-owning classes are audited.
    conc_paths: tuple[str, ...] = ()
    #: Directories never descended into.
    skip_dirs: frozenset[str] = frozenset({"__pycache__", ".git", ".venv", "node_modules"})
    #: Files skipped entirely (fixtures shipped inside the tool's own tests).
    skip_paths: tuple[str, ...] = ()

    def det_allowed(self, path: Path | str, qualname: str) -> bool:
        """Whether a DET finding in ``qualname`` of ``path`` is sanctioned."""
        return _entry_matches(self.det_allow, path, qualname)

    def sec_allowed(self, path: Path | str, qualname: str) -> bool:
        """Whether ``qualname`` of ``path`` may call ``pickle.loads`` at all."""
        return _entry_matches(self.sec_allow, path, qualname)


def _entry_matches(
    entries: tuple[tuple[str, str], ...], path: Path | str, qualname: str
) -> bool:
    posix = Path(path).as_posix()
    return any(fnmatch(posix, pattern) and qualname == name for pattern, name in entries)


def default_config() -> LintConfig:
    """The project configuration: the invariants this repository documents.

    * DET audits every simulated-work path whose output feeds results —
      ``executor/``, ``optimizer/``, ``core/``, ``plans/``, ``encoding/`` —
      plus the runtime (where only monotonic clocks are legitimate).  The one
      sanctioned wall-clock read is ``WorkQueue.filesystem_now``'s documented
      degrade-gracefully fallback when the clock-probe file is unwritable.
    * SEC allows unpickling exactly where docs say bytes are trusted or
      verified: the file queue's task files (coordinator-written, on a
      filesystem that is the trust boundary) and ``recv_frame`` (which
      HMAC-verifies before unpickling — enforced structurally by SEC202).
    * CONC audits the whole runtime package; the lock-owning classes today
      are ``QueueServer``, ``SweepProgress`` and ``PlanCache``.
    """
    return LintConfig(
        det_paths=(
            "*/repro/executor/*.py",
            "*/repro/optimizer/*.py",
            "*/repro/core/*.py",
            "*/repro/plans/*.py",
            "*/repro/encoding/*.py",
            "*/repro/runtime/*.py",
        ),
        det_allow=(
            # Touch-and-stat clock probe: the except-OSError fallback when the
            # queue root is unwritable, documented in WorkQueue.filesystem_now.
            ("*/repro/runtime/workqueue.py", "WorkQueue.filesystem_now"),
        ),
        sec_allow=(
            # Task files are written by the coordinator into the queue
            # directory; the shared filesystem is the trust boundary.
            ("*/repro/runtime/workqueue.py", "WorkQueue._load"),
            # The one sanctioned network unpickler; SEC202 additionally
            # proves each call is behind an authentication gate.
            ("*/repro/runtime/netqueue.py", "recv_frame"),
        ),
        sec_verified_paths=("*/repro/runtime/netqueue.py",),
        conc_paths=("*/repro/runtime/*.py",),
        skip_paths=("*/tests/reprolint_fixtures/*",),
    )
