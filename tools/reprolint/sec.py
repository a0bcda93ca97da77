"""SEC rules: every ``pickle.loads`` is allowlisted, and verified on the wire.

``pickle.loads`` on attacker-controllable bytes is remote code execution, so
the codebase confines unpickling to one documented site: the TCP frame
decoder, which HMAC-verifies every frame *before* unpickling it.  Both
halves of that policy are enforced statically:

* **SEC201** — a call to ``pickle.loads`` / ``pickle.load`` /
  ``pickle.Unpickler`` (under any import alias) anywhere outside the
  config's ``sec_allow`` function allowlist.  A new unpickle call site —
  however innocent — must be reviewed into the allowlist, which is exactly
  the code-review tripwire this rule exists to be.
* **SEC202** — in network-reachable modules (``sec_verified_paths``), every
  unpickle call must be *dominated* by an authentication gate in the same
  function: on every structured path to the call there is an earlier
  statement that either invokes ``hmac.compare_digest`` (rejecting on
  mismatch) or is an ``if`` guard raising an ``*Auth*`` error.  A new
  ``pickle.loads`` pasted into ``runtime/netqueue.py`` without the
  verify-first dance fails lint even if it is also added to the allowlist.

Domination is computed over the statement structure
(:func:`tools.reprolint.astutil.statements_before_on_path`): sound for the
loop-free, early-raise style the codec is written in, and conservative —
a gate the analysis cannot see fails the build rather than passing it.
"""

from __future__ import annotations

import ast
from pathlib import Path

from tools.reprolint.astutil import dotted_name, qualname_of, statements_before_on_path
from tools.reprolint.config import LintConfig, path_matches
from tools.reprolint.findings import Finding

#: Attribute spellings of unpickling entry points.
_PICKLE_MODULES = {"pickle", "_pickle", "cPickle", "dill", "cloudpickle"}
_PICKLE_FUNCTIONS = {"loads", "load", "Unpickler"}


def _unpickle_aliases(tree: ast.AST) -> dict[str, str]:
    """Local names bound to unpickling callables via ``from pickle import ...``."""
    aliases: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module in _PICKLE_MODULES:
            for alias in node.names:
                if alias.name in _PICKLE_FUNCTIONS:
                    aliases[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    return aliases


def _unpickle_name(call: ast.Call, aliases: dict[str, str]) -> str | None:
    """The canonical ``module.function`` if ``call`` unpickles, else ``None``."""
    name = dotted_name(call.func)
    if name is None:
        return None
    if name in aliases:
        return aliases[name]
    parts = name.split(".")
    if len(parts) == 2 and parts[0] in _PICKLE_MODULES and parts[1] in _PICKLE_FUNCTIONS:
        return name
    return None


def _is_auth_gate(stmt: ast.stmt) -> bool:
    """Whether ``stmt`` authenticates (or rejects) the bytes before use.

    Two recognised shapes, matching how the frame codec is written:

    * any statement whose subtree calls ``hmac.compare_digest`` — the
      constant-time signature comparison (its failure branch raises);
    * an ``if`` whose body raises an exception with ``Auth`` in its name —
      the explicit unauthenticated-frame rejection guard.
    """
    for node in ast.walk(stmt):
        if isinstance(node, ast.Call):
            name = dotted_name(node.func)
            if name is not None and name.split(".")[-1] == "compare_digest":
                return True
    if isinstance(stmt, ast.If):
        for inner in stmt.body:
            for node in ast.walk(inner):
                if isinstance(node, ast.Raise) and node.exc is not None:
                    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                    exc_name = dotted_name(exc) or ""
                    if "auth" in exc_name.lower():
                        return True
    return False


def check(tree: ast.AST, path: Path, config: LintConfig) -> list[Finding]:
    """SEC findings for one parsed module (parents must be attached)."""
    aliases = _unpickle_aliases(tree)
    findings: list[Finding] = []
    verified_module = path_matches(path, config.sec_verified_paths)
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        name = _unpickle_name(node, aliases)
        if name is None:
            continue
        qualname = qualname_of(node)
        where = qualname or "<module>"
        if not config.sec_allowed(path, qualname):
            findings.append(
                Finding(
                    str(path),
                    node.lineno,
                    node.col_offset,
                    "SEC201",
                    f"{name} in {where} is not an allowlisted unpickling site; "
                    "untrusted bytes here are remote code execution",
                )
            )
        if verified_module:
            gated = any(_is_auth_gate(stmt) for stmt in statements_before_on_path(node))
            if not gated:
                findings.append(
                    Finding(
                        str(path),
                        node.lineno,
                        node.col_offset,
                        "SEC202",
                        f"{name} in {where} is not dominated by a signature-verify "
                        "gate (hmac.compare_digest or an *Auth* raise guard) in the "
                        "same function",
                    )
                )
    return findings
