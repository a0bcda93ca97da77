"""CONC rules: lock-owning classes guard their shared ``self._*`` state.

The runtime's coordinator threads and the TCP queue's handler
threads all share objects whose classes announce their
concurrency story by creating a ``self._lock``.  That announcement is the
contract the CONC family enforces: once a class constructs a
``threading.Lock`` / ``RLock`` attribute,

* **CONC401** — every mutation of an underscore-prefixed ``self`` attribute
  outside ``__init__`` must happen inside a ``with self._lock`` block.
* **CONC402** — every *read* of an attribute the class mutates outside its
  constructors must be guarded too.  An unlocked ``len(self._entries)`` next
  to a locked ``self._entries[key] = ...`` is a data race even on CPython
  (``OrderedDict`` iteration can observe a resize mid-flight), and it reads
  a counter that may be half of a multi-field update.  Attributes only ever
  assigned in ``__init__``/``__post_init__``/``__new__`` are immutable
  configuration — reading them anywhere is fine and not flagged.  Methods
  named ``*_locked`` are exempt: that suffix is the codebase's caller-holds-
  the-lock convention (they must only be invoked from guarded code).

``__init__`` runs before the object is shared — publication happens-before
any other thread's access — so construction is exempt from both rules.

Mutations recognised: attribute assignment and augmented assignment
(``self._x = ...``, ``self._x += ...``), item assignment/deletion on the
attribute (``self._d[k] = ...``, ``del self._d[k]``), and calls to the
standard container mutators (``self._d.pop(...)``, ``self._s.add(...)``,
...).  Calls like ``self._stop.set()`` on a ``threading.Event`` are not in
the mutator list — events carry their own synchronization.

A guard is any enclosing ``with`` whose context expression mentions an
identifier containing ``lock`` (``self._lock``, or a module-level lock); the
rules check guardedness, not *which* lock — one lock
per class is the codebase's convention.
"""

from __future__ import annotations

import ast
from pathlib import Path

from tools.reprolint.astutil import dotted_name
from tools.reprolint.config import LintConfig, path_matches
from tools.reprolint.findings import Finding

#: Methods whose bodies are construction, exempt from guarding.
_CONSTRUCTORS = {"__init__", "__post_init__", "__new__"}

#: Container methods that mutate their receiver.
_MUTATORS = {
    "append",
    "appendleft",
    "add",
    "clear",
    "discard",
    "extend",
    "insert",
    "move_to_end",
    "pop",
    "popitem",
    "popleft",
    "remove",
    "reverse",
    "setdefault",
    "sort",
    "update",
}

#: Lock constructors that mark a class as CONC-audited.
_LOCK_CONSTRUCTORS = {"threading.Lock", "threading.RLock", "Lock", "RLock"}


def _self_underscore_attr(node: ast.AST) -> str | None:
    """``_name`` when ``node`` is ``self._name``, else ``None``."""
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
        and node.attr.startswith("_")
        and not node.attr.startswith("__")
    ):
        return node.attr
    return None


def _lock_attrs(cls: ast.ClassDef) -> set[str]:
    """Names of ``self.<attr>`` bound to a ``threading.Lock()``/``RLock()``."""
    attrs: set[str] = set()
    for node in ast.walk(cls):
        if not isinstance(node, ast.Assign) or not isinstance(node.value, ast.Call):
            continue
        ctor = dotted_name(node.value.func)
        if ctor not in _LOCK_CONSTRUCTORS:
            continue
        for target in node.targets:
            attr = _self_underscore_attr(target)
            if attr is not None:
                attrs.add(attr)
    return attrs


def _mentions_lock(node: ast.AST) -> bool:
    """Whether any identifier under ``node`` contains ``lock``."""
    for inner in ast.walk(node):
        if isinstance(inner, ast.Name) and "lock" in inner.id.lower():
            return True
        if isinstance(inner, ast.Attribute) and "lock" in inner.attr.lower():
            return True
    return False


def _is_guarded(node: ast.AST) -> bool:
    """Whether ``node`` sits inside a ``with <...lock...>`` (needs parents)."""
    current = getattr(node, "parent", None)
    while current is not None:
        if isinstance(current, (ast.With, ast.AsyncWith)):
            if any(_mentions_lock(item.context_expr) for item in current.items):
                return True
        if isinstance(current, (ast.FunctionDef, ast.AsyncFunctionDef)):
            # Locks do not flow across function boundaries here: a helper
            # must take the lock itself (or be renamed *_locked and given a
            # suppression) rather than assume its caller holds it.
            return False
        current = getattr(current, "parent", None)
    return False


def _mutations(method: ast.AST):
    """Yield ``(node, attr, verb)`` for each shared-attribute mutation."""
    for node in ast.walk(method):
        if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            if isinstance(node, ast.AnnAssign) and node.value is None:
                continue  # bare annotation: declares, does not mutate
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                attr = _self_underscore_attr(target)
                if attr is not None:
                    yield node, attr, "assigns"
                if isinstance(target, ast.Subscript):
                    attr = _self_underscore_attr(target.value)
                    if attr is not None:
                        yield node, attr, "writes an item of"
                if isinstance(target, (ast.Tuple, ast.List)):
                    for element in target.elts:
                        attr = _self_underscore_attr(element)
                        if attr is not None:
                            yield node, attr, "assigns"
        elif isinstance(node, ast.Delete):
            for target in node.targets:
                attr = _self_underscore_attr(target)
                if attr is not None:
                    yield node, attr, "deletes"
                if isinstance(target, ast.Subscript):
                    attr = _self_underscore_attr(target.value)
                    if attr is not None:
                        yield node, attr, "deletes an item of"
        elif isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Attribute) and func.attr in _MUTATORS:
                attr = _self_underscore_attr(func.value)
                if attr is not None:
                    yield node, attr, f"calls .{func.attr}() on"


def _mutation_receiver_ids(method: ast.AST) -> set[int]:
    """``id()`` of every ``self._*`` attribute node that is a mutation receiver.

    CONC402 scans ``Load``-context attribute reads; the receiver of an item
    write (``self._d`` in ``self._d[k] = v``) or a mutator call (``self._log``
    in ``self._log.append(x)``) technically *is* such a read, but the mutation
    it belongs to is already CONC401's finding — excluding the exact nodes
    avoids reporting the same statement twice.  Subscript *indices* are not
    excluded: ``self._d[self._i] = v`` still reads ``self._i``.
    """
    ids: set[int] = set()

    def receiver(target: ast.AST) -> None:
        if isinstance(target, ast.Attribute):
            ids.add(id(target))
        elif isinstance(target, ast.Subscript) and isinstance(target.value, ast.Attribute):
            ids.add(id(target.value))
        elif isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                receiver(element)

    for node in ast.walk(method):
        if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                receiver(target)
        elif isinstance(node, ast.Delete):
            for target in node.targets:
                receiver(target)
        elif isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Attribute) and func.attr in _MUTATORS:
                if isinstance(func.value, ast.Attribute):
                    ids.add(id(func.value))
    return ids


def _shared_attrs(cls: ast.ClassDef, locks: set[str]) -> set[str]:
    """Attributes the class mutates outside its constructors.

    These are the racy ones: a read elsewhere can interleave with a
    concurrent write.  Attributes assigned only during construction are
    effectively immutable configuration and stay out of this set.
    """
    shared: set[str] = set()
    for method in cls.body:
        if not isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if method.name in _CONSTRUCTORS:
            continue
        for _node, attr, _verb in _mutations(method):
            if attr not in locks:
                shared.add(attr)
    return shared


def check(tree: ast.AST, path: Path, config: LintConfig) -> list[Finding]:
    """CONC findings for one parsed module (parents must be attached)."""
    if not path_matches(path, config.conc_paths):
        return []
    findings: list[Finding] = []
    for cls in ast.walk(tree):
        if not isinstance(cls, ast.ClassDef):
            continue
        locks = _lock_attrs(cls)
        if not locks:
            continue
        lock_name = next(iter(sorted(locks)))
        shared = _shared_attrs(cls, locks)
        for method in cls.body:
            if not isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if method.name in _CONSTRUCTORS:
                continue
            for node, attr, verb in _mutations(method):
                if attr in locks:
                    continue  # re-binding the lock itself is its own hazard, not this rule's
                if _is_guarded(node):
                    continue
                findings.append(
                    Finding(
                        str(path),
                        node.lineno,
                        node.col_offset,
                        "CONC401",
                        f"{cls.name}.{method.name} {verb} shared attribute "
                        f"'self.{attr}' outside 'with self.{lock_name}'",
                    )
                )
            if method.name.endswith("_locked"):
                continue  # caller-holds-the-lock convention: reads are the caller's duty
            receivers = _mutation_receiver_ids(method)
            for node in ast.walk(method):
                if not isinstance(node, ast.Attribute) or not isinstance(node.ctx, ast.Load):
                    continue
                attr = _self_underscore_attr(node)
                if attr is None or attr not in shared:
                    continue
                if id(node) in receivers:
                    continue
                if _is_guarded(node):
                    continue
                findings.append(
                    Finding(
                        str(path),
                        node.lineno,
                        node.col_offset,
                        "CONC402",
                        f"{cls.name}.{method.name} reads shared attribute "
                        f"'self.{attr}' outside 'with self.{lock_name}' "
                        f"(the class mutates it outside construction)",
                    )
                )
    return findings
