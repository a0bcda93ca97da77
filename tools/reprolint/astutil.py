"""Shared AST plumbing: dotted names, parents, scopes, ordered traversal."""

from __future__ import annotations

import ast


def dotted_name(node: ast.AST) -> str | None:
    """``a.b.c`` for a Name/Attribute chain, ``None`` for anything else.

    Calls interposed in the chain (``a().b``) break it — the result is
    ``None`` — which is what rule matching wants: ``time.time`` must mean the
    module attribute, not an arbitrary expression that happens to end in
    ``.time``.
    """
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        base = dotted_name(node.value)
        return None if base is None else f"{base}.{node.attr}"
    return None


def attach_parents(tree: ast.AST) -> None:
    """Set ``node.parent`` on every node (the module's parent is ``None``)."""
    tree.parent = None  # type: ignore[attr-defined]
    for parent in ast.walk(tree):
        for child in ast.iter_child_nodes(parent):
            child.parent = parent  # type: ignore[attr-defined]


def enclosing_statement(node: ast.AST) -> ast.stmt | None:
    """The innermost statement containing ``node`` (requires parents)."""
    current: ast.AST | None = node
    while current is not None and not isinstance(current, ast.stmt):
        current = getattr(current, "parent", None)
    return current


def qualname_of(node: ast.AST) -> str:
    """Dotted function/class scope of ``node`` (requires parents).

    ``ClassName.method`` for a node inside a method, ``function`` at module
    level, ``""`` for module-scope code.  Nested functions join with dots
    (``outer.inner``), matching how allowlists name their entries.
    """
    parts: list[str] = []
    current: ast.AST | None = getattr(node, "parent", None)
    while current is not None:
        if isinstance(current, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            parts.append(current.name)
        current = getattr(current, "parent", None)
    return ".".join(reversed(parts))


def statements_before_on_path(node: ast.AST) -> list[ast.stmt]:
    """Statements that execute before ``node`` on every structured path.

    Walks the ancestor chain (requires parents): for each enclosing statement
    block — a function body, an ``if`` suite, a ``with`` body — collect the
    sibling statements *preceding* the ancestor that leads to ``node``.  For
    loop-free structured code these are exactly the node's pre-dominators,
    which is all the SEC domination check needs; a statement inside a loop is
    conservatively still "before" its successors in the same suite.
    """
    before: list[ast.stmt] = []
    current: ast.AST | None = enclosing_statement(node)
    while current is not None:
        parent = getattr(current, "parent", None)
        if parent is None:
            break
        for field in ("body", "orelse", "finalbody"):
            suite = getattr(parent, field, None)
            if isinstance(suite, list) and current in suite:
                before.extend(suite[: suite.index(current)])
                break
        if isinstance(parent, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Module)):
            break  # domination is a same-function property: stop at the boundary
        # Non-statement suite owners (an ExceptHandler) climb to their own
        # enclosing statement; everything else (If/With/For/Try/...) is one.
        current = parent if isinstance(parent, ast.stmt) else getattr(parent, "parent", None)
    return before
