"""Command line surface: ``python -m tools.reprolint [paths...]``.

Exit codes: ``0`` clean, ``1`` at least one finding, ``2`` usage error
(nonexistent path).  ``--json`` emits a machine-readable finding list on
stdout (an empty JSON array when clean) for CI annotation tooling;
``--list-rules`` prints the rule catalog and exits.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from tools.reprolint.config import default_config
from tools.reprolint.engine import lint_paths
from tools.reprolint.findings import RULE_CATALOG


def main(argv: list[str] | None = None) -> int:
    """Entry point; returns the process exit code."""
    parser = argparse.ArgumentParser(
        prog="python -m tools.reprolint",
        description="AST-based invariant linter: determinism, pickle-taint "
        "and lock-guard rules (docs/STATIC_ANALYSIS.md).",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        help="files or directories to lint (default: src)",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="emit findings as a JSON array on stdout instead of text lines",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalog and exit",
    )
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule, description in sorted(RULE_CATALOG.items()):
            print(f"{rule}  {description}")
        return 0

    paths = [Path(path) for path in args.paths]
    missing = [path for path in paths if not path.exists()]
    if missing:
        for path in missing:
            print(f"reprolint: path does not exist: {path}", file=sys.stderr)
        return 2

    findings = lint_paths(paths, default_config())
    if args.json:
        print(json.dumps([finding.to_dict() for finding in findings], indent=2))
    else:
        for finding in findings:
            print(finding.render())
        count = len(findings)
        label = "finding" if count == 1 else "findings"
        print(f"reprolint: {count} {label}", file=sys.stderr)
    return 1 if findings else 0
