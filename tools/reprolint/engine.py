"""The lint driver: file discovery, rule dispatch, suppressions.

``lint_paths`` walks the given files/directories, parses each ``*.py`` once,
attaches parent links and runs the per-file rule families (DET, SEC, CONC).
Per-line suppressions — ``# reprolint: disable=RULE[,RULE...]`` with a rule
id, a family (``DET``) or ``all`` — are honoured last, so a suppressed line
still costs the analysis but never the build.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

from tools.reprolint import conc, det, sec
from tools.reprolint.astutil import attach_parents
from tools.reprolint.config import LintConfig, path_matches
from tools.reprolint.findings import Finding

#: ``# reprolint: disable=DET101,SEC`` (case-sensitive ids, spaces tolerated).
_SUPPRESS_RE = re.compile(r"#\s*reprolint:\s*disable=([A-Za-z0-9_,\s]+)")


def line_suppressions(source: str) -> dict[int, set[str]]:
    """Line number -> set of suppressed rule ids/families for one file."""
    suppressions: dict[int, set[str]] = {}
    for lineno, line in enumerate(source.splitlines(), start=1):
        match = _SUPPRESS_RE.search(line)
        if match:
            tokens = {token.strip() for token in match.group(1).split(",") if token.strip()}
            if tokens:
                suppressions[lineno] = tokens
    return suppressions


def is_suppressed(finding: Finding, suppressions: dict[int, set[str]]) -> bool:
    """Whether a per-line comment waives this finding."""
    tokens = suppressions.get(finding.line, set())
    if not tokens:
        return False
    if "all" in tokens or finding.rule in tokens:
        return True
    family = finding.rule.rstrip("0123456789")
    return family in tokens


def discover(paths: list[Path], config: LintConfig) -> list[Path]:
    """Every ``*.py`` file under ``paths``, deterministic order."""
    files: list[Path] = []
    for path in paths:
        if path.is_dir():
            for candidate in sorted(path.rglob("*.py")):
                if any(part in config.skip_dirs for part in candidate.parts):
                    continue
                files.append(candidate)
        elif path.suffix == ".py":
            files.append(path)
    return [path for path in files if not path_matches(path, config.skip_paths)]


def lint_file(path: Path, config: LintConfig) -> list[Finding]:
    """All per-file findings (DET + SEC + CONC) for one source file."""
    try:
        source = path.read_text(encoding="utf-8")
        tree = ast.parse(source, filename=str(path))
    except (OSError, SyntaxError, ValueError) as exc:
        return [Finding(str(path), getattr(exc, "lineno", 1) or 1, 0, "E999", str(exc))]
    attach_parents(tree)
    findings = det.check(tree, path, config)
    findings += sec.check(tree, path, config)
    findings += conc.check(tree, path, config)
    suppressions = line_suppressions(source)
    return [finding for finding in findings if not is_suppressed(finding, suppressions)]


def lint_paths(paths: list[Path | str], config: LintConfig | None = None) -> list[Finding]:
    """Lint files/directories; returns every unsuppressed finding, sorted."""
    from tools.reprolint.config import default_config

    config = config or default_config()
    files = discover([Path(path) for path in paths], config)
    findings: list[Finding] = []
    for path in files:
        findings.extend(lint_file(path, config))
    return sorted(findings, key=Finding.sort_key)
