"""The timing decomposition of every method: its bytes, and the one module that mints it.

Each registered method runs one experiment cell on the fixed split of
``tools/record_run_digests.py``; the sha256 of its result's JSON form (every
inference, planning and execution time, timeout and training figure) and its
summary row must equal the bytes recorded at the parent commit.  Every
simulated millisecond comes from :mod:`repro.simclock`, which sits low in the
import order.
"""

from __future__ import annotations

import ast
import json
import sys
from pathlib import Path

import pytest

import repro
from repro import simclock
from repro.lqo import available_methods

REPO_ROOT = Path(__file__).resolve().parents[1]
if str(REPO_ROOT) not in sys.path:
    sys.path.insert(0, str(REPO_ROOT))

from tools import record_run_digests  # noqa: E402

SRC = Path(repro.__file__).parent


@pytest.fixture(scope="module")
def recorded() -> dict:
    return json.loads(record_run_digests.GOLDEN_PATH.read_text(encoding="utf-8"))


def test_every_method_is_recorded(recorded):
    assert sorted(recorded["runs"]) == sorted(available_methods())


@pytest.mark.parametrize("method", sorted(available_methods()))
def test_run_is_the_bytes_recorded_at_the_parent(imdb_db, job_workload, recorded, method):
    assert record_run_digests.run_digest(imdb_db, job_workload, method) == recorded["runs"][method]


def _runtime_imports(tree: ast.Module) -> list[str]:
    """Modules a file imports when it runs (``if TYPE_CHECKING:`` blocks excluded)."""
    names: list[str] = []
    pending: list[ast.AST] = list(tree.body)
    while pending:
        node = pending.pop()
        if isinstance(node, ast.If) and isinstance(node.test, ast.Name) and node.test.id == "TYPE_CHECKING":
            pending.extend(node.orelse)
            continue
        if isinstance(node, ast.Import):
            names.extend(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            names.append(node.module or "")
        pending.extend(ast.iter_child_nodes(node))
    return names


class TestSingleClockModule:
    def test_the_clock_imports_only_the_config_from_the_package(self):
        imports = _runtime_imports(ast.parse(Path(simclock.__file__).read_text(encoding="utf-8")))
        assert "repro.config" in imports
        assert [name for name in imports if name.split(".")[0] == "repro"] == ["repro.config"]

    def test_the_timeout_charge_is_written_once(self):
        sites = []
        for path in sorted(SRC.rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if (
                    isinstance(node, ast.Constant)
                    and type(node.value) in (int, float)
                    and node.value == 60_000
                ):
                    sites.append(path.relative_to(SRC).as_posix())
        assert sites == ["simclock.py"]
