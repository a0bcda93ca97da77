"""Self-tests for ``tools.reprolint`` (fixtures in ``tests/reprolint_fixtures/``).

Each rule family gets a bad fixture (every violation caught, at the right
rule id) and a good fixture (zero false positives on the idioms the codebase
actually uses).  On top of the snippets, two anchor tests pin the linter to
the live tree: ``src/`` must lint clean with the project config, and a copy
of the real ``netqueue.py`` with an unverified unpickle added must fail SEC.
"""

import ast
import json
import shutil
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
if str(REPO_ROOT) not in sys.path:
    sys.path.insert(0, str(REPO_ROOT))

from tools.reprolint import LintConfig, default_config, lint_paths  # noqa: E402
from tools.reprolint.astutil import attach_parents, qualname_of  # noqa: E402
from tools.reprolint.config import path_matches  # noqa: E402
from tools.reprolint.engine import lint_file  # noqa: E402
from tools.reprolint.findings import RULE_CATALOG  # noqa: E402

FIXTURES = REPO_ROOT / "tests" / "reprolint_fixtures"


def rules_of(findings):
    return [finding.rule for finding in findings]


def det_config(**overrides) -> LintConfig:
    return LintConfig(det_paths=("*/reprolint_fixtures/det_*.py",), **overrides)


class TestDetRules:
    def test_bad_fixture_catches_every_family_member(self):
        findings = lint_file(FIXTURES / "det_bad.py", det_config())
        assert rules_of(findings).count("DET101") == 2  # time.time + time.time_ns
        assert rules_of(findings).count("DET102") == 1  # datetime.now
        assert rules_of(findings).count("DET103") == 3  # random.random/shuffle, np shuffle
        assert rules_of(findings).count("DET104") == 2  # Random(), default_rng()
        assert len(findings) == 8

    def test_good_fixture_is_clean_with_allowlist(self):
        config = det_config(
            det_allow=(("*/reprolint_fixtures/det_good.py", "allowlisted_probe"),),
        )
        assert lint_file(FIXTURES / "det_good.py", config) == []

    def test_allowlist_is_per_function_not_per_file(self):
        # Without the allowlist entry the same fixture has exactly one finding.
        findings = lint_file(FIXTURES / "det_good.py", det_config())
        assert rules_of(findings) == ["DET101"]
        assert "allowlist" not in findings[0].message  # message is the plain complaint

    def test_suppressions_waive_by_rule_family_and_all(self):
        findings = lint_file(FIXTURES / "det_suppressed.py", det_config())
        # Only the deliberately unsuppressed call survives.
        assert len(findings) == 1
        assert findings[0].rule == "DET101"
        flagged_line = (FIXTURES / "det_suppressed.py").read_text().splitlines()[
            findings[0].line - 1
        ]
        assert "does not leak here" in flagged_line


class TestSecRules:
    def test_unallowlisted_loads_fail_including_aliases(self):
        findings = lint_file(FIXTURES / "sec_bad.py", LintConfig())
        assert rules_of(findings) == ["SEC201", "SEC201", "SEC201"]
        assert "aliased_read" in findings[1].message

    def test_verified_module_demands_domination(self):
        config = LintConfig(
            sec_allow=(("*/reprolint_fixtures/sec_bad.py", "recv_frame_unverified"),),
            sec_verified_paths=("*/reprolint_fixtures/sec_bad.py",),
        )
        findings = lint_file(FIXTURES / "sec_bad.py", config)
        # Every unpickle in a verified module needs a gate (SEC202 fires on
        # all three); the two cache readers additionally fail SEC201, while
        # the allowlisted decoder dodges SEC201 but not SEC202.
        assert sorted(rules_of(findings)) == ["SEC201", "SEC201"] + ["SEC202"] * 3
        assert any(
            finding.rule == "SEC202" and "recv_frame_unverified" in finding.message
            for finding in findings
        )

    def test_gated_decoder_passes_both_rules(self):
        config = LintConfig(
            sec_allow=(("*/reprolint_fixtures/sec_good.py", "recv_frame"),),
            sec_verified_paths=("*/reprolint_fixtures/sec_good.py",),
        )
        assert lint_file(FIXTURES / "sec_good.py", config) == []


class TestConcRules:
    CONFIG = LintConfig(conc_paths=("*/reprolint_fixtures/conc_*.py",))

    def test_bad_fixture_catches_every_mutation_kind(self):
        findings = lint_file(FIXTURES / "conc_bad.py", self.CONFIG)
        assert sorted(rules_of(findings)) == ["CONC401"] * 5 + ["CONC402"] * 3
        messages = " | ".join(finding.message for finding in findings)
        assert "self._count" in messages and "self._by_worker" in messages
        assert "self._log" in messages and ".append()" in messages

    def test_unlocked_reads_flag_only_mutated_attributes(self):
        findings = lint_file(FIXTURES / "conc_bad.py", self.CONFIG)
        reads = [finding for finding in findings if finding.rule == "CONC402"]
        # bump()'s RHS read, total() and busiest() — but never the mutation
        # receivers themselves (those are CONC401's findings).
        assert len(reads) == 3
        assert {"total", "busiest", "bump"} == {
            finding.message.split()[0].split(".")[1] for finding in reads
        }

    def test_good_fixture_is_clean(self):
        assert lint_file(FIXTURES / "conc_good.py", self.CONFIG) == []


class TestLiveCodebase:
    def test_src_is_clean_under_the_project_config(self):
        assert lint_paths([REPO_ROOT / "src"], default_config()) == []

    def test_unverified_network_unpickle_fails_sec(self, tmp_path):
        """A new pickle.loads dropped into netqueue.py fails SEC201 and SEC202."""
        runtime = tmp_path / "repro" / "runtime"
        runtime.mkdir(parents=True)
        source = (REPO_ROOT / "src" / "repro" / "runtime" / "netqueue.py").read_text()
        source += (
            "\n\ndef recv_fast(sock):\n"
            "    return pickle.loads(sock.recv(65536))\n"
        )
        (runtime / "netqueue.py").write_text(source, encoding="utf-8")
        findings = [
            finding
            for finding in lint_paths([tmp_path], default_config())
            if "recv_fast" in finding.message
        ]
        assert sorted(rules_of(findings)) == ["SEC201", "SEC202"]

    def test_every_allowlist_entry_names_a_live_function(self):
        """A renamed function must not leave a silent, stale allowlist entry."""
        config = default_config()
        sources = sorted((REPO_ROOT / "src").rglob("*.py"))
        for pattern, qualname in config.det_allow + config.sec_allow:
            defined: set[str] = set()
            matched = [path for path in sources if path_matches(path, (pattern,))]
            for path in matched:
                tree = ast.parse(path.read_text(encoding="utf-8"))
                attach_parents(tree)
                defined.update(
                    qualname_of(node.body[0])
                    for node in ast.walk(tree)
                    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                )
            assert matched, f"allowlist pattern {pattern} matches no src/ file"
            assert qualname in defined, f"allowlist entry {qualname} is defined in no {pattern} file"


class TestCli:
    def run_cli(self, *args):
        return subprocess.run(
            [sys.executable, "-m", "tools.reprolint", *args],
            capture_output=True,
            text=True,
            cwd=REPO_ROOT,
        )

    def test_clean_tree_exits_zero(self):
        result = self.run_cli("src")
        assert result.returncode == 0, result.stdout + result.stderr
        assert "0 findings" in result.stderr

    def test_bad_fixture_exits_nonzero_with_findings(self, tmp_path):
        # SEC201 is path-agnostic under the project config, so the CLI must
        # fail on a copy of the bad fixture.  (The fixture directory itself is
        # in the project skip list so `make lint` stays clean — hence the copy.)
        bad = tmp_path / "sec_bad.py"
        shutil.copy(FIXTURES / "sec_bad.py", bad)
        result = self.run_cli(str(bad))
        assert result.returncode == 1
        assert "SEC201" in result.stdout

    def test_json_output_is_machine_readable(self, tmp_path):
        # A violation the *project* config catches wherever the file lives:
        # an unallowlisted pickle.loads.
        bad = tmp_path / "loader.py"
        bad.write_text("import pickle\n\ndef f(b):\n    return pickle.loads(b)\n")
        result = self.run_cli("--json", str(bad))
        assert result.returncode == 1
        payload = json.loads(result.stdout)
        assert payload and payload[0]["rule"] == "SEC201"
        assert payload[0]["line"] == 4

    def test_missing_path_is_a_usage_error(self):
        result = self.run_cli("definitely/not/a/path")
        assert result.returncode == 2

    def test_list_rules_covers_the_catalog(self):
        result = self.run_cli("--list-rules")
        assert result.returncode == 0
        for rule in RULE_CATALOG:
            assert rule in result.stdout
