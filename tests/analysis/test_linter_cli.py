"""CLI-level tests: exit codes, formats, selection, parse errors."""

import json

import pytest

from repro.analysis import lint_paths
from repro.analysis.linter import PARSE_ERROR_RULE, iter_python_files
from repro.cli import main as repro_main

BAD_SIM = """\
import time
import random


def stamp():
    return time.time()


def jitter():
    return random.random()
"""

CLEAN = """\
def add(a, b):
    return a + b
"""


@pytest.fixture()
def tree(tmp_path):
    sim = tmp_path / "src" / "repro" / "sim"
    sim.mkdir(parents=True)
    (sim / "bad.py").write_text(BAD_SIM)
    (tmp_path / "clean.py").write_text(CLEAN)
    return tmp_path


class TestExitCodes:
    def test_clean_tree_exits_zero(self, tree, capsys):
        assert repro_main(["analyze", str(tree / "clean.py")]) == 0
        assert "no violations" in capsys.readouterr().out

    def test_violations_exit_one_with_rule_ids(self, tree, capsys):
        code = repro_main(["analyze", str(tree / "src")])
        out = capsys.readouterr().out
        assert code == 1
        assert "FELA001" in out
        assert "FELA002" in out

    def test_missing_path_exits_two(self, tree, capsys):
        assert repro_main(["analyze", str(tree / "nope")]) == 2
        assert "error" in capsys.readouterr().err

    def test_unknown_rule_exits_two(self, tree):
        assert repro_main(["analyze", str(tree), "--select", "FELA999"]) == 2


class TestFormatsAndSelection:
    def test_json_format_is_machine_readable(self, tree, capsys):
        repro_main(["analyze", str(tree / "src"), "--format", "json"])
        payload = json.loads(capsys.readouterr().out)
        assert payload["count"] == 2
        ids = {v["rule_id"] for v in payload["violations"]}
        assert ids == {"FELA001", "FELA002"}

    def test_select_narrows_rules(self, tree, capsys):
        code = repro_main(
            ["analyze", str(tree / "src"), "--select", "FELA002"]
        )
        out = capsys.readouterr().out
        assert code == 1
        assert "FELA002" in out
        assert "FELA001" not in out

    def test_rules_subcommand_lists_registry(self, capsys):
        assert repro_main(["analyze", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in ("FELA001", "FELA002", "FELA003", "FELA004",
                        "FELA005"):
            assert rule_id in out


class TestParseErrors:
    def test_syntax_error_reported_not_raised(self, tmp_path):
        bad = tmp_path / "broken.py"
        bad.write_text("def broken(:\n")
        violations = lint_paths([bad])
        assert [v.rule_id for v in violations] == [PARSE_ERROR_RULE]


class TestFileDiscovery:
    def test_skips_pycache(self, tmp_path):
        cache = tmp_path / "__pycache__"
        cache.mkdir()
        (cache / "junk.py").write_text("x = 1\n")
        (tmp_path / "real.py").write_text("x = 1\n")
        files = iter_python_files([tmp_path])
        assert [f.name for f in files] == ["real.py"]

    def test_deduplicates_overlapping_paths(self, tmp_path):
        (tmp_path / "a.py").write_text("x = 1\n")
        files = iter_python_files([tmp_path, tmp_path / "a.py"])
        assert len(files) == 1


class TestReproAnalyzeSubcommand:
    def test_analyze_clean_file(self, tree, capsys):
        code = repro_main(["analyze", str(tree / "clean.py")])
        assert code == 0
        assert "no violations" in capsys.readouterr().out

    def test_analyze_finds_violations(self, tree, capsys):
        code = repro_main(["analyze", str(tree / "src")])
        assert code == 1
        assert "FELA001" in capsys.readouterr().out

    def test_analyze_list_rules(self, capsys):
        assert repro_main(["analyze", "--list-rules"]) == 0
        out = capsys.readouterr().out
        assert "FELA003" in out
        assert "FELA101" in out

    def test_analyze_flow_runs_whole_program_rules(
        self, tree, tmp_path, capsys
    ):
        (tree / "src" / "repro" / "sim" / "proc.py").write_text(
            "def proc(env, n):\n    yield n + 1\n"
        )
        code = repro_main(["analyze", "--flow", str(tree / "src")])
        assert code == 1
        assert "FELA104" in capsys.readouterr().out

    def test_analyze_flow_clean_tree_exits_zero(self, tree, capsys):
        code = repro_main(["analyze", "--flow", str(tree / "clean.py")])
        assert code == 0
        assert capsys.readouterr().out.startswith("0 findings across")

    def test_analyze_flow_usage_error_exits_two_in_every_format(
        self, tmp_path, capsys
    ):
        missing = str(tmp_path / "missing")
        assert repro_main(["analyze", "--flow", missing]) == 2
        assert capsys.readouterr().err.startswith("error:")
        assert (
            repro_main(["analyze", "--flow", missing, "--format", "json"])
            == 2
        )
        assert "error" in json.loads(capsys.readouterr().err)


class TestFormatConsistency:
    def test_error_is_json_in_json_mode(self, tmp_path, capsys):
        code = repro_main(
            ["analyze", str(tmp_path / "nope"), "--format", "json"]
        )
        assert code == 2
        payload = json.loads(capsys.readouterr().err)
        assert "error" in payload
        assert payload["violations"] == []

    def test_error_is_text_in_text_mode(self, tmp_path, capsys):
        assert repro_main(["analyze", str(tmp_path / "nope")]) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_text_and_json_agree_on_exit_code(self, tree):
        text_code = repro_main(["analyze", str(tree / "src")])
        json_code = repro_main(
            ["analyze", str(tree / "src"), "--format", "json"]
        )
        assert text_code == json_code == 1


class TestDeduplication:
    def test_multi_match_node_reported_once(self, tmp_path):
        # A chained float comparison matches FELA005 once per
        # comparator, historically producing identical duplicates.
        target = tmp_path / "src" / "repro" / "sim" / "cmp.py"
        target.parent.mkdir(parents=True)
        target.write_text(
            "def close(a, b, c):\n"
            "    return a == b == c\n"
        )
        violations = lint_paths([target])
        assert len(violations) == len(set(violations))
        fela005 = [
            v for v in violations if v.rule_id == "FELA005"
        ]
        spots = [(v.line, v.col) for v in fela005]
        assert len(spots) == len(set(spots))
