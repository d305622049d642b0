"""CLI-level tests: exit codes, formats, parse and read errors."""

import json

import pytest

from repro.analysis import analyze_paths
from repro.analysis.engine import iter_python_files
from repro.analysis.rules import PARSE_ERROR_RULE
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


def lint_paths(paths):
    return analyze_paths(paths).findings


class TestExitCodes:
    def test_clean_tree_exits_zero(self, tree, capsys):
        assert repro_main(["analyze", str(tree / "clean.py")]) == 0
        assert capsys.readouterr().out.startswith("0 findings across")

    def test_violations_exit_one_with_rule_ids(self, tree, capsys):
        code = repro_main(["analyze", str(tree / "src")])
        out = capsys.readouterr().out
        assert code == 1
        assert "FELA001" in out
        assert "FELA002" in out

    def test_missing_path_exits_two(self, tree, capsys):
        assert repro_main(["analyze", str(tree / "nope")]) == 2
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("option", ["--select", "--flow"])
    def test_removed_options_are_usage_errors(self, tree, option, capsys):
        with pytest.raises(SystemExit) as exit_info:
            repro_main(["analyze", str(tree), option])
        assert exit_info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


class TestFormatsAndSelection:
    def test_json_format_is_machine_readable(self, tree, capsys):
        repro_main(["analyze", str(tree / "src"), "--format", "json"])
        payload = json.loads(capsys.readouterr().out)
        assert payload["count"] == 2
        ids = {v["rule_id"] for v in payload["findings"]}
        assert ids == {"FELA001", "FELA002"}
        assert all(v["trace"] == [] for v in payload["findings"])
        assert payload["files"] == 1
        assert payload["functions"] == 2

    def test_text_and_json_share_one_shape(self, tree, capsys):
        (tree / "src" / "repro" / "sim" / "proc.py").write_text(
            "def proc(env, n):\n    yield n + 1\n"
        )
        repro_main(["analyze", str(tree / "src")])
        text = capsys.readouterr().out.splitlines()
        repro_main(["analyze", str(tree / "src"), "--format", "json"])
        payload = json.loads(capsys.readouterr().out)
        assert [f["rule_id"] for f in payload["findings"]] == [
            "FELA001", "FELA002", "FELA104"
        ]
        assert payload["findings"][2]["trace"] == ["repro.sim.proc.proc"]
        assert text[-1] == "3 findings across 2 files / 3 functions"
        assert len(text) == payload["count"] + 1

    def test_rules_subcommand_lists_registry(self, capsys):
        assert repro_main(["analyze", "--list-rules"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line.split()[0] for line in lines] == [
            "FELA001", "FELA002", "FELA004", "FELA005", "FELA006",
            "FELA101", "FELA102", "FELA103", "FELA104", "FELA105",
        ]


class TestParseErrors:
    def test_syntax_error_reported_not_raised(self, tmp_path):
        bad = tmp_path / "broken.py"
        bad.write_text("def broken(:\n")
        violations = lint_paths([bad])
        assert [v.rule_id for v in violations] == [PARSE_ERROR_RULE]

    @pytest.mark.parametrize("output_format", ["text", "json"])
    def test_non_utf8_file_is_one_usage_error(
        self, tmp_path, output_format, capsys
    ):
        bad = tmp_path / "latin1.py"
        bad.write_bytes(b'x = "\xff"\n')
        code = repro_main(
            ["analyze", str(bad), "--format", output_format]
        )
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        if output_format == "json":
            payload = json.loads(captured.err)
            assert str(bad) in payload["error"]
            assert payload["findings"] == []
        else:
            (line,) = captured.err.strip().splitlines()
            assert line.startswith(f"error: cannot read {bad}")


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
        assert capsys.readouterr().out == (
            "0 findings across 1 files / 1 functions\n"
        )

    def test_analyze_finds_violations(self, tree, capsys):
        code = repro_main(["analyze", str(tree / "src")])
        assert code == 1
        assert "FELA001" in capsys.readouterr().out

    def test_analyze_list_rules(self, capsys):
        assert repro_main(["analyze", "--list-rules"]) == 0
        out = capsys.readouterr().out
        assert "FELA001" in out
        assert "FELA101" in out
        assert "FELA003" not in out

    def test_analyze_flow_runs_whole_program_rules(
        self, tree, tmp_path, capsys
    ):
        (tree / "src" / "repro" / "sim" / "proc.py").write_text(
            "def proc(env, n):\n    yield n + 1\n"
        )
        code = repro_main(["analyze", str(tree / "src")])
        assert code == 1
        assert "FELA104" in capsys.readouterr().out

    def test_analyze_flow_clean_tree_exits_zero(self, tree, capsys):
        code = repro_main(["analyze", str(tree / "clean.py")])
        assert code == 0
        assert capsys.readouterr().out.startswith("0 findings across")

    def test_analyze_flow_usage_error_exits_two_in_every_format(
        self, tmp_path, capsys
    ):
        missing = str(tmp_path / "missing")
        assert repro_main(["analyze", missing]) == 2
        assert capsys.readouterr().err.startswith("error:")
        assert repro_main(["analyze", missing, "--format", "json"]) == 2
        assert "error" in json.loads(capsys.readouterr().err)


class TestFormatConsistency:
    def test_error_is_json_in_json_mode(self, tmp_path, capsys):
        code = repro_main(
            ["analyze", str(tmp_path / "nope"), "--format", "json"]
        )
        assert code == 2
        payload = json.loads(capsys.readouterr().err)
        assert "error" in payload
        assert payload["findings"] == []

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
