"""The analyze_paths driver: fixtures, noqa, parse errors."""

import pytest

from repro.analysis import analyze_paths
from tests.analysis.flow.fixture_tree import write_fixture_tree


@pytest.fixture()
def fixtures(tmp_path):
    return write_fixture_tree(tmp_path)


def test_fixture_tree_yields_exactly_the_seeded_bugs(fixtures):
    report = analyze_paths([fixtures])
    by_rule = {}
    for finding in report.findings:
        by_rule.setdefault(finding.rule_id, []).append(finding)
    assert set(by_rule) == {
        "FELA101", "FELA102", "FELA103", "FELA104", "FELA105"
    }
    (laundered,) = by_rule["FELA101"]
    assert laundered.path.endswith("sim/workload.py")
    assert laundered.trace == (
        "repro.sim.clocks.jitter_seconds",
        "repro.sim.clocks._raw_clock",
    )
    (unordered,) = by_rule["FELA102"]
    assert "unordered set" in unordered.message
    assert len(by_rule["FELA103"]) == 2
    assert all(
        f.path.endswith("exec/submit.py") for f in by_rule["FELA103"]
    )


def test_clean_fixture_module_contributes_no_findings(fixtures):
    report = analyze_paths([fixtures])
    assert not any(
        finding.path.endswith("clean.py")
        for finding in report.findings
    )


def test_findings_are_sorted_and_unique(fixtures):
    report = analyze_paths([fixtures])
    assert report.findings == sorted(set(report.findings))


class TestSuppressionAndErrors:
    def test_noqa_on_finding_line_suppresses_flow_rule(self, tmp_path):
        sim = tmp_path / "src" / "repro" / "sim"
        sim.mkdir(parents=True)
        (sim / "a.py").write_text(
            "def proc(env, n):\n"
            "    yield n + 1  # repro: noqa-FELA104\n"
        )
        assert analyze_paths([tmp_path]).findings == []

    def test_noqa_for_other_rule_does_not_suppress(self, tmp_path):
        sim = tmp_path / "src" / "repro" / "sim"
        sim.mkdir(parents=True)
        (sim / "a.py").write_text(
            "def proc(env, n):\n"
            "    yield n + 1  # repro: noqa-FELA001\n"
        )
        (finding,) = analyze_paths([tmp_path]).findings
        assert finding.rule_id == "FELA104"

    def test_unparsable_file_reported_as_fela000(self, tmp_path):
        (tmp_path / "broken.py").write_text("def broken(:\n")
        (finding,) = analyze_paths([tmp_path]).findings
        assert finding.rule_id == "FELA000"
        assert "cannot parse" in finding.message
