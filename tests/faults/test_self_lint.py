"""The fault subsystem must satisfy the determinism analysis rules.

``tests/analysis/test_self_lint.py`` already sweeps the whole tree;
this test pins the fault package *explicitly* so that narrowing the
tree-wide sweep can never silently drop coverage of the one subsystem
whose whole contract is deterministic injection and recovery.
"""

import pathlib

from repro.analysis import analyze_paths

REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]


def test_faults_package_is_lint_clean():
    target = REPO_ROOT / "src" / "repro" / "faults"
    assert target.exists(), f"missing tree: {target}"
    violations = analyze_paths([target]).findings
    assert violations == [], "\n".join(v.render() for v in violations)


def test_faults_tests_are_lint_clean():
    target = REPO_ROOT / "tests" / "faults"
    violations = analyze_paths([target]).findings
    assert violations == [], "\n".join(v.render() for v in violations)
