"""The codebase must satisfy its own analysis rules, tree by tree.

This is the repository's determinism contract as a test: any wall-clock
read, unseeded RNG call, protocol-breaking yield, mutable default, or
float-equality comparison introduced anywhere in ``src`` (or the test,
benchmark and example trees) fails CI here, not in a flaky figure three
PRs later.
"""

import pathlib

from repro.analysis import analyze_paths

REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]


def _lint(relative: str):
    target = REPO_ROOT / relative
    assert target.exists(), f"missing tree: {target}"
    return analyze_paths([target]).findings


def test_src_is_clean():
    violations = _lint("src")
    assert violations == [], "\n".join(v.render() for v in violations)


def test_tests_are_clean():
    violations = _lint("tests")
    assert violations == [], "\n".join(v.render() for v in violations)


def test_benchmarks_are_clean():
    violations = _lint("benchmarks")
    assert violations == [], "\n".join(v.render() for v in violations)


def test_examples_are_clean():
    violations = _lint("examples")
    assert violations == [], "\n".join(v.render() for v in violations)
