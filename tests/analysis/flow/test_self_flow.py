"""The codebase must satisfy its own flow rules, with no exceptions.

The syntactic twin lives in ``tests/analysis/test_self_lint.py``.  Here
the whole-program analyzer sweeps ``src`` and must find nothing:
introducing an interprocedural determinism hazard anywhere in the
package fails this test (and the ``flow-analysis`` CI job) until it is
fixed, or marked ``# repro: noqa-RULE`` on the line where the consumer
is provably order- or value-insensitive.  The seeded fixture tree pins
the other side: every planted bug is still found, and nothing else.
"""

import pathlib

from repro.analysis.flow import analyze_paths

REPO_ROOT = pathlib.Path(__file__).resolve().parents[3]
FIXTURES = pathlib.Path(__file__).parent / "fixtures"


def test_src_has_no_flow_findings():
    report = analyze_paths([REPO_ROOT / "src"])
    assert report.findings == [], "\n".join(
        f.render() for f in report.findings
    )


def test_fixture_tree_yields_exactly_the_six_seeded_findings():
    report = analyze_paths([FIXTURES])
    found = [
        (
            pathlib.Path(f.path).relative_to(FIXTURES).as_posix(),
            f.line,
            f.col,
            f.rule_id,
        )
        for f in report.findings
    ]
    assert found == [
        ("src/repro/exec/submit.py", 23, 11, "FELA103"),
        ("src/repro/exec/submit.py", 23, 11, "FELA103"),
        ("src/repro/sim/workload.py", 18, 11, "FELA101"),
        ("src/repro/sim/workload.py", 23, 5, "FELA102"),
        ("src/repro/sim/workload.py", 30, 5, "FELA104"),
        ("src/repro/sim/workload.py", 34, 5, "FELA105"),
    ]
