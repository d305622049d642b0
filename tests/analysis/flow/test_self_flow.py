"""The codebase must satisfy its own rules, with no exceptions.

``tests/analysis/test_self_lint.py`` sweeps every tree.  Here the
analyzer sweeps ``src`` and must find nothing: introducing an
interprocedural determinism hazard anywhere in the package fails this
test (and the ``static-analysis`` CI job) until it is fixed, or marked
``# repro: noqa-RULE`` on the line where the consumer is provably
order- or value-insensitive.  The seeded fixture tree pins the other
side: every planted bug is still found, and nothing else.
"""

import pathlib

from repro.analysis import analyze_paths
from tests.analysis.flow.fixture_tree import write_fixture_tree

REPO_ROOT = pathlib.Path(__file__).resolve().parents[3]


def test_src_has_no_flow_findings():
    report = analyze_paths([REPO_ROOT / "src"])
    assert report.findings == [], "\n".join(
        f.render() for f in report.findings
    )


def test_fixture_tree_yields_exactly_the_six_seeded_findings(tmp_path):
    fixtures = write_fixture_tree(tmp_path)
    report = analyze_paths([fixtures])
    found = [
        (
            pathlib.Path(f.path).relative_to(fixtures).as_posix(),
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
