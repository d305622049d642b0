"""The flow-analysis driver: file walking, noqa, reporting.

``analyze_paths`` is the one entry point: it expands paths into files,
extracts per-file facts from a fresh parse, assembles the whole-program
model, evaluates every FELA1xx rule, and filters
``# repro: noqa-RULE`` suppressions.
"""

from __future__ import annotations

import dataclasses
import pathlib
import typing as _t

from repro.analysis.flow.callgraph import Program
from repro.analysis.flow.facts import ModuleFacts, extract_module_facts
from repro.analysis.flow.rules import FlowFinding, evaluate
from repro.analysis.linter import (
    PARSE_ERROR_RULE,
    _noqa_map,
    iter_python_files,
)


@dataclasses.dataclass
class FlowReport:
    """Everything one flow-analysis run produced."""

    findings: list[FlowFinding]
    files: int
    functions: int


def _suppressed(
    finding: FlowFinding, noqa: dict[int, frozenset[str] | None]
) -> bool:
    rules = noqa.get(finding.line, "absent")
    if rules == "absent":
        return False
    return rules is None or finding.rule_id in rules


def analyze_paths(
    paths: _t.Iterable[str | pathlib.Path],
) -> FlowReport:
    """Run the whole-program flow analysis over files/directories."""
    modules: list[ModuleFacts] = []
    sources: dict[str, str] = {}
    parse_errors: list[FlowFinding] = []
    files = iter_python_files(paths)
    for file_path in files:
        path = str(file_path)
        source = file_path.read_text(encoding="utf-8")
        sources[path] = source
        try:
            modules.append(extract_module_facts(source, path))
        except SyntaxError as exc:
            parse_errors.append(
                FlowFinding(
                    path=path,
                    line=exc.lineno or 1,
                    col=(exc.offset or 0) or 1,
                    rule_id=PARSE_ERROR_RULE,
                    message=f"cannot parse file: {exc.msg}",
                )
            )
    program = Program(modules)
    findings = evaluate(program) + parse_errors
    kept: list[FlowFinding] = []
    for finding in findings:
        noqa = _noqa_map(sources.get(finding.path, ""))
        if not _suppressed(finding, noqa):
            kept.append(finding)
    return FlowReport(
        findings=sorted(set(kept)),
        files=len(files),
        functions=len(program.functions),
    )
