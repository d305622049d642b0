"""The analysis driver: file walking, noqa, reporting.

Usage (through the package CLI, :mod:`repro.cli`)::

    python -m repro analyze src tests benchmarks examples
    python -m repro analyze src --format json
    python -m repro analyze --list-rules

:func:`analyze_paths` expands paths into files, extracts each file's
facts from its one parse, assembles the whole-program model, evaluates
every rule, and drops findings on a line carrying ``# repro: noqa``
(suppress everything) or ``# repro: noqa-FELA001`` /
``# repro: noqa-FELA001,FELA004`` (suppress the listed rules).  Exit
codes: 0 clean, 1 findings, 2 usage error (rendered in the requested
format, so JSON consumers never receive bare text).
"""

from __future__ import annotations

import dataclasses
import json
import pathlib
import re
import typing as _t

from repro.analysis.callgraph import Program
from repro.analysis.facts import ModuleFacts, extract_module_facts
from repro.analysis.rules import PARSE_ERROR_RULE, RULES, Finding, evaluate
from repro.errors import AnalysisError

_NOQA_RE = re.compile(
    r"#\s*repro:\s*noqa(?:-(?P<rules>[A-Z]+\d+(?:\s*,\s*[A-Z]+\d+)*))?",
)

#: Directory names never descended into.
_SKIP_DIRS = frozenset(
    {"__pycache__", ".git", ".venv", "venv", "node_modules", ".eggs"}
)


@dataclasses.dataclass
class Report:
    """Everything one analysis run produced."""

    findings: list[Finding]
    files: int
    functions: int


def _noqa_map(source: str) -> dict[int, frozenset[str] | None]:
    """Line -> suppressed rule ids (``None`` means "all rules")."""
    suppressions: dict[int, frozenset[str] | None] = {}
    for lineno, line in enumerate(source.splitlines(), start=1):
        match = _NOQA_RE.search(line)
        if not match:
            continue
        rules = match.group("rules")
        if rules is None:
            suppressions[lineno] = None
        else:
            suppressions[lineno] = frozenset(
                rule.strip() for rule in rules.split(",")
            )
    return suppressions


def iter_python_files(
    paths: _t.Iterable[str | pathlib.Path],
) -> list[pathlib.Path]:
    """Expand files/directories into a sorted list of ``.py`` files."""
    files: set[pathlib.Path] = set()
    for raw in paths:
        path = pathlib.Path(raw)
        if not path.exists():
            raise AnalysisError(f"no such file or directory: {path}")
        if path.is_dir():
            for candidate in path.rglob("*.py"):
                if not _SKIP_DIRS.intersection(candidate.parts):
                    files.add(candidate)
        else:
            files.add(path)
    return sorted(files)


def analyze_sources(sources: _t.Mapping[str, str]) -> Report:
    """Analyze file texts keyed by path.  The path drives rule scoping,
    so synthetic paths like ``src/repro/sim/x.py`` work for tests."""
    modules: list[ModuleFacts] = []
    findings: list[Finding] = []
    for path, source in sources.items():
        try:
            modules.append(extract_module_facts(source, path))
        except SyntaxError as exc:
            findings.append(
                Finding(
                    path=path,
                    line=exc.lineno or 1,
                    col=(exc.offset or 0) or 1,
                    rule_id=PARSE_ERROR_RULE,
                    message=f"cannot parse file: {exc.msg}",
                )
            )
    program = Program(modules)
    noqa: dict[str, dict[int, frozenset[str] | None]] = {}
    kept: list[Finding] = []
    for finding in findings + evaluate(program):
        if finding.path not in noqa:
            noqa[finding.path] = _noqa_map(sources[finding.path])
        rules = noqa[finding.path].get(finding.line, frozenset())
        if rules is not None and finding.rule_id not in rules:
            kept.append(finding)
    return Report(
        findings=sorted(set(kept)),
        files=len(sources),
        functions=len(program.definitions),
    )


def analyze_paths(paths: _t.Iterable[str | pathlib.Path]) -> Report:
    """Analyze files and directories (raises :class:`AnalysisError` for
    a missing path or a file that is not UTF-8 text)."""
    sources: dict[str, str] = {}
    for file_path in iter_python_files(paths):
        try:
            sources[str(file_path)] = file_path.read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            raise AnalysisError(f"cannot read {file_path}: {exc}") from exc
    return analyze_sources(sources)


# -- reporting --------------------------------------------------------------


def format_report(report: Report, output_format: str = "text") -> str:
    count = len(report.findings)
    if output_format == "json":
        return json.dumps(
            {
                "findings": [f.to_dict() for f in report.findings],
                "count": count,
                "files": report.files,
                "functions": report.functions,
            },
            indent=2,
            sort_keys=True,
        )
    lines = [finding.render() for finding in report.findings]
    lines.append(
        f"{count} finding{'s' if count != 1 else ''} across "
        f"{report.files} files / {report.functions} functions"
    )
    return "\n".join(lines)


def format_error(message: str, output_format: str) -> str:
    """A usage error in the shape the chosen format promises."""
    if output_format == "json":
        return json.dumps(
            {"error": message, "findings": [], "count": 0},
            indent=2,
            sort_keys=True,
        )
    return f"error: {message}"


def format_rules() -> str:
    return "\n".join(f"{rule_id}  {RULES[rule_id]}" for rule_id in RULES)


def run_analyze(
    paths: _t.Sequence[str], output_format: str = "text"
) -> tuple[str, int]:
    """Analyze ``paths``; return (report, exit_code)."""
    try:
        report = analyze_paths(paths)
    except AnalysisError as exc:
        return format_error(str(exc), output_format), 2
    return (
        format_report(report, output_format),
        1 if report.findings else 0,
    )
