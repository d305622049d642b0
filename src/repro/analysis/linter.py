"""The lint driver: file walking, suppression, reporting.

Usage (through the package CLI, :mod:`repro.cli`)::

    python -m repro analyze src tests benchmarks
    python -m repro analyze src --format json
    python -m repro analyze src --select FELA001,FELA002
    python -m repro analyze --list-rules

A finding on a line carrying ``# repro: noqa`` (suppress everything) or
``# repro: noqa-FELA001`` / ``# repro: noqa-FELA001,FELA004`` (suppress
the listed rules) is dropped.  Exit codes: 0 clean, 1 violations found,
2 usage error.
"""

from __future__ import annotations

import ast
import json
import pathlib
import re
import typing as _t

from repro.analysis.rules import (
    LintContext,
    LintRule,
    Violation,
    all_rules,
    get_rule,
)

#: Rule id reserved for files the linter cannot parse.
PARSE_ERROR_RULE = "FELA000"

_NOQA_RE = re.compile(
    r"#\s*repro:\s*noqa(?:-(?P<rules>[A-Z]+\d+(?:\s*,\s*[A-Z]+\d+)*))?",
)

#: Directory names never descended into.
_SKIP_DIRS = frozenset(
    {"__pycache__", ".git", ".venv", "venv", "node_modules", ".eggs"}
)


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


def _suppressed(
    violation: Violation, noqa: dict[int, frozenset[str] | None]
) -> bool:
    if violation.line not in noqa:
        return False
    rules = noqa[violation.line]
    return rules is None or violation.rule_id in rules


def resolve_rules(select: str | None) -> tuple[LintRule, ...]:
    """The active rule set for a ``--select`` value (``None`` = all)."""
    if select is None:
        return all_rules()
    return tuple(
        get_rule(rule_id.strip())
        for rule_id in select.split(",")
        if rule_id.strip()
    )


def lint_source(
    source: str,
    path: str,
    rules: _t.Sequence[LintRule] | None = None,
) -> list[Violation]:
    """Lint one file's text.  ``path`` drives rule scoping, so synthetic
    paths like ``src/repro/sim/x.py`` work for tests."""
    active = tuple(rules) if rules is not None else all_rules()
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        return [
            Violation(
                path=path,
                line=exc.lineno or 1,
                col=(exc.offset or 0) or 1,
                rule_id=PARSE_ERROR_RULE,
                message=f"cannot parse file: {exc.msg}",
            )
        ]
    ctx = LintContext(path, tree)
    applicable = [rule for rule in active if rule.applies_to(ctx)]
    if not applicable:
        return []
    # One walk per file: dispatch each node to the rules that declared
    # interest in its type.
    dispatch: dict[type[ast.AST], list[LintRule]] = {}
    for rule in applicable:
        for node_type in rule.node_types:
            dispatch.setdefault(node_type, []).append(rule)
    violations: list[Violation] = []
    for node in ast.walk(tree):
        for rule in dispatch.get(type(node), ()):
            violations.extend(rule.check_node(node, ctx))
    noqa = _noqa_map(source)
    # set(): several rules can flag the same node identically (e.g. a
    # chained comparison matching FELA005 twice); report each site once.
    return sorted(
        {v for v in violations if not _suppressed(v, noqa)}
    )


def iter_python_files(
    paths: _t.Iterable[str | pathlib.Path],
) -> list[pathlib.Path]:
    """Expand files/directories into a sorted list of ``.py`` files."""
    files: set[pathlib.Path] = set()
    for raw in paths:
        path = pathlib.Path(raw)
        if not path.exists():
            raise FileNotFoundError(f"no such file or directory: {path}")
        if path.is_dir():
            for candidate in path.rglob("*.py"):
                if not _SKIP_DIRS.intersection(candidate.parts):
                    files.add(candidate)
        else:
            files.add(path)
    return sorted(files)


def lint_paths(
    paths: _t.Iterable[str | pathlib.Path],
    select: str | None = None,
) -> list[Violation]:
    """Lint files and directories; returns sorted violations."""
    rules = resolve_rules(select)
    violations: list[Violation] = []
    for path in iter_python_files(paths):
        violations.extend(
            lint_source(
                path.read_text(encoding="utf-8"), str(path), rules
            )
        )
    return sorted(violations)


# -- reporting --------------------------------------------------------------


def format_text(violations: _t.Sequence[Violation]) -> str:
    lines = [violation.render() for violation in violations]
    count = len(violations)
    lines.append(
        "no violations found"
        if count == 0
        else f"{count} violation{'s' if count != 1 else ''} found"
    )
    return "\n".join(lines)


def format_json(violations: _t.Sequence[Violation]) -> str:
    return json.dumps(
        {
            "violations": [v.to_dict() for v in violations],
            "count": len(violations),
        },
        indent=2,
        sort_keys=True,
    )


def format_error(message: str, output_format: str) -> str:
    """A usage error in the shape the chosen format promises.

    JSON consumers parse stdout/stderr either way, so an error must be
    a JSON document too.
    """
    if output_format == "json":
        return json.dumps(
            {"error": message, "violations": [], "count": 0},
            indent=2,
            sort_keys=True,
        )
    return f"error: {message}"


def format_rules() -> str:
    lines = []
    for rule in all_rules():
        lines.append(f"{rule.rule_id}  {rule.summary}")
    return "\n".join(lines)


def run_lint(
    paths: _t.Sequence[str],
    output_format: str = "text",
    select: str | None = None,
) -> tuple[str, int]:
    """Lint ``paths``; return (report, exit_code)."""
    try:
        violations = lint_paths(paths, select=select)
    except (FileNotFoundError, KeyError) as exc:
        return format_error(str(exc), output_format), 2
    if output_format == "json":
        report = format_json(violations)
    else:
        report = format_text(violations)
    return report, 1 if violations else 0

