"""Report rendering for ``repro analyze --flow``.

Exit codes match the per-file linter's:

* ``0`` — no findings;
* ``1`` — at least one finding;
* ``2`` — usage error (still rendered in the requested format, so JSON
  consumers never receive bare text).
"""

from __future__ import annotations

import json
import typing as _t

from repro.analysis.flow.engine import FlowReport, analyze_paths
from repro.analysis.linter import format_error


def _format_text(report: FlowReport) -> str:
    lines = [finding.render() for finding in report.findings]
    count = len(report.findings)
    lines.append(
        f"{count} finding{'s' if count != 1 else ''} across "
        f"{report.files} files / {report.functions} functions"
    )
    return "\n".join(lines)


def _format_json(report: FlowReport) -> str:
    return json.dumps(
        {
            "findings": [finding.to_dict() for finding in report.findings],
            "count": len(report.findings),
            "files": report.files,
            "functions": report.functions,
        },
        indent=2,
        sort_keys=True,
    )


def run_flow(
    paths: _t.Sequence[str], output_format: str = "text"
) -> tuple[str, int]:
    """Run the flow analysis; return (report text, exit code)."""
    try:
        report = analyze_paths(paths)
    except (OSError, UnicodeDecodeError) as exc:
        return format_error(str(exc), output_format), 2
    if output_format == "json":
        text = _format_json(report)
    else:
        text = _format_text(report)
    return text, 1 if report.findings else 0
