"""Whole-program determinism analysis (the FELA1xx rule series).

Layered on the syntactic linter in :mod:`repro.analysis`: a per-file
fact extractor feeds a project-wide symbol table / call graph, and
flow-sensitive rules evaluate interprocedural taint over the result.
Run it with ``repro analyze --flow PATHS``.
"""

from repro.analysis.flow.engine import FlowReport, analyze_paths
from repro.analysis.flow.rules import FLOW_RULES, FlowFinding

__all__ = [
    "FLOW_RULES",
    "FlowFinding",
    "FlowReport",
    "analyze_paths",
]
