"""Static analysis and runtime invariant checking for the reproduction.

The trustworthiness of every figure this package reproduces rests on two
properties nothing else enforces mechanically:

* **determinism** — two runs with the same seed must produce identical
  timelines (the simulator is deterministic by construction, but one
  stray wall-clock read or unseeded RNG call silently breaks it);
* **token conservation** — every token minted by the Token Generator is
  distributed exactly once and completed exactly once; lost or
  duplicated work units would corrupt throughput numbers without
  crashing anything.

Two complementary halves:

* :mod:`repro.analysis.rules` / :mod:`repro.analysis.linter` — an
  AST-based lint pass (``repro analyze src``) with codebase-specific
  rules (FELA001..FELA006) and ``# repro: noqa-RULE`` suppression, plus
  the whole-program FELA1xx rules of :mod:`repro.analysis.flow`
  (``repro analyze --flow src``);
* :mod:`repro.analysis.invariants` — an opt-in runtime checker that
  :class:`~repro.core.runtime.FelaRuntime` puts on the tracer stream,
  raising a structured :class:`~repro.errors.InvariantViolation` on the
  first conservation, sync-accounting or monotonicity breach.
"""

from repro.analysis.invariants import InvariantChecker
from repro.analysis.linter import (
    Violation,
    format_json,
    format_text,
    lint_paths,
    lint_source,
)
from repro.analysis.rules import LintRule, all_rules, get_rule

__all__ = [
    "InvariantChecker",
    "LintRule",
    "Violation",
    "all_rules",
    "format_json",
    "format_text",
    "get_rule",
    "lint_paths",
    "lint_source",
]
