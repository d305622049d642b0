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

* :mod:`repro.analysis.engine` — a whole-program static analyzer
  (``repro analyze src``): one parse per file
  (:mod:`~repro.analysis.facts`) feeds the per-file FELA00x rules and
  the interprocedural FELA1xx rules (:mod:`~repro.analysis.rules`),
  with ``# repro: noqa-RULE`` suppression;
* :mod:`repro.analysis.invariants` — an opt-in runtime checker that
  :class:`~repro.core.runtime.FelaRuntime` puts on the tracer stream,
  raising a structured :class:`~repro.errors.InvariantViolation` on the
  first conservation, sync-accounting or monotonicity breach.
"""

import typing as _t

from repro._lazy import lazy_exports

if _t.TYPE_CHECKING:
    from repro.analysis.engine import Report, analyze_paths, analyze_sources
    from repro.analysis.invariants import InvariantChecker
    from repro.analysis.rules import RULES, Finding

__all__ = [
    "Finding",
    "InvariantChecker",
    "RULES",
    "Report",
    "analyze_paths",
    "analyze_sources",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.analysis.engine": (
            "Report", "analyze_paths", "analyze_sources",
        ),
        "repro.analysis.invariants": ("InvariantChecker",),
        "repro.analysis.rules": ("RULES", "Finding"),
    },
)
