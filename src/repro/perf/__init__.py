"""The performance lab: deterministic benchmarks and regression tracking.

Three parts, one measurement loop:

* :mod:`repro.perf.scenarios` — the four seeded north-star workloads
  (the tuned 8-worker vgg19 run, the 1000-worker run, the 100-job
  shared pool and the halving tune), each fully deterministic;
* :mod:`repro.perf.runner` — warmup + repeated wall-clock measurement
  producing median/IQR, simulated-seconds-per-wall-second, events/sec,
  and peak RSS for each scenario, with a rerun determinism check;
* :mod:`repro.perf.store` — the schema-versioned regression store
  behind ``BENCH_core.json`` and the comparator ``repro bench
  --compare`` uses to fail on regressions.

:mod:`repro.perf.hotspots` adds the cProfile-backed top-N report that
justifies every hot-path optimization with data.
"""

from repro.perf.hotspots import profile_scenario
from repro.perf.runner import measure_scenario, run_benchmarks
from repro.perf.scenarios import (
    Scenario,
    ScenarioStats,
    get_scenario,
    scenario_names,
    scenarios,
)
from repro.perf.store import (
    SCHEMA_VERSION,
    BenchRun,
    Comparison,
    ComparisonRow,
    ScenarioRecord,
    append_run,
    compare_runs,
    load_store,
    render_history,
    run_for_label,
    save_store,
    scenario_history,
)

__all__ = [
    "SCHEMA_VERSION",
    "BenchRun",
    "Comparison",
    "ComparisonRow",
    "Scenario",
    "ScenarioRecord",
    "ScenarioStats",
    "append_run",
    "compare_runs",
    "get_scenario",
    "load_store",
    "measure_scenario",
    "profile_scenario",
    "render_history",
    "run_benchmarks",
    "run_for_label",
    "save_store",
    "scenario_history",
    "scenario_names",
    "scenarios",
]
