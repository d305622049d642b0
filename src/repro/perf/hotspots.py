"""cProfile-backed hotspot reports for benchmark scenarios.

``repro bench --profile`` runs each selected scenario once under
:mod:`cProfile` and prints the top-N functions by cumulative time, so
every optimization in this repo can point at the profile line that
motivated it.  The report is formatted from :class:`pstats.Stats`
directly (not via ``print_stats``) to keep column layout stable and the
function ordering deterministic: ties on cumulative time break on the
``file:line(function)`` label.
"""

from __future__ import annotations

import cProfile
import pstats

from repro.errors import BenchmarkError
from repro.harness import ExperimentRunner
from repro.perf.scenarios import Scenario, get_scenario

DEFAULT_TOP = 15


def _label(func: tuple[str, int, str]) -> str:
    filename, lineno, name = func
    if filename == "~":
        return f"<built-in {name}>"
    # Keep paths readable: trim everything before the package root.
    for marker in ("/repro/", "/tests/", "/benchmarks/"):
        index = filename.rfind(marker)
        if index >= 0:
            filename = filename[index + 1 :]
            break
    return f"{filename}:{lineno}({name})"


def profile_scenario(
    scenario: Scenario | str,
    runner: ExperimentRunner | None = None,
    top: int = DEFAULT_TOP,
) -> str:
    """Run ``scenario`` once under cProfile; return a top-N report."""
    if isinstance(scenario, str):
        scenario = get_scenario(scenario)
    if top < 1:
        raise BenchmarkError(f"hotspot report needs top >= 1: {top}")
    run_once = scenario.build(runner or ExperimentRunner())

    profiler = cProfile.Profile()
    profiler.enable()
    try:
        run_once()
    finally:
        profiler.disable()

    stats = pstats.Stats(profiler)
    total_time = stats.total_tt  # type: ignore[attr-defined]
    entries = []
    for func, (cc, nc, tottime, cumtime, _callers) in stats.stats.items():  # type: ignore[attr-defined]
        entries.append((cumtime, tottime, nc, cc, _label(func)))
    entries.sort(key=lambda entry: (-entry[0], entry[4]))

    lines = [
        f"hotspots for {scenario.name} "
        f"(total {total_time:.3f}s, top {top} by cumulative time)",
        f"{'cum s':>9}  {'self s':>9}  {'calls':>9}  function",
    ]
    for cumtime, tottime, ncalls, primcalls, label in entries[:top]:
        calls = (
            str(ncalls)
            if ncalls == primcalls
            else f"{ncalls}/{primcalls}"
        )
        lines.append(
            f"{cumtime:9.3f}  {tottime:9.3f}  {calls:>9}  {label}"
        )
    return "\n".join(lines)
