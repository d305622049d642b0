"""The deterministic benchmark runner.

Measures each scenario as: one-off ``build`` (untimed), ``warmup``
untimed repetitions, then ``repeats`` timed repetitions.  Wall-clock is
summarized as median + interquartile range — the paper-standard robust
pair for noisy timers — alongside simulated-seconds-per-wall-second
(how much cluster time one host second buys), events/sec (event-loop
throughput), and the process's peak RSS.

Every repetition must return identical :class:`ScenarioStats`; a
mismatch means the scenario (or the engine underneath it) is
nondeterministic, and the runner fails loudly instead of averaging over
the bug.
"""

from __future__ import annotations

import statistics
import time
import typing as _t

from repro.errors import BenchmarkError
from repro.harness import ExperimentRunner
from repro.perf.scenarios import Scenario, ScenarioStats, get_scenario
from repro.perf.store import BenchRun, ScenarioRecord

DEFAULT_REPEATS = 5
DEFAULT_WARMUP = 1


def _peak_rss_kb() -> float:
    """Peak resident set size of this process, in KiB (0.0 if unknown)."""
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX host
        return 0.0
    usage = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # Linux reports KiB; macOS reports bytes.
    return float(usage) / (1024.0 if usage > 1 << 30 else 1.0)


def _summarize(walls: _t.Sequence[float]) -> tuple[float, float]:
    """(median, interquartile range) of the timed repetitions."""
    median = statistics.median(walls)
    if len(walls) < 2:
        return median, 0.0
    quartiles = statistics.quantiles(walls, n=4, method="inclusive")
    return median, quartiles[2] - quartiles[0]


def measure_scenario(
    scenario: Scenario | str,
    runner: ExperimentRunner | None = None,
    repeats: int = DEFAULT_REPEATS,
    warmup: int = DEFAULT_WARMUP,
) -> ScenarioRecord:
    """Measure one scenario; raises on nondeterministic repetitions."""
    if isinstance(scenario, str):
        scenario = get_scenario(scenario)
    if repeats < 1:
        raise BenchmarkError(f"need at least one repeat: {repeats}")
    if warmup < 0:
        raise BenchmarkError(f"warmup must be >= 0: {warmup}")
    run_once = scenario.build(runner or ExperimentRunner())
    for _ in range(warmup):
        run_once()

    walls: list[float] = []
    stats: ScenarioStats | None = None
    for repeat in range(repeats):
        begin = time.perf_counter()
        observed = run_once()
        walls.append(time.perf_counter() - begin)
        if stats is None:
            stats = observed
        elif observed != stats:
            raise BenchmarkError(
                f"scenario {scenario.name!r} is nondeterministic: "
                f"repeat {repeat} produced {observed}, expected {stats}"
            )
    assert stats is not None
    median, iqr = _summarize(walls)
    return ScenarioRecord(
        name=scenario.name,
        # The store keeps the field so older macro/micro runs load.
        kind="macro",
        repeats=repeats,
        warmup=warmup,
        wall_seconds=tuple(walls),
        wall_seconds_median=median,
        wall_seconds_iqr=iqr,
        simulated_seconds=stats.simulated_seconds,
        events=stats.events,
        sim_seconds_per_wall_second=(
            stats.simulated_seconds / median if median > 0 else 0.0
        ),
        events_per_second=stats.events / median if median > 0 else 0.0,
        peak_rss_kb=_peak_rss_kb(),
    )


def run_benchmarks(
    names: _t.Sequence[str],
    label: str,
    repeats: int = DEFAULT_REPEATS,
    warmup: int = DEFAULT_WARMUP,
) -> BenchRun:
    """Measure ``names`` in order, serially, as one labelled run."""
    if not names:
        raise BenchmarkError("no scenarios selected")
    for name in names:
        get_scenario(name)  # fail fast before measuring anything
    # One runner serves every scenario, so they share its caches.
    runner = ExperimentRunner()
    records = tuple(
        measure_scenario(name, runner, repeats=repeats, warmup=warmup)
        for name in names
    )
    return BenchRun(label=label, records=records)
