"""The benchmark scenarios: the four north-star workloads.

A *scenario* is a named, fully deterministic workload.  ``build()``
performs the expensive one-off setup (model construction, two-phase
tuning) and returns a zero-argument ``run_once`` callable; the runner
times ``run_once`` alone, so measurements capture the engine, not the
warm-up.  Every ``run_once`` builds a fresh simulation (environment,
cluster, tuner), which is why repeats of a scenario are bit-identical
— the determinism check in :mod:`repro.perf.runner` relies on it.

The scenarios are the shapes of the external benchmark's workloads: the
tuned 8-worker vgg19 run, the 1000-worker scale run, the 100-job shared
pool and the cold successive-halving tune.
"""

from __future__ import annotations

import dataclasses
import math
import typing as _t

from repro.errors import BenchmarkError
from repro.hardware import Cluster, ClusterSpec
from repro.harness import ExperimentRunner, ExperimentSpec


@dataclasses.dataclass(frozen=True)
class ScenarioStats:
    """What one scenario repetition produced (must not vary across reps)."""

    #: Final simulation clock of the run (summed over a tune's cases).
    simulated_seconds: float
    #: Events scheduled on the simulation environment(s) of the run.
    events: int


RunOnce = _t.Callable[[], ScenarioStats]


@dataclasses.dataclass(frozen=True)
class Scenario:
    """One benchmark scenario."""

    name: str
    description: str
    _builder: _t.Callable[[ExperimentRunner], RunOnce]

    def build(self, runner: ExperimentRunner) -> RunOnce:
        """One-off setup; returns the repeatable timed body."""
        return self._builder(runner)


def _vgg19_fela(runner: ExperimentRunner) -> RunOnce:
    from repro.core import FelaRuntime

    config = runner.fela_config(ExperimentSpec("vgg19", 256, iterations=12))

    def run_once() -> ScenarioStats:
        cluster = Cluster(ClusterSpec(num_nodes=config.num_workers))
        result = FelaRuntime(config, cluster).run()
        return ScenarioStats(
            simulated_seconds=result.total_time,
            events=cluster.env.scheduled_events,
        )

    return run_once


def _fela_1000workers(runner: ExperimentRunner) -> RunOnce:
    from repro.core import FelaConfig, FelaRuntime
    from repro.partition.submodel import Partition, SubModel

    # A two-level re-cut of the tuned vgg19 partition: three levels at
    # this worker count overlap three concurrent level syncs, bridging
    # the fabric into one ~2000-flow component whose max-min solve
    # dominates the host time without measuring anything new.  Two
    # levels keep the token-generation pipeline (ratios, level sync)
    # while components stay group-local.
    full = runner.partition("vgg19")
    rest = tuple(
        layer for submodel in list(full)[1:] for layer in submodel.layers
    )
    partition = Partition(
        model=full.model,
        submodels=(
            SubModel(
                index=0,
                layers=full[0].layers,
                threshold_batch=full[0].threshold_batch,
            ),
            SubModel(
                index=1, layers=rest, threshold_batch=full[1].threshold_batch
            ),
        ),
    )

    def run_once() -> ScenarioStats:
        cluster = Cluster(ClusterSpec(num_nodes=1000))
        config = FelaConfig(
            partition=partition,
            total_batch=4000,
            num_workers=1000,
            weights=(1, 2),
            conditional_subset_size=128,
            iterations=1,
            collective="hierarchical",
        )
        result = FelaRuntime(config, cluster).run()
        return ScenarioStats(
            simulated_seconds=result.total_time,
            events=cluster.env.scheduled_events,
        )

    return run_once


def _cluster_100jobs(_runner: ExperimentRunner) -> RunOnce:
    from repro.cluster import ClusterSimulator, TraceSpec, generate_trace

    # Trace generation is cheap but stays outside the timer anyway so
    # the measurement is pure simulator work.
    trace = generate_trace(
        TraceSpec(kind="poisson", num_jobs=100, seed=11,
                  mean_interarrival=12.0)
    )

    def run_once() -> ScenarioStats:
        result = ClusterSimulator(trace, "elastic", pool_size=32).run()
        return ScenarioStats(
            simulated_seconds=result.makespan,
            events=result.events_scheduled,
        )

    return run_once


def _tune_vgg19(runner: ExperimentRunner) -> RunOnce:
    from repro.tuning import PHASE1_HALVING, ConfigurationTuner

    partition = runner.partition("vgg19")
    depth = 3

    def run_once() -> ScenarioStats:
        # A fresh tuner per repetition: serial, with no result cache.
        result = ConfigurationTuner(
            partition, total_batch=256, num_workers=8, profile_iterations=depth
        ).tune(phase1=PHASE1_HALVING)
        simulated = sum(
            depth * case.per_iteration_time
            for case in result.cases
            if not math.isinf(case.per_iteration_time)
        )
        return ScenarioStats(
            simulated_seconds=simulated, events=result.warmup_iterations
        )

    return run_once


#: Every scenario ``repro bench`` can measure, by name.
SCENARIOS: dict[str, Scenario] = {
    scenario.name: scenario
    for scenario in (
        Scenario(
            "macro.vgg19_fela",
            "tuned Fela BSP run: vgg19, batch 256, 8 workers, 12 iterations",
            _vgg19_fela,
        ),
        Scenario(
            "macro.fela_1000workers",
            "Fela at scale: 1000 workers, two-level vgg19 partition, "
            "hierarchical gradient sync, one iteration (restricted "
            "fabric solves over group-local components)",
            _fela_1000workers,
        ),
        Scenario(
            "macro.cluster_100jobs",
            "multi-tenant cluster service: 100-job Poisson trace scheduled "
            "elastically onto one 32-GPU pool (admission, membership-driven "
            "resizes, many runtimes on one shared clock)",
            _cluster_100jobs,
        ),
        Scenario(
            "macro.tune_vgg19",
            "cold successive-halving two-phase tune of vgg19, batch 256, "
            "8 workers, depth 3 (serial, no result cache; events counts "
            "the simulated warm-up iterations)",
            _tune_vgg19,
        ),
    )
}


def scenarios() -> list[Scenario]:
    """All scenarios, name-sorted."""
    return [SCENARIOS[name] for name in scenario_names()]


def scenario_names() -> list[str]:
    return sorted(SCENARIOS)


def get_scenario(name: str) -> Scenario:
    scenario = SCENARIOS.get(name)
    if scenario is None:
        raise BenchmarkError(
            f"unknown scenario {name!r}; known: {', '.join(scenario_names())}"
        )
    return scenario
