"""Unified experiment running: one entry point per runtime kind.

The harness's job is to make every figure's comparison apples-to-apples:

* all runtimes see the same model, batch, worker count and straggler
  pattern (straggler injectors are deterministic per seed+iteration);
* Fela always runs its two-phase tuned configuration, found once per
  (model, batch, workers, cluster) and cached — exactly the paper's
  warm-up protocol;
* every run starts on a fresh simulated cluster.

All simulation results flow through one :class:`~repro.exec.ResultCache`
(memory-only by default; persistent when constructed with a directory)
and one :class:`~repro.exec.SweepExecutor`, so tunings and runs are
cached content-addressed and independent runs can fan out over a
process pool (``jobs > 1``) while staying byte-identical to serial
execution.
"""

from __future__ import annotations

import dataclasses
import typing as _t

from repro.core import FelaConfig
from repro.errors import ConfigurationError
from repro.hardware import ClusterSpec
from repro.metrics import RunResult
from repro.models import ModelGraph, get_model
from repro.partition import Partition, bin_partition, paper_partition
from repro.stragglers import NoStraggler, StragglerInjector
from repro.tuning import PHASE1_EXHAUSTIVE, ConfigurationTuner, TuningResult

if _t.TYPE_CHECKING:  # pragma: no cover - type-only imports
    from repro.exec import ResultCache, RunJob, SweepExecutor

RUNTIME_KINDS: tuple[str, ...] = ("fela", "dp", "mp", "hp")

#: Iterations used when profiling tuning cases inside the harness.
TUNING_PROFILE_ITERATIONS: int = 3


@dataclasses.dataclass(frozen=True)
class ExperimentSpec:
    """One workload: model + batch + cluster size + duration."""

    model_name: str
    total_batch: int
    num_workers: int = 8
    iterations: int = 100
    cluster_spec: ClusterSpec | None = None

    def resolved_cluster_spec(self) -> ClusterSpec:
        return self.cluster_spec or ClusterSpec(num_nodes=self.num_workers)


@dataclasses.dataclass(frozen=True)
class RunRequest:
    """One run of :meth:`ExperimentRunner.run_many`'s fan-out."""

    kind: str
    spec: ExperimentSpec
    straggler: StragglerInjector | None = None
    overrides: tuple[tuple[str, _t.Any], ...] = ()


class ExperimentRunner:
    """Runs runtimes against specs, caching models/partitions/results.

    ``cache`` is the shared result cache (a fresh memory-only
    :class:`~repro.exec.ResultCache` when omitted); ``jobs`` fans
    independent simulations out over a process pool.  Passing a
    pre-built ``executor`` overrides both.
    """

    def __init__(
        self,
        cache: ResultCache | None = None,
        jobs: int = 1,
        executor: SweepExecutor | None = None,
    ) -> None:
        self._models: dict[str, ModelGraph] = {}
        self._partitions: dict[str, Partition] = {}
        # The sweep engine is built on first use, so a runner that only
        # builds models and partitions never imports ``repro.exec``.
        self._cache = cache if executor is None else executor.cache
        self._jobs = jobs
        self._executor = executor

    @property
    def cache(self) -> ResultCache:
        if self._cache is None:
            from repro.exec import ResultCache

            self._cache = ResultCache()
        return self._cache

    @property
    def executor(self) -> SweepExecutor:
        if self._executor is None:
            from repro.exec import SweepExecutor

            self._executor = SweepExecutor(jobs=self._jobs, cache=self.cache)
        elif self._executor.cache is None:
            self._executor.cache = self.cache
        return self._executor

    # -- cached building blocks ---------------------------------------------

    def model(self, name: str) -> ModelGraph:
        if name not in self._models:
            self._models[name] = get_model(name)
        return self._models[name]

    def partition(self, model_name: str) -> Partition:
        """The paper's partition when published, else the bin partition."""
        if model_name not in self._partitions:
            model = self.model(model_name)
            try:
                self._partitions[model_name] = paper_partition(model)
            except Exception:
                self._partitions[model_name] = bin_partition(model)
        return self._partitions[model_name]

    def tuning(self, spec: ExperimentSpec) -> TuningResult:
        """Two-phase tuned configuration for a workload (cached).

        The whole :class:`TuningResult` is cached content-addressed
        (partition + batch + workers + cluster + profile depth), so a
        persistent cache skips not just the case simulations but the
        search itself on reruns.
        """
        from repro.exec import (
            canonical_key,
            decode_tuning_result,
            describe_cluster,
            describe_partition,
            encode_tuning_result,
        )

        partition = self.partition(spec.model_name)
        cluster_spec = spec.resolved_cluster_spec()
        key = canonical_key(
            "tuning-result",
            {
                "partition": describe_partition(partition),
                "total_batch": spec.total_batch,
                "num_workers": spec.num_workers,
                "cluster": describe_cluster(cluster_spec),
                "profile_iterations": TUNING_PROFILE_ITERATIONS,
                "phase1": PHASE1_EXHAUSTIVE,
            },
        )
        cached = self.cache.get(key, decode=decode_tuning_result)
        if cached is not None:
            return cached
        tuner = ConfigurationTuner(
            partition,
            spec.total_batch,
            spec.num_workers,
            cluster_spec=cluster_spec,
            profile_iterations=TUNING_PROFILE_ITERATIONS,
            executor=self.executor,
        )
        result = tuner.tune()
        self.cache.put(key, result, encode=encode_tuning_result)
        return result

    # -- running ------------------------------------------------------------------

    def fela_config(self, spec: ExperimentSpec) -> FelaConfig:
        tuning = self.tuning(spec)
        return FelaConfig(
            partition=self.partition(spec.model_name),
            total_batch=spec.total_batch,
            num_workers=spec.num_workers,
            weights=tuning.best_weights,
            conditional_subset_size=tuning.best_subset_size,
            iterations=spec.iterations,
        )

    def _run_job(self, request: RunRequest) -> RunJob:
        """Resolve a request into a self-contained, picklable job.

        Tuning (for ``fela``) and kind validation happen here, in the
        parent process, so pool workers only ever simulate.
        """
        from repro.exec import RunJob

        spec = request.spec
        straggler = request.straggler or NoStraggler()
        config: FelaConfig | None = None
        if request.kind == "fela":
            config = self.fela_config(spec)
            if request.overrides:
                # Apply atomically: interdependent fields (e.g. sync_mode
                # + staleness) must be validated together.
                config = config.replace(**dict(request.overrides))
        elif request.kind not in ("dp", "mp", "hp", "proactive"):
            raise ConfigurationError(
                f"unknown runtime kind {request.kind!r}; expected one of "
                f"{RUNTIME_KINDS}"
            )
        return RunJob(
            kind=request.kind,
            model_name=spec.model_name,
            total_batch=spec.total_batch,
            num_workers=spec.num_workers,
            iterations=spec.iterations,
            cluster_spec=spec.resolved_cluster_spec(),
            straggler=straggler,
            config=config,
            overrides=(
                () if request.kind == "fela" else tuple(request.overrides)
            ),
        )

    def run_many(
        self, requests: _t.Sequence[RunRequest]
    ) -> list[RunResult]:
        """Run many independent workloads through the sweep executor.

        Results come back in request order and are byte-identical to
        running each request serially via :meth:`run`.
        """
        return self.executor.map(
            [self._run_job(request) for request in requests]
        )

    def run(
        self,
        kind: str,
        spec: ExperimentSpec,
        straggler: StragglerInjector | None = None,
        tracer: _t.Any | None = None,
        faults: _t.Any | None = None,
        invariants: _t.Any | None = None,
        sampler: _t.Any | None = None,
        **overrides: _t.Any,
    ) -> RunResult:
        """Run one runtime kind against a spec and return its result.

        ``tracer`` (a :class:`~repro.obs.tracer.Tracer`) records the
        run's trace events; ``faults`` (a
        :class:`~repro.faults.controller.FaultController`) injects
        failures and elastic membership; ``invariants`` (an
        :class:`~repro.analysis.invariants.InvariantChecker`) validates
        token conservation; ``sampler`` (a
        :class:`~repro.obs.timeseries.Sampler`) snapshots gauge
        time-series at a fixed sim-second interval.  Only the Fela
        runtime supports any of them, so passing one with a baseline
        kind is a configuration error.  Attached runs execute
        in-process and bypass the result cache — their side channels
        (trace events, fault controllers, sample streams) live outside
        the cached :class:`RunResult`, whose ``stats`` carry the run's
        totals either way.
        """
        straggler = straggler or NoStraggler()
        if (
            tracer is None
            and faults is None
            and invariants is None
            and sampler is None
        ):
            request = RunRequest(
                kind=kind,
                spec=spec,
                straggler=straggler,
                overrides=tuple(sorted(overrides.items())),
            )
            return self.run_many([request])[0]

        from repro.core import FelaRuntime
        from repro.hardware import Cluster

        cluster_spec = spec.resolved_cluster_spec()
        if kind == "fela" and faults is not None:
            # Planned joins need spare machines to land on.
            joins = faults.injector.planned_joins
            if joins > 0:
                factors = cluster_spec.gpu_speed_factors
                if factors is not None:
                    factors = factors + (1.0,) * joins
                cluster_spec = dataclasses.replace(
                    cluster_spec,
                    num_nodes=cluster_spec.num_nodes + joins,
                    gpu_speed_factors=factors,
                )
        if kind != "fela":
            raise ConfigurationError(
                f"tracing/faults/invariants/sampling are only "
                f"supported for the 'fela' runtime, not {kind!r}"
            )
        cluster = Cluster(cluster_spec)
        config = self.fela_config(spec)
        if overrides:
            # Apply atomically: interdependent fields (e.g. sync_mode
            # + staleness) must be validated together.
            config = config.replace(**overrides)
        return FelaRuntime(
            config,
            cluster,
            straggler=straggler,
            tracer=tracer,
            faults=faults,
            invariants=invariants,
            sampler=sampler,
        ).run()

    def run_all(
        self,
        spec: ExperimentSpec,
        straggler: StragglerInjector | None = None,
        kinds: _t.Sequence[str] = RUNTIME_KINDS,
    ) -> dict[str, RunResult]:
        """Run every runtime kind against the same workload."""
        results = self.run_many(
            [RunRequest(kind=kind, spec=spec, straggler=straggler)
             for kind in kinds]
        )
        return dict(zip(kinds, results))
