"""The two-phase runtime configuration tuner (paper Section IV-B).

Phase 1 — *parallelism degree tuning*: profile the mean per-iteration time
of every candidate weight sequence (CTD disabled, i.e. subset = N) for a
few warm-up iterations and keep the fastest.

Phase 2 — *conditional subset tuning*: with the winning weights fixed,
halve the conditional subset size (N, N/2, ..., 1) and keep the fastest.

On the paper's setup (M = 3, N = 8) this is 10 + 4 - 1 = 13 cases at 5
iterations each: 65 warm-up iterations, trivial against real training
jobs.  The tuner reports the same diagnostics the paper plots in Fig. 6:
normalized per-case times and the best-vs-worst gaps per phase.

Two accelerations compose with the exhaustive search:

* **Fan-out** — Phase 2 and exhaustive Phase 1 cases are independent
  seeded simulations, so they run through a
  :class:`~repro.exec.SweepExecutor` (process-pool parallel and/or
  served from the persistent result cache) when one is supplied.
* **Successive halving** (``tune(phase1="halving")``) — profile every
  Phase-1 candidate at 1 iteration, keep the fastest half, double the
  depth, repeat; finalists are measured at the full profile depth.
  Under BSP each candidate is one live :class:`~repro.core.FelaRuntime`
  that every rung *advances* in place: the first k iterations of a
  deeper BSP run are bit-for-bit a fresh k-iteration run, so resuming
  gives the same times as restarting while simulating each iteration
  once (27 iterations instead of 38 for vgg19 at N = 8, depth 3).
  SSP and ASP runs are not prefix-stable (a later iteration's traffic
  overlaps earlier syncs), so their rungs re-simulate from t = 0
  through the executor.  Because the simulator is deterministic and
  per-iteration times are stable in iteration count, the surviving
  winner matches exhaustive search (a property the test suite asserts
  over the whole model zoo) while simulating strictly fewer warm-up
  iterations.
"""

from __future__ import annotations

import dataclasses
import math
import time
import typing as _t

from repro.core import FelaConfig, FelaRuntime, SyncMode
from repro.errors import CapacityError, TokenCountError, TuningError
from repro.hardware import Cluster, ClusterSpec
from repro.partition import Partition
from repro.stragglers import StragglerInjector
from repro.tuning.search import (
    enumerate_weight_candidates,
    normalize_times,
    subset_size_candidates,
)

#: Iterations measured per configuration case (the paper uses 5).
DEFAULT_PROFILE_ITERATIONS: int = 5

#: Phase-1 search strategies accepted by :meth:`ConfigurationTuner.tune`.
PHASE1_EXHAUSTIVE = "exhaustive"
PHASE1_HALVING = "halving"


@dataclasses.dataclass(frozen=True)
class TuningCase:
    """One profiled configuration case."""

    index: int
    phase: int  # 1 or 2
    weights: tuple[int, ...]
    subset_size: int
    per_iteration_time: float


@dataclasses.dataclass(frozen=True)
class TuningResult:
    """Outcome of a full two-phase tuning run.

    ``cases`` always holds full-depth measurements only (under
    successive halving the pruned candidates never reach full depth, so
    they are not cases); the wall-clock diagnostics summarize the whole
    search including pruned shallow probes.
    """

    cases: tuple[TuningCase, ...]
    best_weights: tuple[int, ...]
    best_subset_size: int
    #: Iterations simulated across all cases (a resumed halving run
    #: counts each of its iterations once; an infeasible case, none).
    warmup_iterations: int
    #: Case measurements performed (shallow halving probes included).
    cases_profiled: int = 0
    #: Phase-1 candidates eliminated before full-depth profiling.
    cases_pruned: int = 0
    #: Measurements served by the result cache instead of simulated.
    cache_hits: int = 0
    #: Host wall-clock the search took.
    wall_seconds: float = 0.0

    @property
    def phase1_cases(self) -> list[TuningCase]:
        return [c for c in self.cases if c.phase == 1]

    @property
    def phase2_cases(self) -> list[TuningCase]:
        """Phase-2 cases plus the phase-1 winner they compete against."""
        best_p1 = min(
            self.phase1_cases, key=lambda c: c.per_iteration_time
        )
        return [best_p1] + [c for c in self.cases if c.phase == 2]

    @property
    def best_case(self) -> TuningCase:
        return min(self.cases, key=lambda c: c.per_iteration_time)

    def normalized_times(self) -> list[float]:
        """Fig. 6(a): per-case times normalized to ``(t - min) / max``."""
        return normalize_times([c.per_iteration_time for c in self.cases])

    @staticmethod
    def _gap(cases: _t.Sequence[TuningCase]) -> float:
        """Best-vs-worst saving fraction: ``(worst - best) / worst``.

        Infeasible (``inf``) cases are excluded: they are out-of-memory
        configurations, not slow ones.
        """
        times = [
            c.per_iteration_time
            for c in cases
            if c.per_iteration_time != float("inf")
        ]
        if not times:
            return 0.0
        worst, best = max(times), min(times)
        return (worst - best) / worst if worst > 0 else 0.0

    def phase1_gap(self) -> float:
        """Fig. 6(b): saving of the best Phase-1 case over the worst."""
        return self._gap(self.phase1_cases)

    def phase2_gap(self) -> float:
        """Fig. 6(b): saving among Phase-2 cases (incl. Phase-1 winner)."""
        return self._gap(self.phase2_cases)

    def overall_gap(self) -> float:
        """Fig. 6(b): saving of the best case over the worst, all phases."""
        return self._gap(self.cases)


def _built(times: _t.Sequence[float]) -> int:
    """Cases that simulated: an infeasible case (``CapacityError`` at
    construction) profiles as inf without running an iteration."""
    return sum(1 for case_time in times if not math.isinf(case_time))


class ConfigurationTuner:
    """Runs the two-phase search for one (model, batch, cluster) workload."""

    def __init__(
        self,
        partition: Partition,
        total_batch: int,
        num_workers: int,
        cluster_spec: ClusterSpec | None = None,
        straggler: StragglerInjector | None = None,
        profile_iterations: int = DEFAULT_PROFILE_ITERATIONS,
        base_config: FelaConfig | None = None,
        executor: _t.Any | None = None,
    ) -> None:
        if profile_iterations < 1:
            raise TuningError(
                f"profile iterations must be >= 1: {profile_iterations}"
            )
        self.partition = partition
        self.total_batch = total_batch
        self.num_workers = num_workers
        self.cluster_spec = cluster_spec or ClusterSpec(num_nodes=num_workers)
        self.straggler = straggler
        self.profile_iterations = profile_iterations
        self._base_config = base_config
        #: A :class:`repro.exec.SweepExecutor`; created lazily (serial,
        #: uncached) when the caller does not supply one.
        self._executor = executor

    # -- internals -------------------------------------------------------------

    def _config(
        self,
        weights: tuple[int, ...],
        subset_size: int,
        iterations: int | None = None,
    ) -> FelaConfig:
        iterations = (
            self.profile_iterations if iterations is None else iterations
        )
        if self._base_config is not None:
            return self._base_config.replace(
                weights=weights,
                conditional_subset_size=subset_size,
                iterations=iterations,
            )
        return FelaConfig(
            partition=self.partition,
            total_batch=self.total_batch,
            num_workers=self.num_workers,
            weights=weights,
            conditional_subset_size=subset_size,
            iterations=iterations,
        )

    def _batch_fits(self, weights: tuple[int, ...]) -> bool:
        """Whether ``weights`` leaves every level-1 token a sample.

        A large weight can round ``n_1`` above a small total batch (say
        6 samples on 6 workers with ``w_max = 4``).  ``(1, ..., 1)``
        always fits once the batch covers the workers, so dropping the
        rest still leaves a search.
        """
        try:
            self._config(weights, self.num_workers)
        except TokenCountError:
            return False
        return True

    def _ensure_executor(self) -> _t.Any:
        if self._executor is None:
            from repro.exec import SweepExecutor

            self._executor = SweepExecutor()
        return self._executor

    def _measure_batch(
        self,
        candidates: _t.Sequence[tuple[tuple[int, ...], int]],
        iterations: int,
    ) -> list[float]:
        """Per-iteration times for many (weights, subset) cases at once."""
        from repro.exec import TuningCaseJob

        jobs = [
            TuningCaseJob(
                config=self._config(weights, subset, iterations),
                cluster_spec=self.cluster_spec,
                straggler=self.straggler,
            )
            for weights, subset in candidates
        ]
        return self._ensure_executor().map(jobs)

    def measure(
        self, weights: tuple[int, ...], subset_size: int
    ) -> float:
        """Mean per-iteration time for one configuration case.

        Configurations whose token batches do not fit in GPU memory are
        infeasible, not errors: they profile as ``inf`` and lose the
        search (the paper's testbed would simply OOM on them).
        """
        return self._measure_batch(
            [(weights, subset_size)], self.profile_iterations
        )[0]

    # -- the two phases ------------------------------------------------------------

    def tune(self, phase1: str = PHASE1_EXHAUSTIVE) -> TuningResult:
        """Run Phase 1 then Phase 2; return all cases and the winner.

        ``phase1`` selects the Phase-1 strategy:
        :data:`PHASE1_EXHAUSTIVE` profiles every weight candidate at
        full depth; :data:`PHASE1_HALVING` prunes with successive
        halving (same winner, fewer simulated iterations).
        """
        if phase1 not in (PHASE1_EXHAUSTIVE, PHASE1_HALVING):
            raise TuningError(
                f"unknown phase-1 strategy {phase1!r}; expected "
                f"{PHASE1_EXHAUSTIVE!r} or {PHASE1_HALVING!r}"
            )
        executor = self._ensure_executor()
        hits_before = executor.cache_hits
        wall_begin = time.perf_counter()

        candidates = [
            weights
            for weights in enumerate_weight_candidates(
                len(self.partition), self.num_workers
            )
            if self._batch_fits(weights)
        ]
        cases: list[TuningCase] = []

        # Phase 1: parallelism degrees, CTD effectively off (subset = N).
        if phase1 == PHASE1_HALVING:
            survivors, times, profiled, warmup = self._halve(candidates)
        else:
            survivors = candidates
            times = self._measure_batch(
                [(weights, self.num_workers) for weights in survivors],
                self.profile_iterations,
            )
            profiled = len(survivors)
            warmup = _built(times) * self.profile_iterations
        for index, (weights, case_time) in enumerate(
            zip(survivors, times)
        ):
            cases.append(
                TuningCase(
                    index=index,
                    phase=1,
                    weights=weights,
                    subset_size=self.num_workers,
                    per_iteration_time=case_time,
                )
            )
        best_p1 = min(cases, key=lambda c: c.per_iteration_time)
        if best_p1.per_iteration_time == float("inf"):
            # Every parallelism degree OOMs: Phase 2 would only re-profile
            # doomed subsets of an infeasible winner.  Fail fast here.
            raise TuningError(
                "every configuration case is infeasible on this GPU"
            )

        # Phase 2: halve the conditional subset (N is already measured as
        # the Phase-1 winner, so only the strict subsets run).
        subsets = [
            subset
            for subset in subset_size_candidates(self.num_workers)
            if subset != self.num_workers
        ]
        times = self._measure_batch(
            [(best_p1.weights, subset) for subset in subsets],
            self.profile_iterations,
        )
        profiled += len(subsets)
        warmup += _built(times) * self.profile_iterations
        index = len(cases)
        for subset, case_time in zip(subsets, times):
            cases.append(
                TuningCase(
                    index=index,
                    phase=2,
                    weights=best_p1.weights,
                    subset_size=subset,
                    per_iteration_time=case_time,
                )
            )
            index += 1

        best = min(cases, key=lambda c: c.per_iteration_time)
        if best.per_iteration_time == float("inf"):
            raise TuningError(
                "every configuration case is infeasible on this GPU"
            )
        return TuningResult(
            cases=tuple(cases),
            best_weights=best.weights,
            best_subset_size=best.subset_size,
            warmup_iterations=warmup,
            cases_profiled=profiled,
            cases_pruned=len(candidates) - len(survivors),
            cache_hits=executor.cache_hits - hits_before,
            wall_seconds=time.perf_counter() - wall_begin,
        )

    def _halve(
        self, candidates: _t.Sequence[tuple[int, ...]]
    ) -> tuple[list[tuple[int, ...]], list[float], int, int]:
        """Successive-halving Phase 1: prune, then profile the finalists.

        Returns ``(finalists, full_depth_times, measurements,
        simulated_iterations)``.  Finalists keep candidate-enumeration
        order, so downstream case indices and tie-breaks stay
        deterministic.

        Under BSP each candidate is one live :class:`FelaRuntime`: every
        rung advances the survivors in place, finalists run on to full
        depth, and a pruned candidate's run is dropped.  SSP and ASP runs
        are not prefix-stable, so each rung re-simulates them from t = 0
        through the executor.
        """
        survivors = list(candidates)
        live = self._start_runs(survivors) if self._resumable() else None
        rung = 1
        done = 0  # iterations every live survivor has simulated
        profiled = 0
        warmup = 0
        while True:
            final = len(survivors) == 1 or rung >= self.profile_iterations
            depth = self.profile_iterations if final else rung
            if live is None:
                times = self._measure_batch(
                    [(weights, self.num_workers) for weights in survivors],
                    depth,
                )
                warmup += _built(times) * depth
            else:
                runs = [live[weights] for weights in survivors]
                times = [
                    math.inf if run is None else run.advance(depth)
                    for run in runs
                ]
                warmup += _built(times) * (depth - done)
                done = depth
            profiled += len(survivors)
            if final:
                return survivors, times, profiled, warmup
            keep = math.ceil(len(survivors) / 2)
            # Stable sort on (time, enumeration order): ties keep the
            # earlier candidate, exactly as exhaustive min() would.
            ranked = sorted(
                range(len(survivors)), key=lambda i: (times[i], i)
            )
            kept = sorted(ranked[:keep])
            if live is not None:
                for i in ranked[keep:]:
                    del live[survivors[i]]
            survivors = [survivors[i] for i in kept]
            rung = min(rung * 2, self.profile_iterations)

    def _resumable(self) -> bool:
        """Whether Phase-1 runs may be advanced instead of restarted:
        under BSP only (see :meth:`FelaRuntime.advance`)."""
        base = self._base_config
        return base is None or base.sync_mode == SyncMode.BSP

    def _start_runs(
        self, candidates: _t.Sequence[tuple[int, ...]]
    ) -> dict[tuple[int, ...], FelaRuntime | None]:
        """One full-depth run per candidate, ``None`` where it OOMs."""
        runs: dict[tuple[int, ...], FelaRuntime | None] = {}
        for weights in candidates:
            try:
                runs[weights] = FelaRuntime(
                    self._config(weights, self.num_workers),
                    Cluster(self.cluster_spec),
                    straggler=self.straggler,
                )
            except CapacityError:
                runs[weights] = None
        return runs

    def tuned_config(
        self, iterations: int = 100, result: TuningResult | None = None
    ) -> FelaConfig:
        """A production config using the tuned weights/subset."""
        result = result or self.tune()
        config = self._config(result.best_weights, result.best_subset_size)
        return config.replace(iterations=iterations)
