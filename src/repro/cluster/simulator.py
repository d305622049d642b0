"""The cluster simulator: many Fela jobs, one pool, one virtual clock.

:class:`ClusterSimulator` is the multi-tenant driver.  It plays an
arrival trace into a shared :class:`~repro.sim.core.Environment`: each
submitted job waits in the queue until the scheduler's plan admits it,
then runs a full :class:`~repro.core.runtime.FelaRuntime` — its own
:class:`~repro.hardware.cluster.Cluster` (nodes, fabric) but the *shared*
clock — while a per-job :class:`~repro.cluster.director.ElasticDirector`
steers its worker count toward the scheduler's current target at every
iteration boundary, through the PR 3 join/drain machinery.

Scheduling is event-driven, not polled: the plan is recomputed exactly
when the job mix changes (arrival, worker release, job completion), and
directors read the latest plan at their own boundaries.  Everything is
deterministic — arrivals come from the seeded trace, jobs are iterated
in fixed submission/admission order, and no wall clock exists — so one
seed gives one bit-identical :class:`ClusterResult`, which is what lets
scheduler comparisons be pinned by tests.
"""

from __future__ import annotations

import dataclasses
import json
import typing as _t

from repro.cluster.director import ElasticDirector
from repro.cluster.pool import GpuPool
from repro.cluster.schedulers import CostProfile, Scheduler, get_scheduler
from repro.cluster.traces import JobSpec
from repro.core.config import FelaConfig
from repro.core.runtime import FelaRuntime
from repro.errors import ConfigurationError, PartitionError
from repro.faults.injector import FaultInjector, ProbabilisticCrashes
from repro.hardware import Cluster, ClusterSpec
from repro.models import get_model
from repro.obs.events import (
    CAT_CLUSTER,
    EV_JOB_FINISHED,
    EV_JOB_RESIZED,
    EV_JOB_STARTED,
    EV_JOB_SUBMITTED,
    TraceEvent,
)
from repro.partition import bin_partition, paper_partition
from repro.sim import Environment

if _t.TYPE_CHECKING:  # pragma: no cover - type-only imports
    from repro.metrics import RunResult
    from repro.partition import Partition

STATUS_PENDING = "pending"
STATUS_QUEUED = "queued"
STATUS_RUNNING = "running"
STATUS_DONE = "done"


class JobState:
    """Mutable per-job bookkeeping the simulator and schedulers share."""

    def __init__(self, spec: JobSpec, cost: CostProfile) -> None:
        self.spec = spec
        #: Analytic iteration-time model; schedulers bid with it.
        self.cost = cost
        self.status = STATUS_PENDING
        #: GPUs currently charged to this job (live + pending joins).
        self.held = 0
        #: Workers granted at admission (FIFO's permanent reservation).
        self.admitted_workers = 0
        self.initial_workers = 0
        self.final_workers = 0
        self.started_at: float | None = None
        self.finished_at: float | None = None
        #: ``(time, delta, held_after)`` per post-admission change.
        self.resizes: list[tuple[float, int, int]] = []
        self.runtime: FelaRuntime | None = None
        self.director: ElasticDirector | None = None
        self.result: "RunResult | None" = None
        self.done_event: _t.Any = None

    @property
    def job_id(self) -> int:
        return self.spec.job_id

    @property
    def queue_delay(self) -> float:
        assert self.started_at is not None
        return self.started_at - self.spec.submit_time

    @property
    def jct(self) -> float:
        """Job completion time: submission to final iteration."""
        assert self.finished_at is not None
        return self.finished_at - self.spec.submit_time

    def as_row(self) -> dict[str, _t.Any]:
        """The job's ``cluster_jobs`` ledger row (sans run id)."""
        faults: dict[str, _t.Any] | None = None
        if self.result is not None:
            summary = self.result.stats.get("faults")
            if summary is not None:
                faults = {
                    "failures": len(summary["failures"]),
                    "joined": len(summary["joined"]),
                    "left": len(summary["left"]),
                    "tokens_reclaimed": summary["tokens_reclaimed"],
                    "tokens_reminted": summary["tokens_reminted"],
                    "tokens_invalidated": summary["tokens_invalidated"],
                    "tokens_revoked": summary["tokens_revoked"],
                    "lost_compute_seconds": summary[
                        "lost_compute_seconds"
                    ],
                }
        return {
            "job_id": self.spec.job_id,
            "model": self.spec.model,
            "total_batch": self.spec.total_batch,
            "iterations": self.spec.iterations,
            "min_workers": self.spec.min_workers,
            "max_workers": self.spec.max_workers,
            "submit_time": self.spec.submit_time,
            "start_time": self.started_at,
            "finish_time": self.finished_at,
            "jct": self.jct,
            "queue_delay": self.queue_delay,
            "initial_workers": self.initial_workers,
            "final_workers": self.final_workers,
            "resize_count": len(self.resizes),
            "resizes": json.dumps(self.resizes),
            "faults": json.dumps(faults) if faults is not None else None,
        }


def _percentile(sorted_values: _t.Sequence[float], q: float) -> float:
    """Nearest-rank percentile of an ascending-sorted sequence."""
    if not sorted_values:
        return 0.0
    rank = max(1, -(-int(q * len(sorted_values) * 100) // 100))
    index = min(len(sorted_values) - 1, rank - 1)
    return sorted_values[index]


@dataclasses.dataclass(frozen=True)
class ClusterResult:
    """One scheduler's complete run over one trace."""

    scheduler: str
    scheduler_display: str
    pool_size: int
    jobs: tuple[dict[str, _t.Any], ...]
    makespan: float
    mean_utilization: float
    pool_timeline: tuple[tuple[float, int], ...]
    events: tuple[TraceEvent, ...]
    #: Simulation-engine events processed (perf-lab workload measure).
    events_scheduled: int

    @property
    def jcts(self) -> list[float]:
        return sorted(job["jct"] for job in self.jobs)

    @property
    def mean_jct(self) -> float:
        jcts = self.jcts
        return sum(jcts) / len(jcts) if jcts else 0.0

    @property
    def p50_jct(self) -> float:
        return _percentile(self.jcts, 0.50)

    @property
    def p99_jct(self) -> float:
        return _percentile(self.jcts, 0.99)

    @property
    def mean_queue_delay(self) -> float:
        delays = [job["queue_delay"] for job in self.jobs]
        return sum(delays) / len(delays) if delays else 0.0

    @property
    def total_resizes(self) -> int:
        return sum(job["resize_count"] for job in self.jobs)

    @property
    def lost_compute_seconds(self) -> float:
        total = 0.0
        for job in self.jobs:
            if job["faults"]:
                total += json.loads(job["faults"])["lost_compute_seconds"]
        return total

    def summary_row(self) -> dict[str, _t.Any]:
        """The run's ``cluster_runs`` ledger row (sans id/label/trace)."""
        return {
            "scheduler": self.scheduler,
            "pool_gpus": self.pool_size,
            "num_jobs": len(self.jobs),
            "makespan": self.makespan,
            "mean_jct": self.mean_jct,
            "p50_jct": self.p50_jct,
            "p99_jct": self.p99_jct,
            "mean_queue_delay": self.mean_queue_delay,
            "mean_utilization": self.mean_utilization,
            "total_resizes": self.total_resizes,
            "lost_compute_seconds": self.lost_compute_seconds,
            "pool_timeline": json.dumps(
                [[t, used] for t, used in self.pool_timeline]
            ),
        }


class ClusterSimulator:
    """Runs one arrival trace under one scheduler on one shared pool."""

    def __init__(
        self,
        trace: _t.Sequence[JobSpec],
        scheduler: Scheduler | str,
        pool_size: int,
        cluster_spec: ClusterSpec | None = None,
        crash_probability: float = 0.0,
        crash_seed: int = 0,
        node_headroom: int = 8,
        lease_timeout: float = 1.0,
    ) -> None:
        if not trace:
            raise ConfigurationError("trace has no jobs")
        if isinstance(scheduler, str):
            scheduler = get_scheduler(scheduler)
        self.scheduler = scheduler
        self.pool = GpuPool(pool_size)
        self.base_spec = cluster_spec or ClusterSpec()
        if not 0 <= crash_probability < 1:
            raise ConfigurationError(
                f"crash probability must be in [0, 1): {crash_probability}"
            )
        if node_headroom < 0:
            raise ConfigurationError(
                f"node headroom must be >= 0: {node_headroom}"
            )
        if not lease_timeout > 0:  # also rejects NaN
            raise ConfigurationError(
                f"lease timeout must be > 0: {lease_timeout}"
            )
        self.crash_probability = crash_probability
        self.crash_seed = crash_seed
        self.node_headroom = node_headroom
        self.lease_timeout = lease_timeout
        self._partitions: dict[str, "Partition"] = {}
        self._states = [
            JobState(spec, self._cost_profile(spec))
            for spec in sorted(
                trace, key=lambda s: (s.submit_time, s.job_id)
            )
        ]
        self._by_id = {state.job_id: state for state in self._states}
        if len(self._by_id) != len(self._states):
            raise ConfigurationError("trace has duplicate job ids")
        for state in self._states:
            if state.spec.min_workers > pool_size:
                raise ConfigurationError(
                    f"job {state.job_id} needs {state.spec.min_workers} "
                    f"workers but the pool only has {pool_size} GPUs"
                )
        #: Admission order (running jobs keep their slot until done).
        self._admitted: list[JobState] = []
        self._targets: dict[int, int] = {}
        self._events: list[TraceEvent] = []
        self._seq = 0
        self._env: Environment | None = None

    # -- cost model -----------------------------------------------------------

    def _partition(self, model_name: str) -> "Partition":
        partition = self._partitions.get(model_name)
        if partition is None:
            model = get_model(model_name)
            try:
                partition = paper_partition(model)
            except PartitionError:
                partition = bin_partition(model)
            self._partitions[model_name] = partition
        return partition

    def _cost_profile(self, spec: JobSpec) -> CostProfile:
        partition = self._partition(spec.model)
        reference = FelaConfig(
            partition,
            total_batch=spec.total_batch,
            num_workers=1,
            weights=(1,) * len(partition),
            iterations=1,
        )
        counts = reference.token_counts()
        batches = reference.token_batches()
        gpu = self.base_spec.gpu
        compute = sum(
            counts[level] * gpu.train_time(submodel.layers, batches[level])
            for level, submodel in enumerate(partition)
        )
        return CostProfile(
            compute_seconds=compute,
            level_param_bytes=[sm.param_bytes for sm in partition],
            bandwidth=self.base_spec.effective_bandwidth,
        )

    # -- the run --------------------------------------------------------------

    def run(self) -> ClusterResult:
        """Play the whole trace; returns when the last job finishes."""
        if self._env is not None:
            raise ConfigurationError("a simulator instance runs once")
        env = Environment()
        self._env = env
        for state in self._states:
            state.done_event = env.event()
        env.process(self._arrivals())
        env.run(env.all_of([s.done_event for s in self._states]))
        makespan = max(
            _t.cast(float, state.finished_at) for state in self._states
        )
        return ClusterResult(
            scheduler=self.scheduler.name,
            scheduler_display=self.scheduler.display_name,
            pool_size=self.pool.size,
            jobs=tuple(state.as_row() for state in self._states),
            makespan=makespan,
            mean_utilization=self.pool.mean_utilization(makespan),
            pool_timeline=tuple(self.pool.timeline),
            events=tuple(self._events),
            events_scheduled=env.scheduled_events,
        )

    def _arrivals(self) -> _t.Iterator[_t.Any]:
        env = self._env
        assert env is not None
        for state in self._states:
            delay = state.spec.submit_time - env.now
            if delay > 0:
                yield env.timeout(delay)
            state.status = STATUS_QUEUED
            self._emit(
                EV_JOB_SUBMITTED,
                state,
                {"model": state.spec.model},
            )
            self._reschedule()

    def _reschedule(self) -> None:
        """Recompute the plan; admit queued jobs the plan lets in."""
        running = [
            state
            for state in self._admitted
            if state.status == STATUS_RUNNING
        ]
        queued = [
            state
            for state in self._states
            if state.status == STATUS_QUEUED
        ]
        self._targets = self.scheduler.plan(
            self.pool.size, running, queued
        )
        for state in queued:
            target = self._targets.get(state.job_id, 0)
            if target < state.spec.min_workers:
                continue
            if self.scheduler.whole_allocation:
                # Whole allocation: wait until the full grant is free
                # (the plan reserves it; drains may lag the plan).
                if self.pool.free < target:
                    continue
                start_n = target
            else:
                start_n = min(target, self.pool.free)
                if start_n < state.spec.min_workers:
                    continue
            self._start_job(state, start_n)

    def _start_job(self, state: JobState, workers: int) -> None:
        env = self._env
        assert env is not None
        spec = state.spec
        partition = self._partition(spec.model)
        config = FelaConfig(
            partition,
            total_batch=spec.total_batch,
            num_workers=workers,
            weights=(1,) * len(partition),
            iterations=spec.iterations,
        )
        # Node budget: joins consume fresh wids forever (a drained wid
        # never rejoins), so size the job's cluster for its ceiling plus
        # headroom for shrink/regrow and crash/replace cycles.
        budget = spec.max_workers + self.node_headroom
        job_cluster = Cluster(
            dataclasses.replace(
                self.base_spec,
                num_nodes=budget,
                gpu_speed_factors=None,
            ),
            env=env,
        )
        injector: FaultInjector | None = None
        if self.crash_probability > 0:
            injector = ProbabilisticCrashes(
                probability=self.crash_probability,
                seed=self.crash_seed * 1_000_003 + spec.job_id,
            )
        director = ElasticDirector(
            self,
            spec.job_id,
            injector=injector,
            lease_timeout=self.lease_timeout,
        )
        self.pool.allocate(workers, env.now)
        state.held = workers
        state.admitted_workers = workers
        state.initial_workers = workers
        state.started_at = env.now
        state.status = STATUS_RUNNING
        state.runtime = FelaRuntime(config, job_cluster, faults=director)
        state.director = director
        self._admitted.append(state)
        self._emit(
            EV_JOB_STARTED,
            state,
            {"workers": workers, "model": spec.model},
        )
        env.process(self._job_main(state))

    def _job_main(self, state: JobState) -> _t.Iterator[_t.Any]:
        env = self._env
        assert env is not None
        runtime = state.runtime
        director = state.director
        assert runtime is not None and director is not None
        yield env.process(runtime._main())
        state.finished_at = env.now
        state.final_workers = state.held
        state.status = STATUS_DONE
        director.stop()
        assert state.started_at is not None
        state.result = runtime.finalize(started_at=state.started_at)
        # Whatever the job still holds — active workers parked after the
        # last iteration, drains that never completed — frees at once.
        released = state.held
        state.held = 0
        self.pool.release(released, env.now)
        self._emit(
            EV_JOB_FINISHED,
            state,
            {"jct": state.jct, "workers": released},
        )
        self._reschedule()
        state.done_event.succeed()

    # -- DirectorControl ------------------------------------------------------

    def target_workers(self, job_id: int) -> int:
        state = self._by_id[job_id]
        target = self._targets.get(job_id)
        if target is None:
            target = state.admitted_workers
        return target

    def grant_gpus(self, job_id: int, want: int) -> int:
        env = self._env
        assert env is not None
        state = self._by_id[job_id]
        if state.status != STATUS_RUNNING:
            return 0
        granted = min(want, self.pool.free)
        if granted <= 0:
            return 0
        self.pool.allocate(granted, env.now)
        self._record_resize(state, granted, "grow")
        return granted

    def ungrant_gpus(self, job_id: int, count: int) -> None:
        env = self._env
        assert env is not None
        state = self._by_id[job_id]
        if state.status != STATUS_RUNNING:
            return
        self.pool.release(count, env.now)
        self._record_resize(state, -count, "cancel")
        self._reschedule()

    def worker_released(self, job_id: int, reason: str) -> None:
        env = self._env
        assert env is not None
        state = self._by_id[job_id]
        if state.status != STATUS_RUNNING:
            # The job already finished and released its GPUs wholesale;
            # a straggling drain must not double-free.
            return
        self.pool.release(1, env.now)
        self._record_resize(state, -1, reason)
        self._reschedule()

    def _record_resize(
        self, state: JobState, delta: int, reason: str
    ) -> None:
        env = self._env
        assert env is not None
        state.held += delta
        state.resizes.append((env.now, delta, state.held))
        self._emit(
            EV_JOB_RESIZED,
            state,
            {"delta": delta, "workers": state.held, "reason": reason},
        )

    # -- events ---------------------------------------------------------------

    def _emit(
        self, name: str, state: JobState, args: dict[str, _t.Any]
    ) -> None:
        env = self._env
        assert env is not None
        self._events.append(
            TraceEvent(
                name=name,
                category=CAT_CLUSTER,
                start=env.now,
                duration=0.0,
                track=state.job_id,
                seq=self._seq,
                args=args,
            )
        )
        self._seq += 1
