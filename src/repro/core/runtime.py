"""The Fela runtime: BSP/SSP/ASP iteration loop over the token machinery.

One iteration:

1. the TS mints the T-1 tokens into the sub-token-buckets;
2. every worker (optionally delayed by the straggler injector) pulls,
   trains, and reports tokens until the iteration can give it no more;
3. as each level's tokens all complete, that sub-model's gradient
   synchronization (ring all-reduce among the workers that trained it —
   under CTD this is the conditional subset for communication-intensive
   sub-models) starts immediately and overlaps with remaining training,
   matching "While the worker is synchronizing ... its Trainer is not
   blocked";
4. under BSP the next iteration starts once all levels are trained *and*
   synchronized; under SSP, training may run ahead of outstanding
   synchronizations by up to ``staleness`` iterations (token ``age``);
   under ASP it never waits.
"""

from __future__ import annotations

import typing as _t

from repro.core.collectives import hierarchical_allreduce, ring_allreduce
from repro.core.config import FelaConfig, SyncMode
from repro.core.server import TokenServer
from repro.core.worker import Worker
from repro.errors import ConfigurationError
from repro.hardware import Cluster, ClusterSpec
from repro.metrics import IterationRecord, RunResult
from repro.obs.timeseries import NULL_SAMPLER, NullSampler
from repro.obs.tracer import NULL_TRACER, NullTracer
from repro.sim import Event
from repro.stragglers import NoStraggler, StragglerInjector

if _t.TYPE_CHECKING:  # pragma: no cover - type-only imports
    from repro.analysis.invariants import InvariantChecker
    from repro.faults.controller import FaultController
    from repro.sim import Process


def _latency_summary(latencies: list[float]) -> dict[str, float]:
    """Count, total, extremes, mean and nearest-rank p50/p95."""
    count = len(latencies)
    ordered = sorted(latencies)
    total = sum(latencies)

    def rank(fraction: float) -> float:
        return ordered[min(count - 1, int(fraction * count))] if count else 0.0

    return {
        "count": count,
        "total": total,
        "min": min(latencies, default=0.0),
        "max": max(latencies, default=0.0),
        "mean": total / count if count else 0.0,
        "p50": rank(0.50),
        "p95": rank(0.95),
    }


class FelaRuntime:
    """Drives one complete Fela training run on a simulated cluster.

    ``tracer`` records the run's trace events, ``invariants`` checks
    them as they are emitted, ``faults`` injects failures and elastic
    membership and ``sampler`` snapshots gauges; all are optional.
    ``RunResult.stats`` needs none of them: it is read from the
    counters the token server, the workers and the runtime keep.
    """

    name = "fela"

    def __init__(
        self,
        config: FelaConfig,
        cluster: Cluster | None = None,
        straggler: StragglerInjector | None = None,
        invariants: "InvariantChecker | None" = None,
        tracer: NullTracer | None = None,
        faults: "FaultController | None" = None,
        sampler: NullSampler | None = None,
    ) -> None:
        self.config = config
        self.cluster = cluster or Cluster(
            ClusterSpec(num_nodes=config.num_workers)
        )
        self.straggler = straggler or NoStraggler()
        #: Optional :class:`~repro.analysis.invariants.InvariantChecker`
        #: validating token conservation and sync accounting from the
        #: tracer stream (off by default; tests turn it on).
        self.invariants = invariants
        self.tracer = tracer if tracer is not None else NULL_TRACER
        env = self.cluster.env
        self.tracer.attach_env(env)
        self.server = TokenServer(config, self.cluster)
        # The one wiring point for all components: they emit through
        # ``env.tracer``.  A checker sits in front of the recording
        # tracer, checks each event and forwards it.
        env.tracer = self.tracer
        if invariants is not None:
            invariants.bind(self.server, forward=self.tracer)
            env.tracer = invariants
        self.workers = [
            Worker(self.server, self.cluster[wid], wid)
            for wid in range(config.num_workers)
        ]
        self._validate_memory()
        self._records: list[IterationRecord] = []
        #: level -> all-reduce wire bytes summed over the run.
        self._sync_bytes: dict[int, float] = {}
        #: iteration -> AllOf event of that iteration's level syncs.
        self._sync_done: dict[int, Event] = {}
        #: iteration -> event fired when the iteration's tokens are minted.
        self._opened: dict[int, Event] = {}
        #: iteration -> per-worker start delays from the injector.
        self._delays: dict[int, list[float]] = {}
        #: wid -> worker process (the fault controller interrupts these).
        self._worker_procs: dict[int, "Process"] = {}
        #: ``_main``'s process once :meth:`advance` has started it.
        self._main_proc: "Process | None" = None
        #: (record count, event) :meth:`advance` is waiting for, if any.
        self._pause: tuple[int, Event] | None = None
        #: Optional fault controller; attaching wires the membership
        #: state machine and lease monitor into this run.
        self.faults = faults
        if faults is not None:
            faults.attach(self)
        #: Optional time-series :class:`~repro.obs.timeseries.Sampler`;
        #: the shared null sampler when sampling is off, so no sampler
        #: object is ever constructed for an unsampled run.
        self.sampler = sampler if sampler is not None else NULL_SAMPLER
        if self.sampler.enabled:
            # Attach last: the sampler reads workers/server/faults state
            # that must all exist before the first (t=0) tick.
            self.sampler.attach_runtime(self)

    def _validate_memory(self) -> None:
        """Every (sub-model, token batch) pair must fit in GPU memory."""
        gpu = self.cluster.spec.gpu
        batches = self.config.token_batches()
        for level, submodel in enumerate(self.config.partition):
            input_floats = (
                self.config.partition.model.input_floats
                if level == 0
                else submodel.input_floats
            )
            gpu.require_fits(submodel.layers, batches[level], input_floats)

    # -- public API ----------------------------------------------------------------

    def run(self) -> RunResult:
        """Execute the configured number of iterations; return the result."""
        env = self.cluster.env
        main = env.process(self._main())
        env.run(main)
        return self.finalize()

    def advance(self, iterations: int) -> float:
        """Run until ``iterations`` iterations are recorded; return their
        mean per-iteration time.

        The first call starts the run and later calls resume it, so a
        run advanced to 1, then 2, then ``config.iterations`` simulates
        each iteration once.  BSP only: its barrier makes the first k
        iterations of a deeper run bit-for-bit a fresh k-iteration run,
        so ``advance(k)`` equals the ``mean_iteration_time`` of
        ``config.replace(iterations=k)`` run from scratch.  Under SSP
        and ASP a later iteration's traffic overlaps the earlier ones'
        trailing syncs, which breaks that equality.
        """
        if self.config.sync_mode != SyncMode.BSP:
            raise ConfigurationError(
                f"advance() needs BSP, not {self.config.sync_mode!r}"
            )
        if not 1 <= iterations <= self.config.iterations:
            raise ConfigurationError(
                f"cannot advance to iteration {iterations} of "
                f"{self.config.iterations}"
            )
        env = self.cluster.env
        if self._main_proc is None:
            self._main_proc = env.process(self._main())
        if len(self._records) < iterations:
            self._pause = (iterations, env.event())
            env.run(self._pause[1])
            self._pause = None
        return self._records[iterations - 1].end / iterations

    def finalize(self, started_at: float = 0.0) -> RunResult:
        """Settle accounting after ``_main`` has finished; build the result.

        Split out of :meth:`run` so a cluster-level driver can run
        ``_main`` as one process among many in a shared environment and
        close the books itself once the job's process completes.
        ``started_at`` is the sim time the job began: ``total_time`` is
        the job's *elapsed* time, not the absolute clock (the two
        coincide for a single-job run, which starts at t=0).
        """
        env = self.cluster.env
        if self.invariants is not None:
            self.invariants.finish()
        total_time = env.now - started_at
        if self.sampler.enabled:
            self.sampler.finish(env.now)
        return RunResult(
            runtime_name=self.name,
            model_name=self.config.partition.model.name,
            total_batch=self.config.total_batch,
            iterations=self.config.iterations,
            total_time=total_time,
            records=tuple(self._records),
            stats=self._final_stats(total_time),
        )

    def _final_stats(self, total_time: float) -> dict[str, _t.Any]:
        """The ``stats`` payload, read from the counters the token
        server, the workers and the runtime keep."""
        workers = self.workers
        server = self.server
        stats = {
            "ts_requests": server.requests,
            "ts_conflicts": server.conflicts,
            "tokens_by_worker": server.tokens_by_worker,
            "bytes_fetched": sum(w.bytes_fetched for w in workers),
            "network_bytes": self.cluster.fabric.stats.bytes_transferred,
            "compute_seconds_by_worker": [w.compute_seconds for w in workers],
            "fetch_seconds_by_worker": [w.fetch_seconds for w in workers],
            "idle_seconds_by_worker": [
                max(
                    0.0,
                    total_time
                    - w.compute_seconds
                    - w.fetch_seconds
                    - w.delay_seconds,
                )
                for w in workers
            ],
            "straggler_delay_seconds_by_worker": [
                w.delay_seconds for w in workers
            ],
            "sync_bytes_by_level": dict(
                sorted(
                    self._sync_bytes.items(),
                    key=lambda item: repr(item[0]),
                )
            ),
            "ts_request_latency": _latency_summary(server.request_latencies),
            "weights": self.config.weights,
            "subset_size": self.config.subset_size,
        }
        if self.faults is not None:
            stats["faults"] = self.faults.summary()
        return stats

    # -- worker-facing coordination ----------------------------------------------------

    def iteration_opened(self, iteration: int) -> Event:
        """Event fired when ``iteration``'s tokens become available."""
        event = self._opened.get(iteration)
        if event is None:
            event = self.cluster.env.event()
            self._opened[iteration] = event
        return event

    def start_delay(self, iteration: int, wid: int) -> float:
        """The straggler injector's start delay for a worker/iteration."""
        delays = self._delays[iteration]
        if wid >= len(delays):
            # Joined after the injector drew this iteration's delays.
            return 0.0
        return delays[wid]

    def provision_worker(self) -> Worker:
        """Create a worker on the next free cluster node (elastic join)."""
        wid = self.server.register_worker()
        worker = Worker(self.server, self.cluster[wid], wid)
        self.workers.append(worker)
        return worker

    # -- iteration machinery ------------------------------------------------------------

    def _main(self):
        env = self.cluster.env
        for worker in self.workers:
            self._worker_procs[worker.wid] = env.process(
                worker.run_loop(self)
            )
        previous_counts = dict(self.server.tokens_by_worker)
        for iteration in range(self.config.iterations):
            yield from self._await_staleness_bound(iteration)
            start = env.now
            delays = self.straggler.delays(
                iteration, self.config.num_workers
            )
            if len(delays) != self.config.num_workers:
                raise ConfigurationError(
                    f"straggler injector returned {len(delays)} delays "
                    f"for {self.config.num_workers} workers"
                )
            self._delays[iteration] = list(delays)
            self.server.begin_iteration(iteration)
            if self.faults is not None:
                self.faults.iteration_started(iteration)
            sync_events = [
                env.process(self._sync_level(iteration, level))
                for level in range(self.config.levels)
            ]
            self._sync_done[iteration] = env.all_of(sync_events)
            level_events = [
                self.server.level_done_event(level)
                for level in range(self.config.levels)
            ]
            self.iteration_opened(iteration).succeed()

            # The iteration's training is over when every token of every
            # level is complete — not when every worker wakes up: a worker
            # still serving a straggler delay whose tokens were taken over
            # by helpers does not hold the cluster back.
            yield env.all_of(level_events)
            yield from self._await_iteration_complete(iteration)
            if self.config.sync_mode == SyncMode.BSP:
                yield self._sync_done.pop(iteration)
            counts = dict(self.server.tokens_by_worker)
            self._records.append(
                IterationRecord(
                    iteration=iteration,
                    start=start,
                    end=env.now,
                    work_by_worker=tuple(
                        counts.get(wid, 0) - previous_counts.get(wid, 0)
                        for wid in range(self.server.worker_slots)
                    ),
                )
            )
            previous_counts = counts
            if self._pause is not None and (
                len(self._records) == self._pause[0]
            ):
                self._pause[1].succeed()
            self.server.end_iteration()
        # Outstanding SSP/ASP synchronizations must land before the run
        # is considered finished.
        for event in list(self._sync_done.values()):
            yield event
        self._sync_done.clear()

    def _await_iteration_complete(self, iteration: int):
        """Fault-layer gate: a crash after the last level-done event may
        uncomplete tokens; wait until they are retrained before closing.

        Without faults this is provably a no-op (level-done only fires
        at full completion and nothing ever uncompletes), so the plain
        path yields nothing.
        """
        if self.faults is None:
            return
        while not self.server.generator.iteration_complete(iteration):
            yield self.server.bucket_changed_event()

    def _await_staleness_bound(self, iteration: int):
        """SSP gate: stay within ``staleness`` of the oldest unsynced iter."""
        if self.config.sync_mode == SyncMode.BSP:
            return
        if self.config.sync_mode == SyncMode.ASP:
            return
        while self._sync_done:
            oldest = min(self._sync_done)
            if iteration - oldest <= self.config.staleness:
                break
            yield self._sync_done.pop(oldest)

    def _sync_level(self, iteration: int, level: int):
        """Wait for a level to complete, then all-reduce its gradients."""
        yield self.server.level_done_event(level, iteration)
        participants = self.server.participants(level, iteration)
        submodel = self.config.partition[level]
        env = self.cluster.env
        tracer = env.tracer
        if tracer.enabled:
            tracer.sync_started(iteration, level, participants)
        if self.config.collective == "hierarchical" and len(participants) > 3:
            # √k-sized groups over the (sorted) participant list.
            k = len(participants)
            group_size = max(2, int(k**0.5))
            groups = [
                participants[i : i + group_size]
                for i in range(0, k, group_size)
            ]
            wire = yield from hierarchical_allreduce(
                self.cluster, groups, submodel.param_bytes
            )
        else:
            wire = yield from ring_allreduce(
                self.cluster,
                participants,
                submodel.param_bytes,
                context=(iteration, level),
            )
        self._sync_bytes[level] = self._sync_bytes.get(level, 0) + wire
        if tracer.enabled:
            tracer.level_synced(iteration, level, participants, wire)


class PipelinedFelaRuntime(FelaRuntime):
    """Token-level iteration pipelining: the full Section-VI extension.

    The base runtime relaxes only the *synchronization* barrier under
    SSP/ASP; successive iterations' tokens never coexist.  This variant
    opens iteration *k+1*'s tokens as soon as iteration *k*'s are all
    assigned (there is idle demand) and the staleness bound permits, so
    fast workers flow straight into the next iteration while stragglers
    finish the previous one.  Tokens carry their iteration, and the
    distributor hands out the *oldest* iteration's work first — the
    paper's "distribute the tokens according to the predefined staleness
    bound" by token age.

    Requires SSP or ASP: pipelining iterations under BSP would contradict
    the barrier it relaxes.
    """

    name = "fela-pipelined"

    def __init__(self, *args: _t.Any, **kwargs: _t.Any) -> None:
        super().__init__(*args, **kwargs)
        if self.config.sync_mode == SyncMode.BSP:
            raise ConfigurationError(
                "PipelinedFelaRuntime requires SSP or ASP; BSP's barrier "
                "forbids iteration overlap"
            )

    def _main(self):
        env = self.cluster.env
        for worker in self.workers:
            self._worker_procs[worker.wid] = env.process(
                worker.run_loop(self)
            )
        finish_events = []
        for iteration in range(self.config.iterations):
            yield from self._await_staleness_bound(iteration)
            if iteration > 0:
                # Demand gate: open the next iteration only once every
                # token of the previous one has been handed out (workers
                # would otherwise idle at the tail).
                yield from self._wait_all_assigned(iteration - 1)
            delays = self.straggler.delays(
                iteration, self.config.num_workers
            )
            if len(delays) != self.config.num_workers:
                raise ConfigurationError(
                    f"straggler injector returned {len(delays)} delays "
                    f"for {self.config.num_workers} workers"
                )
            self._delays[iteration] = list(delays)
            start = env.now
            self.server.begin_iteration(iteration)
            if self.faults is not None:
                self.faults.iteration_started(iteration)
            sync_events = [
                env.process(self._sync_level(iteration, level))
                for level in range(self.config.levels)
            ]
            self._sync_done[iteration] = env.all_of(sync_events)
            self.iteration_opened(iteration).succeed()
            finish_events.append(
                env.process(self._finish_iteration(iteration, start))
            )
        # All iterations recorded, all synchronizations landed.
        yield env.all_of(finish_events)
        for event in list(self._sync_done.values()):
            yield event
        self._sync_done.clear()
        self._records.sort(key=lambda record: record.iteration)

    def _wait_all_assigned(self, iteration: int):
        while not self.server.all_assigned(iteration):
            yield self.server.bucket_changed_event()

    def _finish_iteration(self, iteration: int, start: float):
        """Record the iteration once every one of its tokens completes."""
        env = self.cluster.env
        level_events = [
            self.server.level_done_event(level, iteration)
            for level in range(self.config.levels)
        ]
        yield env.all_of(level_events)
        yield from self._await_iteration_complete(iteration)
        work = self.server.tokens_by_worker_per_iteration.get(
            iteration, {}
        )
        self._records.append(
            IterationRecord(
                iteration=iteration,
                start=start,
                end=env.now,
                work_by_worker=tuple(
                    work.get(wid, 0)
                    for wid in range(self.server.worker_slots)
                ),
            )
        )
        self.server.end_iteration(iteration)
