"""The fault controller: lease-based failure detection plus elastic
membership, driven by a :class:`~repro.faults.injector.FaultInjector`.

The controller owns three responsibilities (see ``docs/faults.md``):

* **Dispatch** — a simulation process walks the injector's scripted
  events (crash / leave / join) and per-iteration probabilistic crash
  draws, delivering crashes as :class:`~repro.faults.signals.WorkerCrash`
  interrupts to worker processes.
* **Detection** — the token server never *observes* a crash directly; it
  learns about one the way a real TS does, by a lease expiring.  Every
  TS interaction renews the worker's lease (``touch``); a monitor
  process sleeps toward the earliest deadline and, on expiry, either
  renews (worker alive, merely idle) or declares failure and runs the
  recovery sweep (:meth:`repro.core.server.TokenServer.recover_from_failure`).
* **Membership** — joins activate at the next iteration boundary; leaves
  drain gracefully (finish the current token, then depart); the CTD
  subset and the bucket's per-worker STBs resize through the shared
  :class:`~repro.faults.membership.Membership` epoch.

Nothing here runs unless a controller is attached: every hook in the
core is gated on ``server.faults is not None`` so fault-free runs are
float-identical to a build without this module.
"""

from __future__ import annotations

import typing as _t
from dataclasses import dataclass, field

from repro.errors import ConfigurationError, SchedulingError
from repro.faults.injector import (
    KIND_CRASH,
    KIND_JOIN,
    KIND_LEAVE,
    FaultEvent,
    FaultInjector,
)
from repro.faults.membership import Membership
from repro.faults.signals import ReviveWork, WorkerCrash

if _t.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.runtime import FelaRuntime


@dataclass(frozen=True)
class FailureRecord:
    """One detected worker failure and what recovery cost."""

    wid: int
    crash_time: float
    detect_time: float
    reclaimed: int
    reminted: int
    invalidated: int
    revoked: int
    promoted: int
    lost_compute_seconds: float

    @property
    def detection_seconds(self) -> float:
        return self.detect_time - self.crash_time

    def as_dict(self) -> dict[str, _t.Any]:
        return {
            "wid": self.wid,
            "crash_time": self.crash_time,
            "detect_time": self.detect_time,
            "detection_seconds": self.detection_seconds,
            "reclaimed": self.reclaimed,
            "reminted": self.reminted,
            "invalidated": self.invalidated,
            "revoked": self.revoked,
            "promoted": self.promoted,
            "lost_compute_seconds": self.lost_compute_seconds,
        }


@dataclass
class _Ledger:
    """Mutable tallies the controller accumulates across the run."""

    failures: list[FailureRecord] = field(default_factory=list)
    joins: list[int] = field(default_factory=list)
    leaves: list[int] = field(default_factory=list)
    skipped_crashes: int = 0
    skipped_leaves: int = 0


class FaultController:
    """Injects faults and recovers from them.  One per run.

    ``lease_timeout`` is the TS-side failure-detection bound: a worker
    whose lease has been silent that long is probed, and probing a
    crashed worker declares the failure.  Detection therefore lags the
    crash by at most ``lease_timeout`` of simulated time.
    """

    def __init__(
        self,
        injector: FaultInjector,
        lease_timeout: float = 0.25,
    ) -> None:
        if lease_timeout <= 0:
            raise ConfigurationError(
                f"lease timeout must be > 0: {lease_timeout}"
            )
        self.injector = injector
        self.lease_timeout = lease_timeout
        self.membership: Membership | None = None
        self.runtime: FelaRuntime | None = None
        self._deadlines: dict[int, float] = {}
        self._crashed: dict[int, float] = {}
        self._pending_joins = 0
        self._ledger = _Ledger()
        #: Set by :meth:`stop` once the run is over, so the lease monitor
        #: terminates instead of ticking forever — irrelevant when the
        #: environment dies with the run, load-bearing when many runs
        #: share one environment (``repro.cluster``).
        self._stopped = False

    # -- wiring ---------------------------------------------------------------

    def attach(self, runtime: FelaRuntime) -> None:
        """Bind to a runtime; called once from ``FelaRuntime.__init__``."""
        if self.runtime is not None:
            raise ConfigurationError("fault controller is already attached")
        num_workers = runtime.config.num_workers
        planned = self.injector.planned_joins
        if num_workers + planned > runtime.cluster.num_nodes:
            raise ConfigurationError(
                f"cluster has {runtime.cluster.num_nodes} nodes but the "
                f"fault script needs {num_workers} initial workers plus "
                f"{planned} joins"
            )
        for event in self.injector.scripted_events():
            if event.kind in (KIND_CRASH, KIND_LEAVE):
                assert event.wid is not None
                if event.wid >= num_workers:
                    raise ConfigurationError(
                        f"scripted {event.kind} targets worker "
                        f"{event.wid} but only {num_workers} initial "
                        "workers exist"
                    )
        self.runtime = runtime
        self.membership = Membership(num_workers)
        server = runtime.server
        server.faults = self
        server.distributor.attach_membership(self.membership)
        server.generator.home_resolver = self._resolve_home
        self._detection = runtime.metrics.histogram(
            "fault.detection_seconds"
        )
        env = runtime.cluster.env
        for wid in range(num_workers):
            self._deadlines[wid] = env.now + self.lease_timeout
        env.process(self._dispatch())
        env.process(self._monitor())

    def _resolve_home(self, candidate: int) -> int:
        """Generator hook: re-home fresh tokens off non-active workers."""
        assert self.membership is not None
        if self.membership.is_active(candidate):
            return candidate
        return self.membership.rehome_target(candidate)

    # -- injection processes --------------------------------------------------

    def _dispatch(self) -> _t.Iterator[_t.Any]:
        assert self.runtime is not None
        env = self.runtime.cluster.env
        for event in self.injector.scripted_events():
            delay = event.time - env.now
            if delay > 0:
                yield env.timeout(delay)
            if event.kind == KIND_CRASH:
                assert event.wid is not None
                self._do_crash(event.wid)
            elif event.kind == KIND_LEAVE:
                assert event.wid is not None
                self._do_leave(event.wid)
            else:
                self._pending_joins += 1

    def _delayed_crash(self, event: FaultEvent) -> _t.Iterator[_t.Any]:
        assert self.runtime is not None
        env = self.runtime.cluster.env
        yield env.timeout(max(0.0, event.time - env.now))
        assert event.wid is not None
        self._do_crash(event.wid)

    def _do_crash(self, wid: int) -> None:
        assert self.runtime is not None and self.membership is not None
        membership = self.membership
        targetable = membership.is_active(wid) or membership.is_draining(wid)
        if not targetable or wid in self._crashed:
            self._ledger.skipped_crashes += 1
            return
        # Membership lags reality: a crashed worker stays ACTIVE until
        # its lease expires, so count survivors as active AND not yet
        # crashed — otherwise two near-simultaneous crashes can both
        # pass an ``active_workers() > 1`` check and deadlock the run.
        survivors = [
            w
            for w in membership.active_workers()
            if w not in self._crashed
        ]
        if wid in survivors and len(survivors) <= 1:
            # Killing the last live worker would deadlock the run; a
            # real cluster would abort the job here, we just skip.
            self._ledger.skipped_crashes += 1
            return
        self._crashed[wid] = self.runtime.cluster.env.now
        process = self.runtime._worker_procs.get(wid)
        if process is not None and process.is_alive:
            process.interrupt(WorkerCrash(wid))

    def _do_leave(self, wid: int) -> None:
        assert self.runtime is not None and self.membership is not None
        membership = self.membership
        survivors = [
            w
            for w in membership.active_workers()
            if w not in self._crashed
        ]
        if (
            not membership.is_active(wid)
            or wid in self._crashed
            or len(survivors) <= 1
        ):
            self._ledger.skipped_leaves += 1
            return
        membership.mark_draining(wid)
        # A parked worker would otherwise only notice at the next
        # iteration boundary; nudge it so it departs promptly.
        worker = self._worker(wid)
        process = self.runtime._worker_procs.get(wid)
        if (
            worker is not None
            and worker._parked
            and process is not None
            and process.is_alive
        ):
            # Cleared at send time: a second nudge or revive before this
            # one lands must not queue another ReviveWork, which would
            # hit the worker after it left the park.
            worker._parked = False
            process.interrupt(ReviveWork())

    # -- detection ------------------------------------------------------------

    def _monitor(self) -> _t.Iterator[_t.Any]:
        assert self.runtime is not None
        env = self.runtime.cluster.env
        while not self._stopped:
            if not self._deadlines:
                yield env.timeout(self.lease_timeout)
                continue
            horizon = min(self._deadlines.values())
            if horizon > env.now:
                yield env.timeout(horizon - env.now)
                continue
            for wid in sorted(self._deadlines):
                deadline = self._deadlines.get(wid)
                if deadline is None or deadline > env.now:
                    continue
                if wid in self._crashed:
                    self._handle_failure(wid)
                else:
                    # Lease expired but the probe answers: the worker is
                    # alive, just idle (parked or mid-compute).  Renew.
                    self._deadlines[wid] = env.now + self.lease_timeout

    def stop(self) -> None:
        """Retire the controller: the lease monitor exits at its next wake.

        Called by cluster-level drivers when the attached job finishes;
        single-job runs never need it because ``env.run(main)`` simply
        stops pumping events once the main process completes.
        """
        self._stopped = True

    def touch(self, wid: int) -> None:
        """Renew a worker's lease (called on every TS interaction)."""
        assert self.runtime is not None
        if wid in self._deadlines:
            self._deadlines[wid] = (
                self.runtime.cluster.env.now + self.lease_timeout
            )

    def _handle_failure(self, wid: int) -> None:
        assert self.runtime is not None and self.membership is not None
        runtime = self.runtime
        env = runtime.cluster.env
        crash_time = self._crashed[wid]
        self.membership.mark_failed(wid)
        self._deadlines.pop(wid, None)
        server = runtime.server
        sweep = server.recover_from_failure(wid, self._copy_holders())
        lost_compute = self._lost_compute(wid, sweep["reminted"])
        record = FailureRecord(
            wid=wid,
            crash_time=crash_time,
            detect_time=env.now,
            reclaimed=len(sweep["reclaimed"]),
            reminted=len(sweep["reminted"]),
            invalidated=len(sweep["invalidated"]),
            revoked=len(sweep["revoked"]),
            promoted=len(sweep["promoted"]),
            lost_compute_seconds=lost_compute,
        )
        self._ledger.failures.append(record)
        self._detection.observe(record.detection_seconds)
        tracer = env.tracer
        if tracer.enabled:
            tracer.worker_failed(
                wid,
                crash_time=crash_time,
                reclaimed=record.reclaimed,
                reminted=record.reminted,
            )
        self._revive_parked()

    def _copy_holders(self) -> list[tuple[int, set[int]]]:
        """Live workers (and their Parameter Chunk contents) that may
        adopt activation copies of lost tokens, in deterministic order."""
        assert self.runtime is not None and self.membership is not None
        holders = []
        for worker in sorted(self.runtime.workers, key=lambda w: w.wid):
            if self.membership.is_online(worker.wid):
                holders.append((worker.wid, worker.chunks))
        return holders

    def _lost_compute(self, wid: int, reminted: list[_t.Any]) -> float:
        """Nominal GPU-seconds the dead worker had sunk into tokens that
        now need retraining (the paper's lost-work degradation metric)."""
        assert self.runtime is not None
        runtime = self.runtime
        node = runtime.cluster[wid]
        total = 0.0
        for token in reminted:
            submodel = runtime.config.partition.submodels[token.level]
            nominal = node.gpu_spec.train_time(
                submodel.layers, token.batch
            )
            total += nominal / node.speed_factor
        return total

    def _revive_parked(self) -> None:
        """Wake parked live workers: the sweep refilled the bucket."""
        assert self.runtime is not None and self.membership is not None
        for worker in sorted(self.runtime.workers, key=lambda w: w.wid):
            if not self.membership.is_active(worker.wid):
                continue
            if not worker._parked:
                continue
            process = self.runtime._worker_procs.get(worker.wid)
            if process is not None and process.is_alive:
                worker._parked = False  # one ReviveWork per park
                process.interrupt(ReviveWork())

    # -- membership hooks (called by server / worker / runtime) ---------------

    def iteration_started(self, iteration: int) -> None:
        """Runtime hook: activate pending joins, draw iteration crashes."""
        assert self.runtime is not None and self.membership is not None
        runtime = self.runtime
        env = runtime.cluster.env
        while self._pending_joins > 0:
            self._pending_joins -= 1
            worker = runtime.provision_worker()
            wid = worker.wid
            self.membership.add_joining(wid)
            self.membership.activate(wid)
            self._deadlines[wid] = env.now + self.lease_timeout
            invariants = runtime.server.invariants
            if invariants is not None:
                invariants.on_worker_joined(wid)
            if env.tracer.enabled:
                env.tracer.worker_joined(wid, iteration=iteration)
            runtime._worker_procs[wid] = env.process(
                worker.run_loop(runtime, first_iteration=iteration)
            )
            self._ledger.joins.append(wid)
        crashes = self.injector.iteration_crashes(
            iteration, env.now, self.membership.active_workers()
        )
        for event in crashes:
            env.process(self._delayed_crash(event))

    def worker_departed(self, wid: int) -> None:
        """Worker hook: a draining worker finished its last token."""
        assert self.runtime is not None and self.membership is not None
        self.membership.mark_left(wid)
        self._deadlines.pop(wid, None)
        self._ledger.leaves.append(wid)
        env = self.runtime.cluster.env
        if env.tracer.enabled:
            env.tracer.worker_left(wid)

    def may_request(self, wid: int) -> bool:
        assert self.membership is not None
        return self.membership.may_request(wid)

    def should_depart(self, wid: int) -> bool:
        assert self.membership is not None
        return self.membership.is_draining(wid)

    def is_failed(self, wid: int) -> bool:
        assert self.membership is not None
        return self.membership.is_failed(wid)

    def _worker(self, wid: int) -> _t.Any:
        assert self.runtime is not None
        for worker in self.runtime.workers:
            if worker.wid == wid:
                return worker
        return None

    # -- reporting ------------------------------------------------------------

    def summary(self) -> dict[str, _t.Any]:
        """Degradation accounting for ``RunResult.stats['faults']``."""
        if self.membership is None:
            raise SchedulingError("fault controller was never attached")
        ledger = self._ledger
        failures = [record.as_dict() for record in ledger.failures]
        return {
            "failures": failures,
            "joined": list(ledger.joins),
            "left": list(ledger.leaves),
            "skipped_crashes": ledger.skipped_crashes,
            "skipped_leaves": ledger.skipped_leaves,
            "pending_joins": self._pending_joins,
            "tokens_reclaimed": sum(r.reclaimed for r in ledger.failures),
            "tokens_reminted": sum(r.reminted for r in ledger.failures),
            "tokens_invalidated": sum(
                r.invalidated for r in ledger.failures
            ),
            "tokens_revoked": sum(r.revoked for r in ledger.failures),
            "copies_promoted": sum(r.promoted for r in ledger.failures),
            "lost_compute_seconds": sum(
                r.lost_compute_seconds for r in ledger.failures
            ),
            "recovery_detection_seconds": [
                r.detection_seconds for r in ledger.failures
            ],
            "final_states": {
                wid: self.membership.state(wid)
                for wid in self.membership.known_workers()
            },
        }
