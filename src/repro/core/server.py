"""The Token Server (TS): Fela's lightweight scheduler (paper Fig. 2).

The TS bundles the Token Generator, Token Bucket (with STBs), Token
Distributor, and Info Mapping.  It holds no model parameters: every
interaction moves at most hundreds of bytes, so TS traffic is modelled as
fixed latency + a tiny service time instead of fabric flows ("causes no
centralized bottleneck").

Workers interact through two process generators:

* :meth:`request_token` — blocks (in simulated time) until a token is
  available for this worker or the iteration can provably never give it
  one more (all tokens of every level it may take are already assigned);
* :meth:`report_completion` — records the result, mints any next-level
  tokens that became generatable, and fires level-completion events the
  runtime uses to kick off parameter synchronization.

Timing model per interaction: one-way latency, then service time, then
(on contended shared-pool requests) the conflict penalty of the locking
mechanism described in Section III-E, then one-way latency back.
"""

from __future__ import annotations

import typing as _t

from repro.core.bucket import TokenBucket
from repro.core.config import FelaConfig
from repro.core.distributor import TokenDistributor
from repro.core.generator import TokenGenerator
from repro.core.tokens import InfoMapping, Token
from repro.errors import SchedulingError
from repro.hardware import Cluster
from repro.sim import Event

if _t.TYPE_CHECKING:  # pragma: no cover - type-only import
    from repro.faults.controller import FaultController


class TokenServer:
    """Scheduler state shared by all workers of one Fela run."""

    def __init__(self, config: FelaConfig, cluster: Cluster) -> None:
        if config.num_workers > cluster.num_nodes:
            raise SchedulingError(
                f"{config.num_workers} workers exceed the "
                f"{cluster.num_nodes}-node cluster"
            )
        self.config = config
        self.cluster = cluster
        self.env = cluster.env
        self.generator = TokenGenerator(config)
        self.bucket = TokenBucket(config.num_workers)
        self.distributor = TokenDistributor(config)
        self.info = InfoMapping()
        self.counts = config.token_counts()
        self.current_iteration: int = -1
        #: Fault controller, attached by :class:`repro.faults.FaultController`.
        #: Every fault-path hook is gated on this being non-None, so
        #: fault-free runs are untouched.
        self.faults: "FaultController | None" = None
        #: Worker id slots ever handed out (grows on elastic joins).
        self.worker_slots = config.num_workers
        #: Assignments revoked by a recovery sweep, awaiting the
        #: assignee's acknowledgement (it must drop the token untrained).
        self._revoked: set[int] = set()
        #: (iteration, level) -> tids minted for it, so sync setup scans
        #: only the level's tokens instead of the whole registry.
        self._token_index: dict[tuple[int, int], list[int]] = {}
        #: Per-iteration assignment counters: iteration -> [per level].
        #: Under the BSP runtime only one iteration is ever active; the
        #: pipelined runtime keeps several open at once.
        self._assigned: dict[int, list[int]] = {}
        #: (iteration, level) -> completion event.
        self._level_done: dict[tuple[int, int], Event] = {}
        self._bucket_changed: Event = self.env.event()
        #: Request round-trips served, and the contended shared-pool
        #: requests among them that paid the locking penalty.
        self.requests = 0
        self.conflicts = 0
        #: Sim-time length of every answered request, in answer order.
        self.request_latencies: list[float] = []
        #: wid -> tokens assigned over the run, net of assignments rolled
        #: back by failure recovery.
        self._tokens_assigned = [0] * config.num_workers
        #: iteration -> wid -> tokens assigned (per-iteration attribution,
        #: needed when iterations overlap).
        self.tokens_by_worker_per_iteration: dict[int, dict[int, int]] = {}

    # -- statistics views ---------------------------------------------------------

    @property
    def tokens_by_worker(self) -> dict[int, int]:
        """Tokens assigned per worker over the whole run (net of any
        assignments rolled back by failure recovery)."""
        return dict(enumerate(self._tokens_assigned))

    # -- iteration lifecycle ------------------------------------------------------

    def begin_iteration(self, iteration: int) -> None:
        """Mint the iteration's T-1 tokens and open its bookkeeping.

        Iterations must be *opened* in order, but an iteration may be
        opened while earlier ones are still training (the pipelined
        SSP/ASP runtime does this); each stays active until its own
        :meth:`end_iteration`.
        """
        if iteration != self.current_iteration + 1:
            raise SchedulingError(
                f"iterations must advance one at a time: "
                f"{self.current_iteration} -> {iteration}"
            )
        self.current_iteration = iteration
        self._assigned[iteration] = [0] * self.config.levels
        # Lazily populated (``wid -> count``): consumers read through
        # ``.get(wid, 0)``, so opening an iteration is O(1) instead of
        # O(worker_slots).
        self.tokens_by_worker_per_iteration[iteration] = {}
        for level in range(self.config.levels):
            self._level_done[(iteration, level)] = self.env.event()
        self.distributor.reset_iteration()
        tracer = self.env.tracer
        minted = self.generator.start_iteration(iteration)
        index = self._token_index.setdefault((iteration, 0), [])
        if not tracer.enabled:
            # Untraced fast path: one bulk insert for the whole mint burst.
            index.extend(token.tid for token in minted)
            self.bucket.add_many(minted)
        else:
            for token in minted:
                index.append(token.tid)
                tracer.token_minted(token)
                self.bucket.add(token)
                tracer.token_buffered(token)
        self._broadcast()

    def end_iteration(self, iteration: int | None = None) -> None:
        """Drop bookkeeping for one finished iteration (default: latest)."""
        if iteration is None:
            iteration = self.current_iteration
        if iteration not in self._assigned:
            raise SchedulingError(f"iteration {iteration} is not active")
        if not self.generator.iteration_complete(iteration):
            raise SchedulingError(
                f"iteration {iteration} ended before all tokens completed"
            )
        if self.env.tracer.enabled:
            self.env.tracer.iteration_ended(iteration)
        del self._assigned[iteration]
        self.tokens_by_worker_per_iteration.pop(iteration, None)
        for level in range(self.config.levels):
            self._level_done.pop((iteration, level), None)
            self._token_index.pop((iteration, level), None)
        stale = self.generator.forget_iteration(iteration)
        self.info.forget_iteration(stale)

    @property
    def active_iterations(self) -> list[int]:
        """Iterations currently open (begun, not yet ended)."""
        return sorted(self._assigned)

    def level_done_event(
        self, level: int, iteration: int | None = None
    ) -> Event:
        """Event fired when every token of a level completes.

        Defaults to the most recently opened iteration.
        """
        if iteration is None:
            iteration = self.current_iteration
        return self._level_done[(iteration, level)]

    # -- worker-facing RPC generators ------------------------------------------------

    def request_token(self, wid: int):
        """Process generator: obtain a token for ``wid`` (or ``None``).

        ``yield from`` this inside a worker process.
        """
        latency = self.cluster.spec.latency
        tracer = self.env.tracer
        request_start = self.env.now
        while True:
            if self.faults is not None and not self.faults.may_request(wid):
                # Draining workers get no new tokens; they return home.
                return None
            yield self.env.timeout(latency)  # request travels to TS

            own_stb_first = (
                self.config.hf_enabled and self.bucket.stb_size(wid) > 0
            )
            if not own_stb_first:
                self.distributor.request_started()
            try:
                yield self.env.timeout(self.config.ts_service_time)
                selection = self.distributor.select(
                    wid, self.bucket, self.info
                )
            finally:
                # A crash interrupt mid-service must not leak an
                # in-flight request into the conflict accounting.
                if not own_stb_first:
                    self.distributor.request_finished()
            self.requests += 1
            if self.faults is not None:
                self.faults.touch(wid)

            if selection.token is not None:
                # Selection and removal are atomic (no simulated time may
                # pass in between, or two overlapping requests would win
                # the same token).
                token = selection.token
                self.bucket.remove(token)
                self.info.record_assignment(token.tid, wid)
                if tracer.enabled:
                    tracer.token_assigned(token, wid)
                self._assigned[token.iteration][token.level] += 1
                self._tokens_assigned[wid] += 1
                per_iteration = self.tokens_by_worker_per_iteration.get(
                    token.iteration
                )
                if per_iteration is not None:
                    per_iteration[wid] = per_iteration.get(wid, 0) + 1
                self._broadcast()
                contended = selection.contended and not selection.from_own_stb
                if contended:
                    # Locking: this request raced others on the shared pool
                    # and pays the serialization/retry cost (Section III-E).
                    self.conflicts += 1
                    yield self.env.timeout(self.config.conflict_overhead)
                yield self.env.timeout(latency)  # reply travels back
                self.request_latencies.append(self.env.now - request_start)
                if tracer.enabled:
                    tracer.ts_request(
                        wid,
                        request_start,
                        self.env.now,
                        granted=True,
                        conflict=contended,
                        token=token.tid,
                    )
                return token

            if self._exhausted_for(wid):
                yield self.env.timeout(latency)
                self.request_latencies.append(self.env.now - request_start)
                if tracer.enabled:
                    tracer.ts_request(
                        wid,
                        request_start,
                        self.env.now,
                        granted=False,
                        conflict=False,
                    )
                return None

            # Tokens may still be generated: wait for bucket activity.
            yield self._bucket_changed

    def report_completion(self, wid: int, token: Token):
        """Process generator: report ``token`` complete; mint successors."""
        latency = self.cluster.spec.latency
        tracer = self.env.tracer
        yield self.env.timeout(latency)
        yield self.env.timeout(self.config.ts_service_time)
        if self.faults is not None:
            self.faults.touch(wid)
            if token.tid in self._revoked:
                # Revoked while the report was in flight: the TS already
                # rolled the assignment back, so completing it now would
                # double-count.  Drop the report.
                self._revoked.discard(token.tid)
                return
        self.info.record_completion(token.tid, wid)
        if tracer.enabled:
            tracer.token_reported(token, wid)
        for fresh in self.generator.on_completion(token.tid, wid):
            self._token_index.setdefault(
                (fresh.iteration, fresh.level), []
            ).append(fresh.tid)
            if tracer.enabled:
                tracer.token_minted(fresh)
            self.bucket.add(fresh)
            if tracer.enabled:
                tracer.token_buffered(fresh)
        if self.generator.level_complete(token.iteration, token.level):
            done = self._level_done.get((token.iteration, token.level))
            if done is not None and not done.triggered:
                done.succeed(token.level)
        self._broadcast()
        # No return latency: the paper combines report+request, so the
        # follow-up request_token call pays the next leg.

    # -- elastic membership -----------------------------------------------------------

    def register_worker(self) -> int:
        """Open a slot for a joining worker; returns its new wid."""
        wid = self.worker_slots
        self.worker_slots += 1
        self.bucket.ensure_worker(wid)
        self._tokens_assigned.append(0)
        # Per-iteration attribution dicts are lazy; the new worker's
        # entries appear on its first assignment.
        return wid

    def is_revoked(self, tid: int) -> bool:
        return tid in self._revoked

    def acknowledge_revocation(self, wid: int, token: Token) -> None:
        """The assignee noticed its token was revoked and dropped it."""
        self._revoked.discard(token.tid)

    # -- failure recovery -------------------------------------------------------------

    def recover_from_failure(
        self,
        dead_wid: int,
        copy_holders: list[tuple[int, set[int]]],
    ) -> dict[str, list[_t.Any]]:
        """The recovery sweep run when a worker failure is detected.

        Phase 1 reclaims tokens the dead worker was *training* (they go
        straight back into the bucket under the same id).  Phase 2 walks
        tokens the dead worker *held the completed output of*, consumers
        before dependencies: an output nothing will ever read again is
        harmless to lose; one whose consumer already fetched a copy is
        promoted to that live copy; otherwise the consumer (if minted) is
        invalidated — revoked from its assignee if necessary — and the
        lost token is re-minted for retraining.

        ``copy_holders`` lists live workers and their fetched-chunk sets
        in deterministic (ascending wid) order.
        """
        summary: dict[str, list[_t.Any]] = {
            "reclaimed": [],
            "reminted": [],
            "invalidated": [],
            "revoked": [],
            "promoted": [],
        }
        tracer = self.env.tracer
        for tid in self.info.assigned_to(dead_wid):
            token = self.generator.registry[tid]
            self.info.unassign(tid)
            self._assigned[token.iteration][token.level] -= 1
            self._note_unassigned(dead_wid, token.iteration)
            self.bucket.add(token)
            if tracer.enabled:
                tracer.token_reclaimed(token, dead_wid)
                tracer.token_buffered(token)
            summary["reclaimed"].append(tid)

        lost = sorted(
            self.info.held_by(dead_wid),
            key=lambda tid: (-self.generator.registry[tid].level, tid),
        )
        for tid in lost:
            token = self.generator.registry[tid]
            if token.level >= self.config.levels - 1:
                # Top level: the output is a gradient consumed by the
                # level sync, not by another token.  Nothing to re-mint;
                # its contribution is the documented lost work.
                continue
            consumer_tid = self.generator.consumer_of(tid)
            consumer = (
                self.generator.registry.get(consumer_tid)
                if consumer_tid is not None
                else None
            )
            if consumer is not None:
                if self.info.is_completed(consumer.tid):
                    # Already consumed; the activation is never read
                    # again, so the loss is harmless.
                    continue
                assignee = self.info.assignee_of(consumer.tid)
                if assignee is not None:
                    copy = next(
                        (
                            holder
                            for holder, chunks in copy_holders
                            if tid in chunks
                        ),
                        None,
                    )
                    if copy is not None:
                        # The trainer already fetched the activation;
                        # its copy becomes the authoritative one.
                        self.info.transfer_holding(tid, copy)
                        summary["promoted"].append((tid, copy))
                        continue
                    self._revoke_consumer(consumer, assignee, summary)
                else:
                    self._invalidate_buffered(consumer, summary)
            self._remint_lost(token, dead_wid, summary)

        self._broadcast()
        return summary

    def _surviving_deps(
        self, consumer: Token
    ) -> list[tuple[int, int, int]]:
        """Group entries to restore for an invalidated consumer: its
        dependencies that are still completed (any holder — entries whose
        holder is also dying are withdrawn when their own re-mint runs)."""
        survivors = []
        for dep_tid in consumer.deps:
            holder = self.info.holder_of(dep_tid)
            if holder is None:
                continue
            dep = self.generator.registry[dep_tid]
            survivors.append((dep.ordinal, dep_tid, holder))
        return survivors

    def _revoke_consumer(
        self,
        consumer: Token,
        assignee: int,
        summary: dict[str, list[_t.Any]],
    ) -> None:
        survivors = self._surviving_deps(consumer)
        self.info.unassign(consumer.tid)
        self._assigned[consumer.iteration][consumer.level] -= 1
        self._note_unassigned(assignee, consumer.iteration)
        self._revoked.add(consumer.tid)
        self.generator.invalidate_consumer(consumer.tid, survivors)
        if self.env.tracer.enabled:
            self.env.tracer.token_invalidated(consumer, assignee)
        summary["revoked"].append(consumer.tid)
        summary["invalidated"].append(consumer.tid)

    def _invalidate_buffered(
        self, consumer: Token, summary: dict[str, list[_t.Any]]
    ) -> None:
        survivors = self._surviving_deps(consumer)
        self.bucket.remove(consumer)
        self.generator.invalidate_consumer(consumer.tid, survivors)
        if self.env.tracer.enabled:
            self.env.tracer.token_invalidated(consumer, None)
        summary["invalidated"].append(consumer.tid)

    def _remint_lost(
        self,
        token: Token,
        dead_wid: int,
        summary: dict[str, list[_t.Any]],
    ) -> None:
        holder = self.info.forget_completion(token.tid)
        self.generator.uncomplete(token.tid)
        self._assigned[token.iteration][token.level] -= 1
        self._note_unassigned(holder, token.iteration)
        self.bucket.add(token)
        if self.env.tracer.enabled:
            self.env.tracer.token_reminted(token, dead_wid)
            self.env.tracer.token_buffered(token)
        # The token object, not the tid: a later step of the same sweep
        # may invalidate this token (its own dependency also died),
        # deleting it from the registry.
        summary["reminted"].append(token)

    def _note_unassigned(self, wid: int, iteration: int) -> None:
        """Roll one assignment out of the per-worker attribution."""
        self._tokens_assigned[wid] -= 1
        per_iteration = self.tokens_by_worker_per_iteration.get(iteration)
        if per_iteration is not None and per_iteration.get(wid, 0) > 0:
            per_iteration[wid] -= 1

    # -- queries ---------------------------------------------------------------------

    def holder_of_token(self, tid: int) -> int | None:
        return self.info.holder_of(tid)

    def token_by_id(self, tid: int) -> Token:
        return self.generator.registry[tid]

    def participants(
        self, level: int, iteration: int | None = None
    ) -> list[int]:
        """Workers holding completed tokens of a level in one iteration.

        These are the workers that must synchronize the sub-model's
        parameters at the end of the level.  Defaults to the most
        recently opened iteration.
        """
        if iteration is None:
            iteration = self.current_iteration
        workers = set()
        for tid in self._token_index.get((iteration, level), ()):
            holder = self.info.holder_of(tid)
            if holder is not None:
                workers.add(holder)
        if self.faults is not None:
            workers = {
                wid for wid in workers if not self.faults.is_failed(wid)
            }
        return sorted(workers)

    def _exhausted_for(self, wid: int) -> bool:
        """``wid`` can never receive another token from any active
        iteration."""
        levels = self.distributor.takeable_levels(wid)
        counts = self.counts
        for assigned in self._assigned.values():
            for level in levels:
                if assigned[level] < counts[level]:
                    return False
        return True

    def all_assigned(self, iteration: int) -> bool:
        """Whether every token of ``iteration`` has been handed out."""
        assigned = self._assigned.get(iteration)
        if assigned is None:
            # Already ended: everything was assigned and completed.
            return iteration <= self.current_iteration
        return all(
            assigned[level] >= self.counts[level]
            for level in range(self.config.levels)
        )

    def bucket_changed_event(self) -> Event:
        """The event fired at the next bucket/assignment change."""
        return self._bucket_changed

    def _broadcast(self) -> None:
        event = self._bucket_changed
        if not event.callbacks:
            # Nobody waits: every waiter yields the event as soon as it
            # gets it, so firing it now would schedule an event no one
            # sees.  It stays pending for the next waiter.
            return
        self._bucket_changed = self.env.event()
        event.succeed()
