"""The Fela worker: Trainer + Coordinator + Parameter Chunks (paper Fig. 2).

Per token, the worker:

1. fetches its inputs — raw samples from the sample owner's storage for
   T-1 tokens, or the dependency tokens' boundary activations from the
   workers holding them (remote fetches go over the fabric; local reads
   are free);
2. computes the sub-model's forward+backward pass on its GPU (any
   injected straggler delay prolongs this, per the paper's methodology);
3. stores the output activation in its local Parameter Chunks;
4. reports completion to the TS and immediately requests the next token
   (the paper combines report and request).

The Coordinator is modelled implicitly: remote parameter fetches are
pull-based fabric transfers from the holder recorded in Info Mapping —
byte-for-byte what the paper's push-based notification achieves.

Workers emit fetch, compute, and straggler-delay spans through
``env.tracer`` (see :mod:`repro.obs.tracer`); the ASCII timeline is now
derived from that trace stream rather than recorded directly here.
"""

from __future__ import annotations

import typing as _t

from repro.core.server import TokenServer
from repro.core.tokens import Token
from repro.errors import SchedulingError
from repro.faults.signals import ReviveWork, WorkerCrash
from repro.obs.timeseries import (
    PHASE_COMPUTE,
    PHASE_DELAY,
    PHASE_FETCH,
    PHASE_IDLE,
)
from repro.hardware import Node
from repro.sim import Interrupt

if _t.TYPE_CHECKING:  # pragma: no cover
    from repro.sim import Event

    class _RuntimeProtocol(_t.Protocol):
        """What a worker needs from its runtime."""

        def iteration_opened(self, iteration: int) -> "Event": ...

        def start_delay(self, iteration: int, wid: int) -> float: ...


class Worker:
    """One Fela worker bound to a cluster node."""

    def __init__(
        self,
        server: TokenServer,
        node: Node,
        wid: int,
    ) -> None:
        self.server = server
        self.node = node
        self.wid = wid
        self.config = server.config
        #: Parameter Chunks: token ids whose output activations are stored
        #: locally (authoritative or fetched copies).
        self.chunks: set[int] = set()
        #: Elastic-run state: parked means blocked awaiting new work and
        #: safe to wake with a ReviveWork interrupt.
        self._parked = False
        self.crashed = False
        #: What the worker is doing *right now* (a phase constant from
        #: :mod:`repro.obs.timeseries`); read by the sampler, never by
        #: the scheduler, so updating it cannot perturb a run.
        self.phase = PHASE_IDLE
        # Statistics.
        self.tokens_trained: int = 0
        self.bytes_fetched: float = 0.0
        self.compute_seconds: float = 0.0
        self.fetch_seconds: float = 0.0
        self.delay_seconds: float = 0.0

    def __repr__(self) -> str:
        return f"<Worker {self.wid}>"

    # -- iteration driver -----------------------------------------------------

    def run_loop(
        self, runtime: "_RuntimeProtocol", first_iteration: int = 0
    ):
        """The worker's whole-run training loop (a process generator).

        For every iteration: wait for the runtime to open it, serve the
        straggler injector's start delay, then pull-train-report tokens
        until the iteration can give this worker no more work.  A worker
        still sleeping when its iteration ends simply joins the next one
        late — the cluster does not wait for it (that elasticity is the
        point of token-based scheduling).

        With the fault layer attached the loop additionally survives
        crash interrupts, drains on leave, joins mid-run (at
        ``first_iteration``), and wakes from parking when a recovery
        sweep re-mints tokens.
        """
        if self.server.faults is not None:
            return self._run_elastic(runtime, first_iteration)
        return self._run_plain(runtime)

    def _run_plain(self, runtime: "_RuntimeProtocol"):
        env = self.server.env
        for iteration in range(self.config.iterations):
            yield runtime.iteration_opened(iteration)
            start_delay = runtime.start_delay(iteration, self.wid)
            if start_delay > 0:
                # Straggler injection: the worker may not start work until
                # ``start_delay`` seconds into the iteration.
                delay_from = env.now
                self.phase = PHASE_DELAY
                yield env.timeout(start_delay)
                self.phase = PHASE_IDLE
                self.delay_seconds += env.now - delay_from
                if env.tracer.enabled:
                    env.tracer.straggler_delay(
                        self.wid, iteration, delay_from, env.now
                    )
            while True:
                token = yield from self.server.request_token(self.wid)
                if token is None:
                    break
                yield from self._train_token(token)
            self.chunks.clear()  # Parameter Chunks are per-iteration

    # -- elastic driver (fault layer attached) --------------------------------

    def _run_elastic(
        self, runtime: "_RuntimeProtocol", first_iteration: int
    ):
        if self.crashed:  # crashed before this process first ran
            return
        try:
            yield from self._elastic_iterations(runtime, first_iteration)
        except Interrupt as interrupt:
            if isinstance(interrupt.cause, WorkerCrash):
                # Fatal: unwind the whole loop.  Resource context
                # managers (the GPU) release on the way out; the TS
                # learns of the death via lease expiry, not from here.
                self.crashed = True
                return
            raise

    def _elastic_iterations(
        self, runtime: "_RuntimeProtocol", first_iteration: int
    ):
        env = self.server.env
        for iteration in range(first_iteration, self.config.iterations):
            while True:
                outcome = yield from self._park_until(
                    runtime.iteration_opened(iteration)
                )
                if outcome == "opened":
                    break
                # Revived: a recovery sweep put tokens of a still-open
                # earlier iteration back into the bucket.
                if (yield from self._pull_tokens()) == "departed":
                    return
            start_delay = runtime.start_delay(iteration, self.wid)
            if start_delay > 0:
                delay_from = env.now
                self.phase = PHASE_DELAY
                yield env.timeout(start_delay)
                self.phase = PHASE_IDLE
                self.delay_seconds += env.now - delay_from
                if env.tracer.enabled:
                    env.tracer.straggler_delay(
                        self.wid, iteration, delay_from, env.now
                    )
            if (yield from self._pull_tokens()) == "departed":
                return
            self.chunks.clear()  # Parameter Chunks are per-iteration
        # All iterations served.  Stay parked instead of terminating: a
        # late failure may re-mint final-iteration tokens that only this
        # worker can absorb.  The run ends with the main process; parked
        # workers are simply abandoned then.
        while True:
            outcome = yield from self._park_until(env.event())
            if outcome == "revived":
                if (yield from self._pull_tokens()) == "departed":
                    return

    def _park_until(self, event: "Event"):
        """Wait for ``event``; returns "opened" when it fired or
        "revived" when a ReviveWork interrupt woke us first."""
        self._parked = True
        try:
            yield event
        except Interrupt as interrupt:
            if not isinstance(interrupt.cause, ReviveWork):
                raise
            return "revived"
        finally:
            self._parked = False
        return "opened"

    def _pull_tokens(self):
        """Request/train until exhausted ("exhausted") or told to leave
        ("departed")."""
        faults = self.server.faults
        while True:
            token = yield from self.server.request_token(self.wid)
            if token is None:
                if faults is not None and faults.should_depart(self.wid):
                    faults.worker_departed(self.wid)
                    return "departed"
                return "exhausted"
            yield from self._train_token(token)

    # -- token execution ----------------------------------------------------------

    def _train_token(self, token: Token):
        env = self.server.env
        tracer = env.tracer
        server = self.server
        if server.faults is not None and server.is_revoked(token.tid):
            # Revoked between assignment and arrival (a dependency died
            # unfetched): drop it before resolving holders.
            server.acknowledge_revocation(self.wid, token)
            return
        fetch_start = env.now
        bytes_before = self.bytes_fetched
        self.phase = PHASE_FETCH
        yield from self._fetch_inputs(token)
        self.phase = PHASE_IDLE
        if env.now > fetch_start:
            self.fetch_seconds += env.now - fetch_start
            if tracer.enabled:
                tracer.fetch(
                    self.wid,
                    token,
                    fetch_start,
                    env.now,
                    self.bytes_fetched - bytes_before,
                )
        if server.faults is not None and server.is_revoked(token.tid):
            # Revoked while the fetch was in flight.  Once every
            # dependency is locally chunked the token can no longer be
            # revoked, so no check is needed past this point.
            server.acknowledge_revocation(self.wid, token)
            return
        submodel = self.config.partition[token.level]
        duration = self.node.gpu_spec.train_time(
            submodel.layers, token.batch
        )
        before = env.now
        self.phase = PHASE_COMPUTE
        yield from self.node.compute(duration)
        self.phase = PHASE_IDLE
        self.compute_seconds += env.now - before
        if tracer.enabled:
            tracer.token_trained(token, self.wid, before, env.now)
        self.chunks.add(token.tid)
        self.tokens_trained += 1
        yield from self.server.report_completion(self.wid, token)

    def _fetch_inputs(self, token: Token):
        env = self.server.env
        if token.level == 0:
            # Raw training samples live on the home worker's local storage.
            owner = token.home_worker
            if owner != self.wid:
                size = token.batch * self.config.partition.model.input_bytes
                yield self.node.cluster.fabric.transfer(
                    owner, self.wid, size
                )
                self.bytes_fetched += size
            return

        upstream = self.config.partition[token.level - 1]
        requests: list[tuple[int, int, float]] = []
        pending: list[tuple[int, float]] = []
        for dep_tid in token.deps:
            if dep_tid in self.chunks:
                continue  # already local (we trained or fetched it)
            holder = self.server.holder_of_token(dep_tid)
            if holder is None:
                raise SchedulingError(
                    f"token {token.tid} scheduled before dependency "
                    f"{dep_tid} completed"
                )
            if holder == self.wid:
                continue
            dep = self.server.token_by_id(dep_tid)
            size = dep.batch * upstream.output_bytes
            requests.append((holder, self.wid, size))
            pending.append((dep_tid, size))
        if requests:
            batch = self.node.cluster.fabric.transfer_many(requests)
            yield env.all_of((batch,))
        # Account only once the transfers have resolved: an interrupted
        # fetch must not leave phantom bytes or a chunk never received.
        for dep_tid, size in pending:
            self.bytes_fetched += size
            self.chunks.add(dep_tid)
