"""Sim-time-driven gauge sampling: the time-series half of observability.

The tracer (:mod:`repro.obs.tracer`) records *transitions*; this module
records *states*: at every sim-second tick a :class:`Sampler` snapshots
the gauges the paper's distribution-over-time claims are about —
per-worker busy/idle/fetch phase, token-buffer depth per level, fabric
utilization, membership epoch and active-worker count, outstanding
gradient staleness, and cumulative tokens trained.

Two implementations share one API, exactly like the tracer pair:

* :class:`NullSampler` — the default.  ``enabled`` is ``False``, every
  method is a no-op, and :class:`~repro.core.runtime.FelaRuntime` never
  constructs a sampler when none is supplied (the shared
  :data:`NULL_SAMPLER` is used), so an unsampled run costs nothing.
* :class:`Sampler` — attaches a read-only step monitor to the simulation
  :class:`~repro.sim.core.Environment`.  It never schedules events,
  never touches the queue, and only *reads* runtime state, so a sampled
  run finishes at exactly the same ``total_time`` as an unsampled one
  (the monitor hook runs between event pop and callback dispatch and is
  invisible to the schedule).

Sampling semantics: ticks land at ``k * interval`` of simulated time.
The monitor fires when the event loop pops the first event at or past a
tick, *before* that event's callbacks run — so the recorded state is the
state that actually held at the tick instant.  Several ticks crossed by
one quiet stretch all record the same (correct, unchanged) state.
"""

from __future__ import annotations

import dataclasses
import math
import typing as _t

from repro.errors import ObservabilityError

if _t.TYPE_CHECKING:  # pragma: no cover - type-only imports
    from repro.core.runtime import FelaRuntime

# -- worker phases ------------------------------------------------------------

PHASE_IDLE = "idle"
PHASE_COMPUTE = "compute"
PHASE_FETCH = "fetch"
PHASE_DELAY = "delay"
PHASE_DEAD = "dead"

#: Numeric encoding of worker phases in sample rows (values are floats
#: everywhere for a uniform schema; the dashboard maps codes to colors).
PHASE_CODES: dict[str, int] = {
    PHASE_IDLE: 0,
    PHASE_COMPUTE: 1,
    PHASE_FETCH: 2,
    PHASE_DELAY: 3,
    PHASE_DEAD: 4,
}

#: Inverse of :data:`PHASE_CODES` for renderers.
PHASE_NAMES: dict[int, str] = {
    code: name for name, code in PHASE_CODES.items()
}

# -- series names -------------------------------------------------------------

SER_WORKER_PHASE = "worker.phase"
SER_BUFFER_DEPTH = "buffer.depth"
SER_FABRIC_UTILIZATION = "fabric.utilization"
SER_FABRIC_FLOWS = "fabric.flows"
SER_ACTIVE_WORKERS = "membership.active"
SER_EPOCH = "membership.epoch"
SER_STALENESS = "staleness.outstanding"
SER_TOKENS_DONE = "tokens.completed"

#: Every series a conforming sample stream may contain.
SERIES: frozenset[str] = frozenset(
    {
        SER_WORKER_PHASE,
        SER_BUFFER_DEPTH,
        SER_FABRIC_UTILIZATION,
        SER_FABRIC_FLOWS,
        SER_ACTIVE_WORKERS,
        SER_EPOCH,
        SER_STALENESS,
        SER_TOKENS_DONE,
    }
)


@dataclasses.dataclass(frozen=True, slots=True)
class Sample:
    """One gauge observation at one sample tick.

    ``key`` distinguishes members of a labelled family (the worker id
    for :data:`SER_WORKER_PHASE`, the level for :data:`SER_BUFFER_DEPTH`)
    and is empty for cluster-wide gauges.
    """

    time: float
    series: str
    key: str
    value: float

    def __post_init__(self) -> None:
        if self.time < 0:
            raise ObservabilityError(
                f"sample at negative time {self.time} ({self.series})"
            )
        if self.series not in SERIES:
            raise ObservabilityError(
                f"unknown sample series {self.series!r}; expected one "
                f"of {sorted(SERIES)}"
            )


class NullSampler:
    """Disabled sampler: attaching is a no-op and no samples exist."""

    #: Runtime guards sampler bookkeeping on this flag.
    enabled: bool = False

    __slots__ = ()

    def attach_runtime(self, runtime: "FelaRuntime") -> None:
        """Accept (and ignore) a runtime to observe."""

    def finish(self, total_time: float) -> None:
        """Accept (and ignore) the end-of-run flush."""

    @property
    def samples(self) -> tuple[Sample, ...]:
        """Recorded samples in tick order (always empty when null)."""
        return ()


#: Module-level null sampler shared by every unsampled runtime.
NULL_SAMPLER = NullSampler()


class Sampler(NullSampler):
    """Recording sampler; see the module docstring for the contract."""

    enabled = True

    __slots__ = ("interval", "_samples", "_next", "_runtime")

    def __init__(self, interval: float = 1.0) -> None:
        if interval <= 0:
            raise ObservabilityError(
                f"sample interval must be > 0 sim-seconds: {interval}"
            )
        self.interval = float(interval)
        self._samples: list[Sample] = []
        self._next: float = 0.0
        self._runtime: "FelaRuntime | None" = None

    @property
    def samples(self) -> tuple[Sample, ...]:
        return tuple(self._samples)

    def __len__(self) -> int:
        return len(self._samples)

    # -- wiring -------------------------------------------------------------

    def attach_runtime(self, runtime: "FelaRuntime") -> None:
        """Observe ``runtime``: register the read-only step monitor.

        Called once from ``FelaRuntime.__init__``.  Ticks land on
        ``k * interval`` boundaries of *absolute* simulation time, also
        for environments constructed with a positive ``initial_time``:
        if the attach instant is itself a boundary (t=0 always is), it
        records the initial state; otherwise the first sample lands on
        the next boundary, never at the off-grid attach time.
        """
        if self._runtime is not None:
            raise ObservabilityError(
                "sampler is already attached to a runtime"
            )
        self._runtime = runtime
        env = runtime.cluster.env
        now = env.now
        interval = self.interval
        k = math.ceil(now / interval)
        boundary = k * interval
        while boundary < now:  # guard against float dust in the ceil
            k += 1
            boundary = k * interval
        if boundary == now:
            self._tick(now)
            boundary += interval
        self._next = boundary
        env.attach_monitor(self._on_step)

    def _on_step(self, now: float, _event: _t.Any) -> None:
        while now >= self._next:
            self._tick(self._next)
            self._next += self.interval

    def finish(self, total_time: float) -> None:
        """Record any ticks between the last popped event and run end."""
        while total_time >= self._next:
            self._tick(self._next)
            self._next += self.interval

    # -- the snapshot -------------------------------------------------------

    def _tick(self, at: float) -> None:
        runtime = self._runtime
        assert runtime is not None
        emit = self._samples.append
        server = runtime.server

        # Per-worker phase (stable wid order; crashes override phase).
        tokens_done = 0
        for worker in sorted(runtime.workers, key=lambda w: w.wid):
            tokens_done += worker.tokens_trained
            phase = PHASE_DEAD if worker.crashed else worker.phase
            emit(
                Sample(
                    at, SER_WORKER_PHASE, str(worker.wid),
                    float(PHASE_CODES[phase]),
                )
            )
        emit(Sample(at, SER_TOKENS_DONE, "", float(tokens_done)))

        # Token-buffer depth per level (always one row per level, so the
        # series is rectangular and the dashboard needs no gap logic).
        depths = [0] * runtime.config.levels
        for token in server.bucket.all_tokens():
            depths[token.level] += 1
        for level, depth in enumerate(depths):
            emit(Sample(at, SER_BUFFER_DEPTH, str(level), float(depth)))

        # Fabric: aggregate NIC utilization + active flow count.
        fabric = runtime.cluster.fabric
        flows = fabric.active_flows
        capacity = fabric.link_bandwidth * fabric.num_nodes
        used = sum(flow.rate for flow in flows)
        emit(
            Sample(
                at, SER_FABRIC_UTILIZATION, "",
                used / capacity if capacity > 0 else 0.0,
            )
        )
        emit(Sample(at, SER_FABRIC_FLOWS, "", float(len(flows))))

        # Membership: epoch + active workers (faultless runs have a
        # static membership of all configured workers at epoch 0).
        faults = runtime.faults
        if faults is not None and faults.membership is not None:
            membership = faults.membership
            active = len(membership.active_workers())
            epoch = membership.epoch
        else:
            active = runtime.config.num_workers
            epoch = 0
        emit(Sample(at, SER_ACTIVE_WORKERS, "", float(active)))
        emit(Sample(at, SER_EPOCH, "", float(epoch)))

        # Gradient staleness: iterations opened but not yet synced.
        emit(
            Sample(
                at, SER_STALENESS, "", float(len(runtime._sync_done))
            )
        )


# -- post-hoc views -----------------------------------------------------------


def series_points(
    samples: _t.Sequence[Sample], series: str, key: str = ""
) -> list[tuple[float, float]]:
    """``(time, value)`` points of one series member, in tick order."""
    return [
        (sample.time, sample.value)
        for sample in samples
        if sample.series == series and sample.key == key
    ]


def series_keys(
    samples: _t.Sequence[Sample], series: str
) -> list[str]:
    """The distinct keys of a labelled family, in first-seen order."""
    seen: dict[str, None] = {}
    for sample in samples:
        if sample.series == series and sample.key not in seen:
            seen[sample.key] = None
    return list(seen)
