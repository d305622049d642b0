"""The structured trace-event model: one vocabulary for the whole runtime.

Every instrumented component — the :class:`~repro.core.server.TokenServer`,
the workers, the collectives, the network fabric — emits
:class:`TraceEvent` records through a single
:class:`~repro.obs.tracer.Tracer`.  Events are *causally linkable*: token
lifecycle events carry the token id in their ``args``, so an exporter can
reconstruct the full ``minted -> buffered -> assigned -> trained ->
reported -> level-synced`` chain of any token, and a critical-path
analysis can walk dependency edges backwards through time.

Timestamps are simulation seconds straight from the event loop's clock;
``duration`` is zero for instantaneous lifecycle transitions and positive
for spans (training, fetches, network transfers, straggler delays,
gradient synchronizations, TS request round-trips).
"""

from __future__ import annotations

import dataclasses
import typing as _t

from repro.errors import ObservabilityError

#: Track (Chrome "thread") used for events not tied to one worker: the
#: Token Server, the runtime, and gradient synchronizations.
TS_TRACK: int = -1

# -- categories ---------------------------------------------------------------

CAT_TOKEN = "token"
CAT_SYNC = "sync"
CAT_NETWORK = "network"
CAT_STRAGGLER = "straggler"
CAT_TS = "ts"
CAT_WORKER = "worker"
CAT_FAULT = "fault"
CAT_CLUSTER = "cluster"

#: Every category a conforming trace may contain.
CATEGORIES: frozenset[str] = frozenset(
    {
        CAT_TOKEN,
        CAT_SYNC,
        CAT_NETWORK,
        CAT_STRAGGLER,
        CAT_TS,
        CAT_WORKER,
        CAT_FAULT,
        CAT_CLUSTER,
    }
)

# -- event names --------------------------------------------------------------

EV_MINTED = "token.minted"
EV_BUFFERED = "token.buffered"
EV_ASSIGNED = "token.assigned"
EV_TRAINED = "token.trained"
EV_REPORTED = "token.reported"
EV_LEVEL_SYNCED = "sync.level"
EV_SYNC_START = "sync.start"
EV_ITERATION_END = "iteration.end"
EV_ALLREDUCE = "sync.allreduce"
EV_TRANSFER = "net.transfer"
EV_DELAY = "straggler.delay"
EV_TS_REQUEST = "ts.request"
EV_FETCH = "worker.fetch"

# Fault-injection / elastic-membership events (category CAT_FAULT).
EV_WORKER_FAILED = "worker.failed"
EV_TOKEN_RECLAIMED = "token.reclaimed"
EV_TOKEN_REMINTED = "token.reminted"
EV_TOKEN_INVALIDATED = "token.invalidated"
EV_WORKER_JOINED = "worker.joined"
EV_WORKER_LEFT = "worker.left"

# Multi-tenant job lifecycle events (category CAT_CLUSTER).  The track
# is the cluster job id; ``repro.cluster`` emits these so a whole
# scheduler run can be read as one Chrome trace.
EV_JOB_SUBMITTED = "job.submitted"
EV_JOB_STARTED = "job.started"
EV_JOB_RESIZED = "job.resized"
EV_JOB_FINISHED = "job.finished"

#: The token lifecycle stages, in causal order.  A *complete* chain has
#: every stage once, followed by the level's :data:`EV_ALLREDUCE` span.
TOKEN_LIFECYCLE: tuple[str, ...] = (
    EV_MINTED,
    EV_BUFFERED,
    EV_ASSIGNED,
    EV_TRAINED,
    EV_REPORTED,
)


@dataclasses.dataclass(frozen=True, slots=True)
class TraceEvent:
    """One structured observation of the simulated runtime.

    ``seq`` is the tracer's emission counter: it makes ordering total and
    deterministic even when several events share a timestamp (common in a
    discrete-event simulation, where whole scheduling cascades happen at
    one instant).
    """

    name: str
    category: str
    #: Simulation time the event (or span) started, in seconds.
    start: float
    #: Span length in seconds; 0.0 for instantaneous lifecycle events.
    duration: float
    #: Worker id, or :data:`TS_TRACK` for server/runtime-side events.
    track: int
    #: Emission order, unique per tracer.
    seq: int
    #: Structured payload (token id, level, iteration, byte counts, ...).
    args: _t.Mapping[str, _t.Any] = dataclasses.field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.duration < 0:
            raise ObservabilityError(
                f"event {self.name!r} has negative duration: "
                f"{self.duration}"
            )
        if self.category not in CATEGORIES:
            raise ObservabilityError(
                f"event {self.name!r} has unknown category "
                f"{self.category!r}; expected one of {sorted(CATEGORIES)}"
            )

    @property
    def end(self) -> float:
        """Simulation time the event (or span) ended."""
        return self.start + self.duration

    @property
    def is_span(self) -> bool:
        """Whether the event covers a time interval (vs an instant)."""
        return self.duration > 0
