"""Tracers: the single instrumentation surface of the simulated runtime.

Two implementations share one API:

* :class:`NullTracer` — the default.  Every method is a no-op and
  ``enabled`` is ``False``, so instrumented hot paths can skip argument
  construction entirely (``if tracer.enabled: ...``) and a run without
  tracing costs nothing (null-object pattern; no ``if tracer is not
  None`` branches at call sites).
* :class:`Tracer` — records :class:`~repro.obs.events.TraceEvent`
  objects in emission order.  It reads its clock from the simulation
  :class:`~repro.sim.core.Environment` it is attached to and never
  schedules anything, so attaching a tracer cannot perturb a run: a
  traced simulation finishes at exactly the same ``total_time`` as an
  untraced one.

Components find the active tracer on the environment
(``env.tracer``), which :class:`~repro.core.runtime.FelaRuntime` sets
when one is supplied — the one wiring point for the whole token
machinery, the collectives, and the network fabric.  The runtime's
:class:`~repro.analysis.invariants.InvariantChecker` is a ``Tracer``
too: it overrides the :meth:`Tracer._emit` funnel to check each event
instead of storing it, then forwards it to the recording tracer.
"""

from __future__ import annotations

import typing as _t

from repro.errors import ObservabilityError
from repro.obs.events import (
    CAT_FAULT,
    CAT_NETWORK,
    CAT_STRAGGLER,
    CAT_SYNC,
    CAT_TOKEN,
    CAT_TS,
    CAT_WORKER,
    EV_ALLREDUCE,
    EV_ASSIGNED,
    EV_BUFFERED,
    EV_DELAY,
    EV_FETCH,
    EV_ITERATION_END,
    EV_LEVEL_SYNCED,
    EV_MINTED,
    EV_REPORTED,
    EV_SYNC_START,
    EV_TOKEN_INVALIDATED,
    EV_TOKEN_RECLAIMED,
    EV_TOKEN_REMINTED,
    EV_TRAINED,
    EV_TRANSFER,
    EV_TS_REQUEST,
    EV_WORKER_FAILED,
    EV_WORKER_JOINED,
    EV_WORKER_LEFT,
    TS_TRACK,
    TraceEvent,
)

if _t.TYPE_CHECKING:  # pragma: no cover - type-only imports
    from repro.core.tokens import Token


class NullTracer:
    """Disabled tracer: every operation is a no-op, every query empty."""

    #: Call sites guard non-trivial argument construction on this flag.
    enabled: bool = False

    __slots__ = ()

    def attach_env(self, env: _t.Any) -> None:
        """Accept (and ignore) a simulation environment."""

    def now(self) -> float:
        return 0.0

    @property
    def events(self) -> tuple[TraceEvent, ...]:
        """Recorded events in emission order (always empty when null)."""
        return ()

    # -- generic emission ---------------------------------------------------

    def instant(
        self,
        name: str,
        category: str,
        track: int = TS_TRACK,
        **args: _t.Any,
    ) -> None:
        """Record an instantaneous event at the current simulation time."""

    def span(
        self,
        name: str,
        category: str,
        start: float,
        end: float,
        track: int = TS_TRACK,
        **args: _t.Any,
    ) -> None:
        """Record a completed time interval."""

    # -- token lifecycle ----------------------------------------------------

    def token_minted(self, token: "Token") -> None:
        """The Token Generator produced ``token``."""

    def token_buffered(self, token: "Token") -> None:
        """``token`` entered the Token Bucket (its home worker's STB)."""

    def token_assigned(self, token: "Token", wid: int) -> None:
        """The distributor handed ``token`` to worker ``wid``."""

    def token_trained(
        self, token: "Token", wid: int, start: float, end: float
    ) -> None:
        """Worker ``wid`` computed ``token`` over ``[start, end]``."""

    def token_reported(self, token: "Token", wid: int) -> None:
        """The TS processed worker ``wid``'s completion report."""

    def iteration_ended(self, iteration: int) -> None:
        """The TS is about to drop ``iteration``'s bookkeeping."""

    def sync_started(
        self, iteration: int, level: int, participants: _t.Sequence[int]
    ) -> None:
        """A level's gradient synchronization is about to start."""

    def level_synced(
        self,
        iteration: int,
        level: int,
        participants: _t.Sequence[int],
        wire_bytes: float,
    ) -> None:
        """A level's gradient synchronization finished."""

    # -- spans around the token lifecycle -----------------------------------

    def ts_request(
        self,
        wid: int,
        start: float,
        end: float,
        *,
        granted: bool,
        conflict: bool,
        token: int | None = None,
    ) -> None:
        """One complete TS request round-trip by worker ``wid``."""

    def fetch(
        self,
        wid: int,
        token: "Token",
        start: float,
        end: float,
        nbytes: float,
    ) -> None:
        """Worker ``wid`` fetched ``token``'s inputs over the fabric."""

    def straggler_delay(
        self, wid: int, iteration: int, start: float, end: float
    ) -> None:
        """Worker ``wid`` served an injected straggler delay."""

    def transfer(
        self, src: int, dst: int, nbytes: float, start: float, end: float
    ) -> None:
        """One network flow completed on the fabric."""

    def allreduce(
        self,
        workers: _t.Sequence[int],
        size_bytes: float,
        wire_bytes: float,
        start: float,
        end: float,
        context: _t.Any = None,
    ) -> None:
        """One gradient all-reduce collective completed."""

    # -- faults & elastic membership ----------------------------------------

    def worker_failed(
        self,
        wid: int,
        *,
        crash_time: float,
        reclaimed: int,
        reminted: int,
    ) -> None:
        """The TS detected worker ``wid``'s death (lease expiry)."""

    def token_reclaimed(self, token: "Token", dead_wid: int) -> None:
        """An in-flight token taken back from a dead worker."""

    def token_reminted(self, token: "Token", dead_wid: int) -> None:
        """A completed token re-entered the bucket for retraining."""

    def token_invalidated(
        self, token: "Token", assignee: int | None
    ) -> None:
        """A downstream consumer withdrawn after a dependency died."""

    def worker_joined(self, wid: int, *, iteration: int) -> None:
        """An elastic worker joined, first pulling at ``iteration``."""

    def worker_left(self, wid: int) -> None:
        """A draining worker finished its graceful leave."""


#: Module-level null tracer shared by every untraced environment.
NULL_TRACER = NullTracer()


class Tracer(NullTracer):
    """Recording tracer; see the module docstring for the contract."""

    enabled = True

    __slots__ = ("_events", "_seq", "_env")

    def __init__(self) -> None:
        self._events: list[TraceEvent] = []
        self._seq: int = 0
        self._env: _t.Any = None

    def attach_env(self, env: _t.Any) -> None:
        """Bind the tracer's clock to a simulation environment."""
        self._env = env

    def now(self) -> float:
        if self._env is None:
            raise ObservabilityError(
                "tracer is not attached to a simulation environment; "
                "call attach_env() (FelaRuntime does this automatically)"
            )
        return self._env.now

    @property
    def events(self) -> tuple[TraceEvent, ...]:
        return tuple(self._events)

    def __len__(self) -> int:
        return len(self._events)

    # -- emission -----------------------------------------------------------

    def _emit(
        self,
        name: str,
        category: str,
        start: float,
        duration: float,
        track: int,
        args: dict[str, _t.Any],
    ) -> None:
        self._events.append(
            TraceEvent(
                name=name,
                category=category,
                start=start,
                duration=duration,
                track=track,
                seq=self._seq,
                args=args,
            )
        )
        self._seq += 1

    def instant(
        self,
        name: str,
        category: str,
        track: int = TS_TRACK,
        **args: _t.Any,
    ) -> None:
        self._emit(name, category, self.now(), 0.0, track, args)

    def span(
        self,
        name: str,
        category: str,
        start: float,
        end: float,
        track: int = TS_TRACK,
        **args: _t.Any,
    ) -> None:
        if end < start:
            raise ObservabilityError(
                f"span {name!r} ends before it starts: [{start}, {end}]"
            )
        self._emit(name, category, start, end - start, track, args)

    # -- token lifecycle ----------------------------------------------------

    def _token_args(self, token: "Token") -> dict[str, _t.Any]:
        return {
            "token": token.tid,
            "level": token.level,
            "iteration": token.iteration,
            "token_type": token.type_name,
        }

    def token_minted(self, token: "Token") -> None:
        args = self._token_args(token)
        args["home"] = token.home_worker
        args["batch"] = token.batch
        args["deps"] = list(token.deps)
        self._emit(EV_MINTED, CAT_TOKEN, self.now(), 0.0, TS_TRACK, args)

    def token_buffered(self, token: "Token") -> None:
        args = self._token_args(token)
        args["stb"] = token.home_worker
        self._emit(EV_BUFFERED, CAT_TOKEN, self.now(), 0.0, TS_TRACK, args)

    def token_assigned(self, token: "Token", wid: int) -> None:
        args = self._token_args(token)
        args["worker"] = wid
        self._emit(EV_ASSIGNED, CAT_TOKEN, self.now(), 0.0, wid, args)

    def token_trained(
        self, token: "Token", wid: int, start: float, end: float
    ) -> None:
        args = self._token_args(token)
        args["worker"] = wid
        args["batch"] = token.batch
        self._emit(EV_TRAINED, CAT_TOKEN, start, end - start, wid, args)

    def token_reported(self, token: "Token", wid: int) -> None:
        args = self._token_args(token)
        args["worker"] = wid
        self._emit(EV_REPORTED, CAT_TOKEN, self.now(), 0.0, wid, args)

    def iteration_ended(self, iteration: int) -> None:
        self.instant(EV_ITERATION_END, CAT_TS, iteration=iteration)

    def sync_started(
        self, iteration: int, level: int, participants: _t.Sequence[int]
    ) -> None:
        self.instant(
            EV_SYNC_START,
            CAT_SYNC,
            iteration=iteration,
            level=level,
            participants=list(participants),
        )

    def level_synced(
        self,
        iteration: int,
        level: int,
        participants: _t.Sequence[int],
        wire_bytes: float,
    ) -> None:
        self._emit(
            EV_LEVEL_SYNCED,
            CAT_SYNC,
            self.now(),
            0.0,
            TS_TRACK,
            {
                "iteration": iteration,
                "level": level,
                "participants": list(participants),
                "wire_bytes": wire_bytes,
            },
        )

    # -- spans --------------------------------------------------------------

    def ts_request(
        self,
        wid: int,
        start: float,
        end: float,
        *,
        granted: bool,
        conflict: bool,
        token: int | None = None,
    ) -> None:
        self.span(
            EV_TS_REQUEST,
            CAT_TS,
            start,
            end,
            track=wid,
            worker=wid,
            granted=granted,
            conflict=conflict,
            token=token,
        )

    def fetch(
        self,
        wid: int,
        token: "Token",
        start: float,
        end: float,
        nbytes: float,
    ) -> None:
        self.span(
            EV_FETCH,
            CAT_WORKER,
            start,
            end,
            track=wid,
            worker=wid,
            token=token.tid,
            token_type=token.type_name,
            bytes=nbytes,
        )

    def straggler_delay(
        self, wid: int, iteration: int, start: float, end: float
    ) -> None:
        self.span(
            EV_DELAY,
            CAT_STRAGGLER,
            start,
            end,
            track=wid,
            worker=wid,
            iteration=iteration,
        )

    def transfer(
        self, src: int, dst: int, nbytes: float, start: float, end: float
    ) -> None:
        self.span(
            EV_TRANSFER,
            CAT_NETWORK,
            start,
            end,
            track=src,
            src=src,
            dst=dst,
            bytes=nbytes,
        )

    def allreduce(
        self,
        workers: _t.Sequence[int],
        size_bytes: float,
        wire_bytes: float,
        start: float,
        end: float,
        context: _t.Any = None,
    ) -> None:
        args: dict[str, _t.Any] = {
            "participants": list(workers),
            "size_bytes": size_bytes,
            "wire_bytes": wire_bytes,
        }
        if (
            isinstance(context, tuple)
            and len(context) == 2
            and all(isinstance(part, int) for part in context)
        ):
            args["iteration"], args["level"] = context
        elif context is not None:
            args["context"] = repr(context)
        self.span(EV_ALLREDUCE, CAT_SYNC, start, end, track=TS_TRACK, **args)

    # -- faults & elastic membership ----------------------------------------

    def worker_failed(
        self,
        wid: int,
        *,
        crash_time: float,
        reclaimed: int,
        reminted: int,
    ) -> None:
        self.instant(
            EV_WORKER_FAILED,
            CAT_FAULT,
            track=wid,
            worker=wid,
            crash_time=crash_time,
            detect_time=self.now(),
            reclaimed=reclaimed,
            reminted=reminted,
        )

    def token_reclaimed(self, token: "Token", dead_wid: int) -> None:
        args = self._token_args(token)
        args["dead_worker"] = dead_wid
        self._emit(
            EV_TOKEN_RECLAIMED, CAT_FAULT, self.now(), 0.0, TS_TRACK, args
        )

    def token_reminted(self, token: "Token", dead_wid: int) -> None:
        args = self._token_args(token)
        args["dead_worker"] = dead_wid
        self._emit(
            EV_TOKEN_REMINTED, CAT_FAULT, self.now(), 0.0, TS_TRACK, args
        )

    def token_invalidated(
        self, token: "Token", assignee: int | None
    ) -> None:
        args = self._token_args(token)
        args["assignee"] = assignee
        self._emit(
            EV_TOKEN_INVALIDATED, CAT_FAULT, self.now(), 0.0, TS_TRACK, args
        )

    def worker_joined(self, wid: int, *, iteration: int) -> None:
        self.instant(
            EV_WORKER_JOINED,
            CAT_FAULT,
            track=wid,
            worker=wid,
            iteration=iteration,
        )

    def worker_left(self, wid: int) -> None:
        self.instant(EV_WORKER_LEFT, CAT_FAULT, track=wid, worker=wid)
