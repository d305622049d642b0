"""Runtime invariant checking: a sink on the tracer stream.

An :class:`InvariantChecker` is handed to
:class:`~repro.core.runtime.FelaRuntime`, which puts it on
``env.tracer``.  It is **off by default**.  With a checker attached,
the run emits exactly the events a traced run emits, so a checked run
simulates the same program as an unchecked one.  The checker stores
none of those events: it validates each one against the conservation
laws the paper's accounting relies on, then forwards it unchanged to
the runtime's recording tracer, if there is one.

* **token conservation** — at all times
  ``minted == buffered + in-flight + completed`` and the buffered count
  matches the Token Bucket's actual size, across the ADS/HF/CTD
  distribution paths; a token is distributed exactly once and completed
  exactly once;
* **iteration hygiene** — an iteration may only close once every one of
  its tokens completed, with per-level counts matching the configured
  ``token_counts()``;
* **clock monotonicity** — the event loop's timestamps never move
  backwards (:meth:`InvariantChecker.attach_env` installs a step
  monitor on the :class:`~repro.sim.core.Environment`);
* **gradient-sync accounting** — each (iteration, level) is
  synchronized exactly once, only after the level completed, and every
  ring all-reduce (the flat ring, or the group and leader rings of the
  hierarchical collective) puts ``2 * (k-1) * size`` bytes on the wire;
  a ``sync.start`` without its ``sync.level`` is a dead sync at run end.

The first breach raises :class:`~repro.errors.InvariantViolation`
carrying a serializable snapshot of the checker's counters.
"""

from __future__ import annotations

import typing as _t

from repro.errors import InvariantViolation
from repro.obs.events import (
    EV_ALLREDUCE,
    EV_ASSIGNED,
    EV_BUFFERED,
    EV_ITERATION_END,
    EV_LEVEL_SYNCED,
    EV_MINTED,
    EV_REPORTED,
    EV_SYNC_START,
    EV_TOKEN_INVALIDATED,
    EV_TOKEN_RECLAIMED,
    EV_TOKEN_REMINTED,
    EV_WORKER_JOINED,
)
from repro.obs.tracer import NullTracer, Tracer

if _t.TYPE_CHECKING:  # pragma: no cover - type-only imports
    from repro.core.bucket import TokenBucket
    from repro.core.config import FelaConfig
    from repro.core.server import TokenServer
    from repro.sim.core import Environment
    from repro.sim.events import Event

#: Token lifecycle states tracked per token id.  ``unbuffered`` is the
#: step between a mint, reclaim or re-mint and the ``token.buffered``
#: event that follows it.
_UNBUFFERED = "unbuffered"
_BUFFERED = "buffered"
_ASSIGNED = "assigned"
_COMPLETED = "completed"

#: Relative tolerance for wire-byte accounting (floating chunk sizes).
_BYTES_RTOL = 1e-9

_Args = dict[str, _t.Any]


class InvariantChecker(Tracer):
    """Validates token conservation and scheduling invariants at run time.

    Construct one per run and pass it to ``FelaRuntime(...,
    invariants=checker)``.  Every check is O(1) except at iteration/run
    boundaries, so tests can leave the checker on for full experiments.
    """

    def __init__(self) -> None:
        super().__init__()
        self.config: "FelaConfig | None" = None
        self._bucket: "TokenBucket | None" = None
        #: The recording tracer events are forwarded to, if any.
        self._forward: Tracer | None = None
        #: tid -> lifecycle state.
        self._state: dict[int, str] = {}
        #: tid -> (iteration, level).
        self._token_info: dict[int, tuple[int, int]] = {}
        #: (iteration, level) -> counters.  ``minted``/``assigned``/
        #: ``completed`` are *gross* event counts; the fault-recovery
        #: counters below reconcile them to net populations (a re-minted
        #: token is assigned and completed twice, an invalidated token
        #: was minted but never finishes).
        self._minted: dict[tuple[int, int], int] = {}
        self._assigned: dict[tuple[int, int], int] = {}
        self._completed: dict[tuple[int, int], int] = {}
        self._reclaimed: dict[tuple[int, int], int] = {}
        self._reminted: dict[tuple[int, int], int] = {}
        self._invalidated: dict[tuple[int, int], int] = {}
        self._revoked: dict[tuple[int, int], int] = {}
        self._buffered_count = 0
        self._inflight_count = 0
        self._num_workers = 0
        self._closed_iterations: set[int] = set()
        #: Levels whose ``sync.start`` has no ``sync.level`` yet.
        self._open_syncs: set[tuple[int, int]] = set()
        self._synced_levels: set[tuple[int, int]] = set()
        self._last_clock = float("-inf")
        #: Ring all-reduces whose wire bytes were checked.
        self.rings_checked = 0
        #: Total checks performed (for tests / reporting).
        self.checks = 0
        self._dispatch: dict[str, _t.Callable[[_Args], None]] = {
            EV_MINTED: self._minted_event,
            EV_BUFFERED: self._buffered_event,
            EV_ASSIGNED: self._assigned_event,
            EV_REPORTED: self._reported_event,
            EV_TOKEN_RECLAIMED: self._reclaimed_event,
            EV_TOKEN_REMINTED: self._reminted_event,
            EV_TOKEN_INVALIDATED: self._invalidated_event,
            EV_WORKER_JOINED: self._joined_event,
            EV_SYNC_START: self._sync_start_event,
            EV_LEVEL_SYNCED: self._level_synced_event,
            EV_ALLREDUCE: self._allreduce_event,
            EV_ITERATION_END: self._iteration_end_event,
        }

    # -- wiring --------------------------------------------------------------

    def bind(self, server: "TokenServer", forward: NullTracer) -> None:
        """Watch ``server``'s run: its config, its bucket and its clock.

        Events are forwarded to ``forward`` when it records.
        """
        self.config = server.config
        self._num_workers = max(self._num_workers, server.config.num_workers)
        self._bucket = server.bucket
        self._forward = forward if isinstance(forward, Tracer) else None
        self.attach_env(server.env)

    def attach_env(self, env: "Environment") -> None:
        """Read the clock of ``env`` and check that it never runs back."""
        super().attach_env(env)
        env.attach_monitor(self._on_step)

    def _on_step(self, now: float, event: "Event") -> None:
        self.checks += 1
        if now < self._last_clock:
            self._fail(
                "event loop time moved backwards",
                now=now,
                previous=self._last_clock,
                event=repr(event),
            )
        self._last_clock = now

    def _emit(
        self,
        name: str,
        category: str,
        start: float,
        duration: float,
        track: int,
        args: _Args,
    ) -> None:
        check = self._dispatch.get(name)
        if check is not None:
            self.checks += 1
            check(args)
        if self._forward is not None:
            self._forward._emit(name, category, start, duration, track, args)

    # -- token lifecycle -------------------------------------------------------

    def _minted_event(self, args: _Args) -> None:
        tid = args["token"]
        if args["iteration"] in self._closed_iterations:
            self._fail("token minted into an already-ended iteration", **args)
        if tid in self._state:
            self._fail("token minted twice", state=self._state[tid], **args)
        key = (args["iteration"], args["level"])
        self._state[tid] = _UNBUFFERED
        self._token_info[tid] = key
        self._minted[key] = self._minted.get(key, 0) + 1

    def _buffered_event(self, args: _Args) -> None:
        state = self._state.get(args["token"])
        if state != _UNBUFFERED:
            self._fail(
                "token buffered without being minted, reclaimed or re-minted",
                state=state,
                **args,
            )
        self._state[args["token"]] = _BUFFERED
        self._buffered_count += 1
        self._verify_bucket()

    def _assigned_event(self, args: _Args) -> None:
        state = self._state.get(args["token"])
        if state is None:
            self._fail("token distributed before it was minted", **args)
        if state != _BUFFERED:
            self._fail(
                "token distributed twice (duplicated work unit)",
                state=state,
                **args,
            )
        self._state[args["token"]] = _ASSIGNED
        _bump(self._assigned, args)
        self._buffered_count -= 1
        self._inflight_count += 1
        self._verify_bucket()

    def _reported_event(self, args: _Args) -> None:
        state = self._state.get(args["token"])
        if state != _ASSIGNED:
            self._fail(
                "token completed without being assigned "
                "(lost or duplicated work unit)",
                state=state,
                **args,
            )
        self._state[args["token"]] = _COMPLETED
        _bump(self._completed, args)
        self._inflight_count -= 1

    # -- fault recovery ----------------------------------------------------------

    def _reclaimed_event(self, args: _Args) -> None:
        """An in-flight token taken back from a dead worker's hands."""
        state = self._state.get(args["token"])
        if state != _ASSIGNED:
            self._fail(
                "token reclaimed without being assigned", state=state, **args
            )
        self._state[args["token"]] = _UNBUFFERED
        _bump(self._reclaimed, args)
        self._inflight_count -= 1

    def _reminted_event(self, args: _Args) -> None:
        """A completed token whose only activation copy died: back to
        the bucket for retraining."""
        state = self._state.get(args["token"])
        if state != _COMPLETED:
            self._fail(
                "token re-minted without being completed", state=state, **args
            )
        self._state[args["token"]] = _UNBUFFERED
        _bump(self._reminted, args)

    def _invalidated_event(self, args: _Args) -> None:
        """A downstream consumer withdrawn because a dependency died.

        The generator will mint a *fresh* replacement once the missing
        dependencies are re-trained, so the invalidated token leaves the
        ledger entirely.  ``assignee`` is ``None`` for a buffered one.
        """
        tid = args["token"]
        was_assigned = args["assignee"] is not None
        state = self._state.get(tid)
        expected = _ASSIGNED if was_assigned else _BUFFERED
        if state != expected:
            self._fail(
                "token invalidated from an unexpected state",
                state=state,
                expected=expected,
                **args,
            )
        del self._state[tid]
        del self._token_info[tid]
        _bump(self._invalidated, args)
        if was_assigned:
            _bump(self._revoked, args)
            self._inflight_count -= 1
        else:
            self._buffered_count -= 1
            self._verify_bucket()

    def _joined_event(self, args: _Args) -> None:
        """An elastic worker joined mid-run; widen the participant set."""
        self._num_workers = max(self._num_workers, args["worker"] + 1)

    def _verify_bucket(self) -> None:
        """The core conservation law, cross-checked against the bucket.

        ``minted == buffered + in-flight + completed`` holds by counter
        construction; the load-bearing check is that the checker's
        buffered count matches the Token Bucket's real size — a token
        the bucket lost (or holds twice) breaks the equality.
        """
        if self._bucket is not None and len(self._bucket) != (
            self._buffered_count
        ):
            self._fail(
                "token bucket size disagrees with conservation ledger",
                bucket_size=len(self._bucket),
                buffered=self._buffered_count,
            )
        if self._inflight_count < 0 or self._buffered_count < 0:
            self._fail("negative token population")

    # -- iteration boundaries and synchronization --------------------------------

    def _iteration_end_event(self, args: _Args) -> None:
        iteration = args["iteration"]
        if iteration in self._closed_iterations:
            self._fail("iteration ended twice", iteration=iteration)
        stale = [
            tid
            for tid, (it, _level) in self._token_info.items()
            if it == iteration
        ]
        for tid in stale:
            if self._state[tid] != _COMPLETED:
                self._fail(
                    "iteration ended with an unfinished token",
                    iteration=iteration,
                    tid=tid,
                    state=self._state[tid],
                )
        if self.config is not None:
            for level, count in enumerate(self.config.token_counts()):
                key = (iteration, level)
                # Net populations: recovery sweeps assign and complete
                # re-minted tokens again, and invalidated consumers are
                # replaced by fresh mints.
                nets = (
                    (
                        "minted",
                        self._minted.get(key, 0)
                        - self._invalidated.get(key, 0),
                    ),
                    (
                        "distributed",
                        self._assigned.get(key, 0)
                        - self._reclaimed.get(key, 0)
                        - self._revoked.get(key, 0)
                        - self._reminted.get(key, 0),
                    ),
                    (
                        "completed",
                        self._completed.get(key, 0)
                        - self._reminted.get(key, 0),
                    ),
                )
                for name, net in nets:
                    if net != count:
                        self._fail(
                            f"iteration closed with wrong {name} count",
                            iteration=iteration,
                            level=level,
                            expected=count,
                            actual=net,
                        )
        if self._bucket is not None:
            for token in self._bucket.all_tokens():
                if token.iteration == iteration:
                    self._fail(
                        "ended iteration left a token in the bucket",
                        iteration=iteration,
                        token=repr(token),
                    )
        self._verify_bucket()
        self._closed_iterations.add(iteration)
        for tid in stale:
            del self._state[tid]
            del self._token_info[tid]

    def _sync_start_event(self, args: _Args) -> None:
        key = (args["iteration"], args["level"])
        participants = args["participants"]
        if key in self._open_syncs or key in self._synced_levels:
            self._fail("level synchronized twice", **args)
        if len(set(participants)) != len(participants):
            self._fail("duplicate workers in synchronization", **args)
        net_completed = self._completed.get(key, 0) - self._reminted.get(
            key, 0
        )
        net_minted = self._minted.get(key, 0) - self._invalidated.get(
            key, 0
        )
        if net_completed != net_minted:
            self._fail(
                "synchronization started before the level completed",
                completed=net_completed,
                minted=net_minted,
                **args,
            )
        if self.config is not None and not set(participants).issubset(
            range(self._num_workers)
        ):
            self._fail("synchronization includes unknown workers", **args)
        self._open_syncs.add(key)

    def _level_synced_event(self, args: _Args) -> None:
        key = (args["iteration"], args["level"])
        if key not in self._open_syncs:
            self._fail("level sync finished twice or never started", **args)
        self._open_syncs.remove(key)
        self._synced_levels.add(key)

    def _allreduce_event(self, args: _Args) -> None:
        """One ring all-reduce: its wire bytes must match the closed form."""
        k = len(args["participants"])
        size = args["size_bytes"]
        expected = 2 * (k - 1) * size if k > 1 and size > 0 else 0.0
        if abs(args["wire_bytes"] - expected) > _BYTES_RTOL * max(
            expected, 1.0
        ):
            self._fail(
                "all-reduce ring moved unexpected byte volume",
                expected_bytes=expected,
                **args,
            )
        self.rings_checked += 1

    def finish(self) -> None:
        """Run-end checks: nothing buffered, in flight or mid-sync, and
        every closed iteration synchronized every level."""
        self.checks += 1
        self._verify_bucket()
        if self._inflight_count:
            self._fail(
                "run ended with tokens still in flight",
                in_flight=self._inflight_count,
            )
        if self._buffered_count:
            self._fail(
                "run ended with tokens still buffered",
                buffered=self._buffered_count,
            )
        if self._open_syncs:
            self._fail(
                "level synchronizations still open at run end",
                open=sorted(self._open_syncs),
            )
        levels = self.config.levels if self.config is not None else 0
        for iteration in self._closed_iterations:
            for level in range(levels):
                if (iteration, level) not in self._synced_levels:
                    self._fail(
                        "iteration closed without synchronizing a level",
                        iteration=iteration,
                        level=level,
                    )

    # -- internals ------------------------------------------------------------

    def snapshot(self) -> dict[str, _t.Any]:
        """Serializable view of the checker's counters (for debugging)."""
        return {
            "buffered": self._buffered_count,
            "in_flight": self._inflight_count,
            "minted_total": sum(self._minted.values()),
            "completed_total": sum(self._completed.values()),
            "reclaimed_total": sum(self._reclaimed.values()),
            "reminted_total": sum(self._reminted.values()),
            "invalidated_total": sum(self._invalidated.values()),
            "revoked_total": sum(self._revoked.values()),
            "closed_iterations": sorted(self._closed_iterations),
            "synced_levels": sorted(self._synced_levels),
            "rings_checked": self.rings_checked,
            "checks": self.checks,
        }

    def _fail(self, message: str, **details: _t.Any) -> _t.NoReturn:
        snapshot = self.snapshot()
        snapshot.update(details)
        raise InvariantViolation(message, snapshot=snapshot)


def _bump(counter: dict[tuple[int, int], int], args: _Args) -> None:
    key = (args["iteration"], args["level"])
    counter[key] = counter.get(key, 0) + 1
