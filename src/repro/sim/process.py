"""Generator-based simulation processes.

A *process function* is a generator function that yields
:class:`~repro.sim.events.Event` objects.  Wrapping it in :class:`Process`
registers it with the environment; the process runs until its generator
returns (the return value becomes the process's event value) or raises.
"""

from __future__ import annotations

import typing as _t
from heapq import heappush

from repro.errors import SimulationError
from repro.sim.events import (
    PENDING,
    URGENT,
    Event,
    Initialize,
    Interrupt,
    Interruption,
    Timeout,
)

if _t.TYPE_CHECKING:  # pragma: no cover
    from repro.sim.core import Environment

#: Type alias for the generators accepted by :class:`Process`.
ProcessGenerator = _t.Generator[Event, _t.Any, _t.Any]


class Process(Event):
    """An event-yielding generator registered with an environment.

    A ``Process`` is itself an :class:`Event` that triggers when the
    generator terminates, so processes can wait for each other simply by
    yielding the other process.
    """

    __slots__ = ("_generator", "_target", "_resume_cb")

    def __init__(self, env: "Environment", generator: ProcessGenerator) -> None:
        if not hasattr(generator, "send") or not hasattr(generator, "throw"):
            raise SimulationError(
                f"{generator!r} is not a generator; did you forget to call "
                "the process function?"
            )
        super().__init__(env)
        self._generator = generator
        #: One bound method reused for every subscription this process
        #: ever makes (binding ``self._resume`` afresh per wait is pure
        #: allocator churn on the hottest path).
        self._resume_cb = self._resume
        #: The event this process currently waits on (``None`` while active).
        self._target: Event | None = Initialize(env, self)

    def __repr__(self) -> str:
        return f"<Process({self.name}) at {hex(id(self))}>"

    @property
    def name(self) -> str:
        """The name of the wrapped generator function."""
        return getattr(self._generator, "__name__", str(self._generator))

    @property
    def is_alive(self) -> bool:
        """``True`` while the generator has not terminated."""
        return self._value is PENDING

    @property
    def target(self) -> Event | None:
        """The event the process currently waits on, if any."""
        return self._target

    def interrupt(self, cause: _t.Any = None) -> None:
        """Throw an :class:`Interrupt` into the process.

        The interrupt is delivered as an urgent event, so it takes effect at
        the current simulation time but not re-entrantly.  Interrupting a
        terminated process is an error.
        """
        Interruption(self, cause)

    def _resume(self, event: Event) -> None:
        """Advance the generator with the outcome of ``event``.

        This is the hottest frame in every simulation (it runs once per
        process wake-up), so the generator, environment, and resume
        callback are cached in locals, and process termination pushes
        straight onto the event heap — the same entry
        ``env.schedule(self, priority=URGENT)`` would push, minus the
        call overhead.
        """
        env = self.env
        generator = self._generator
        env._active_proc = self
        while True:
            try:
                if event._ok:
                    next_event = generator.send(event._value)
                else:
                    # The exception is now being handed to the process; the
                    # process becomes responsible for it.
                    event._defused = True
                    next_event = generator.throw(
                        _t.cast(BaseException, event._value)
                    )
            except StopIteration as stop:
                self._ok = True
                self._value = stop.value
                eid = env._eid
                env._eid = eid + 1
                heappush(env._queue, (env._now, URGENT, eid, self))
                break
            except BaseException as exc:
                self._ok = False
                self._value = exc
                # Attach a hint about which process died for debuggability.
                if not getattr(exc, "__repro_process__", None):
                    exc.__repro_process__ = self.name  # type: ignore[attr-defined]
                eid = env._eid
                env._eid = eid + 1
                heappush(env._queue, (env._now, URGENT, eid, self))
                break

            # ``__class__ is Event/Timeout`` catches the overwhelmingly
            # common yields without the full isinstance scan.
            cls = next_event.__class__
            if cls is not Event and cls is not Timeout and not isinstance(
                next_event, Event
            ):
                error = SimulationError(
                    f"process {self.name!r} yielded a non-event: {next_event!r}"
                )
                try:
                    generator.throw(error)
                except StopIteration as stop:
                    self._ok = True
                    self._value = stop.value
                    env.schedule(self, priority=URGENT)
                    break
                except BaseException as exc:
                    self._ok = False
                    self._value = exc
                    env.schedule(self, priority=URGENT)
                    break
                continue

            callbacks = next_event.callbacks
            if callbacks is not None:
                # The event has not been processed yet: subscribe and pause.
                callbacks.append(self._resume_cb)
                self._target = next_event
                break

            # The event was already processed; feed its value immediately.
            event = next_event

        self._target = None if self._value is not PENDING else self._target
        env._active_proc = None
