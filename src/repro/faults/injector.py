"""Fault injectors: deterministic scripts of crash / leave / join events.

Mirrors the straggler-injector design (`repro.stragglers.injector`): every
injector is seeded or scripted, never samples wall-clock entropy, so a
faulted run replays byte-identically.  Two query surfaces exist because
faults come in two shapes:

* :meth:`FaultInjector.scripted_events` — absolute-time events (crash a
  specific worker at t=3.5, open a join slot at t=6.0).  The controller
  process sleeps toward each event time and dispatches.
* :meth:`FaultInjector.iteration_crashes` — per-iteration probabilistic
  crashes, sampled with the shared ``seed * 1_000_003 + iteration`` idiom
  when the controller learns the iteration has started.
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod
from dataclasses import dataclass

from repro.errors import ConfigurationError

KIND_CRASH = "crash"
KIND_LEAVE = "leave"
KIND_JOIN = "join"

_KINDS = frozenset({KIND_CRASH, KIND_LEAVE, KIND_JOIN})


@dataclass(frozen=True)
class FaultEvent:
    """One scripted membership event.

    ``wid`` is the target worker for crash/leave and ``None`` for join
    (the controller assigns the next free slot id).
    """

    time: float
    kind: str
    wid: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ConfigurationError(f"unknown fault kind: {self.kind!r}")
        if not self.time >= 0:  # also rejects NaN
            raise ConfigurationError(f"fault time must be >= 0: {self.time}")
        if self.kind == KIND_JOIN:
            if self.wid is not None:
                raise ConfigurationError("join events must not name a worker")
        elif self.wid is None or self.wid < 0:
            raise ConfigurationError(
                f"{self.kind} events need a worker id: {self.wid}"
            )


class FaultInjector(ABC):
    """Decides which membership events happen during a run."""

    @abstractmethod
    def scripted_events(self) -> list[FaultEvent]:
        """Absolute-time events, sorted by time."""

    def iteration_crashes(
        self, iteration: int, now: float, active: list[int]
    ) -> list[FaultEvent]:
        """Crashes to inject during ``iteration``, which started at
        ``now`` with ``active`` workers.  Event times are absolute."""
        return []

    @property
    def planned_joins(self) -> int:
        """How many join slots the cluster must reserve capacity for."""
        return sum(
            1 for ev in self.scripted_events() if ev.kind == KIND_JOIN
        )


class NoFaults(FaultInjector):
    """Fault layer enabled but no events — useful for overhead checks."""

    def scripted_events(self) -> list[FaultEvent]:
        return []


class FaultScript(FaultInjector):
    """A fixed, explicit list of events."""

    def __init__(self, events: list[FaultEvent]) -> None:
        self._events = sorted(events, key=lambda ev: (ev.time, ev.kind))

    def scripted_events(self) -> list[FaultEvent]:
        return list(self._events)


class ProbabilisticCrashes(FaultInjector):
    """Each active worker crashes with ``probability`` per iteration.

    The crash lands uniformly within ``window`` seconds of the iteration
    start, so some tokens are already in flight.  Sampling is keyed on
    ``(seed, iteration)`` only — worker membership changes do not shift
    the stream for other iterations.
    """

    def __init__(
        self,
        probability: float,
        window: float = 1.0,
        seed: int = 0,
        max_crashes: int | None = None,
    ) -> None:
        if not 0.0 <= probability <= 1.0:
            raise ConfigurationError(
                f"crash probability must be in [0, 1]: {probability}"
            )
        if not window > 0:
            raise ConfigurationError(f"crash window must be > 0: {window}")
        self.probability = probability
        self.window = window
        self.seed = seed
        self.max_crashes = max_crashes
        self._crashes_emitted = 0

    def scripted_events(self) -> list[FaultEvent]:
        return []

    def iteration_crashes(
        self, iteration: int, now: float, active: list[int]
    ) -> list[FaultEvent]:
        rng = random.Random(self.seed * 1_000_003 + iteration)
        events: list[FaultEvent] = []
        for wid in sorted(active):
            roll = rng.random()
            offset = rng.uniform(0.0, self.window)
            if roll >= self.probability:
                continue
            if (
                self.max_crashes is not None
                and self._crashes_emitted >= self.max_crashes
            ):
                continue
            self._crashes_emitted += 1
            events.append(FaultEvent(now + offset, KIND_CRASH, wid))
        return events


class CompositeFaultInjector(FaultInjector):
    """Union of several injectors (e.g. a script plus random crashes)."""

    def __init__(self, injectors: list[FaultInjector]) -> None:
        if not injectors:
            raise ConfigurationError("composite injector needs >= 1 part")
        self._injectors = list(injectors)

    def scripted_events(self) -> list[FaultEvent]:
        merged = [
            ev for inj in self._injectors for ev in inj.scripted_events()
        ]
        return sorted(merged, key=lambda ev: (ev.time, ev.kind))

    def iteration_crashes(
        self, iteration: int, now: float, active: list[int]
    ) -> list[FaultEvent]:
        merged = [
            ev
            for inj in self._injectors
            for ev in inj.iteration_crashes(iteration, now, active)
        ]
        return sorted(merged, key=lambda ev: (ev.time, ev.wid or 0))


def parse_faults(text: str) -> FaultInjector | None:
    """Parse the CLI ``--faults`` spec.

    Grammar (comma-separated clauses)::

        none                  no fault layer at all (returns None)
        crash:W@T             kill worker W at time T
        leave:W@T             worker W drains gracefully starting at T
        join@T                one new worker joins at time T
        crashp:P[:SEED]       each worker crashes with prob P per iteration

    Example: ``crash:2@3.5,join@6`` or ``crashp:0.05:7``.
    """
    text = text.strip().lower()
    if text in ("", "none", "off"):
        return None
    events: list[FaultEvent] = []
    injectors: list[FaultInjector] = []
    for clause in text.split(","):
        clause = clause.strip()
        try:
            if clause.startswith("crashp:"):
                parts = clause.split(":")[1:]
                prob = float(parts[0])
                seed = int(parts[1]) if len(parts) > 1 else 0
                injectors.append(ProbabilisticCrashes(prob, seed=seed))
            elif clause.startswith(("crash:", "leave:")):
                kind, rest = clause.split(":", 1)
                wid_text, time_text = rest.split("@", 1)
                events.append(
                    FaultEvent(float(time_text), kind, int(wid_text))
                )
            elif clause.startswith("join@"):
                events.append(
                    FaultEvent(float(clause.split("@", 1)[1]), KIND_JOIN)
                )
            else:
                raise ValueError(clause)
        except (ValueError, IndexError) as exc:
            raise ConfigurationError(
                f"bad --faults clause {clause!r}; expected crash:W@T, "
                "leave:W@T, join@T, crashp:P[:SEED], or none"
            ) from exc
    if events:
        injectors.insert(0, FaultScript(events))
    if len(injectors) == 1:
        return injectors[0]
    return CompositeFaultInjector(injectors)
