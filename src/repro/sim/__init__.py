"""Deterministic discrete-event simulation kernel.

This package is the substrate for every experiment in the Fela
reproduction: the token server, the workers, and all baselines run as
generator-based :class:`Process` objects on an :class:`Environment`.

Quick example::

    from repro.sim import Environment

    def clock(env, results):
        while env.now < 3:
            results.append(env.now)
            yield env.timeout(1)

    env = Environment()
    ticks = []
    env.process(clock(env, ticks))
    env.run()
    assert ticks == [0, 1, 2]
"""

from repro.sim.core import Environment, Infinity
from repro.sim.events import (
    LATE,
    AllOf,
    AnyOf,
    Condition,
    ConditionValue,
    Event,
    Interrupt,
    Timeout,
)
from repro.sim.process import Process
from repro.sim.resources import Resource, Store

__all__ = [
    "AllOf",
    "AnyOf",
    "Condition",
    "ConditionValue",
    "Environment",
    "Event",
    "Infinity",
    "Interrupt",
    "LATE",
    "Process",
    "Resource",
    "Store",
    "Timeout",
]
