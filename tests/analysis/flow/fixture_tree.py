"""The seeded fixture tree, as sources the tests write to disk.

Three sim modules and one exec module with six planted determinism
bugs (pinned in ``test_self_flow.py``) and one clean module.  Keeping
them as strings, not files, keeps every on-disk tree clean under every
rule, so ``repro analyze src tests benchmarks examples`` exits 0.
"""

import pathlib

SOURCES = {
    "src/repro/__init__.py": "",
    "src/repro/exec/__init__.py": "",
    "src/repro/exec/submit.py": '''\
"""Fixture: a JobSpec construction capturing unpicklable state.

``ProbeJob`` inherits from a class named ``JobSpec``, so FELA103 must
flag the lambda transform and the unseeded RNG handed to its
constructor — both would break byte-identical parallel fan-out.
"""

from __future__ import annotations

import random


class JobSpec:
    def __init__(self, **kwargs):
        self.kwargs = kwargs


class ProbeJob(JobSpec):
    pass


def submit_probe(queue):
    job = ProbeJob(
        transform=lambda sample: sample * 2,
        rng=random.Random(),  # repro: noqa-FELA002
    )
    queue.append(job)
    return job
''',
    "src/repro/sim/__init__.py": "",
    "src/repro/sim/clean.py": '''\
"""Fixture: determinism-correct sim code — must yield zero findings.

Exercises the patterns the flow rules must NOT flag: constant delays,
sorted iteration over a set, a set comprehension (whose result is
unordered anyway), a ``with``-scoped resource request, and a helper
that genuinely returns an Event.
"""

from __future__ import annotations


def backoff_seconds(attempt: int) -> float:
    return min(2.0**attempt, 30.0)


def make_pause(env, seconds):
    return env.timeout(seconds)


def settle(env, holders, tokens):
    for wid in sorted(set(holders)):
        env.schedule(tokens[wid], 0, 0.5)
    alive = {wid for wid in holders if wid >= 0}
    yield env.timeout(backoff_seconds(len(alive)))


def borrow_link(env, link):
    with link.request() as claim:
        yield claim
        yield make_pause(env, 1.0)


def release_by_hand(env, link):
    claim = link.request()
    yield claim
    yield env.timeout(1.0)
    claim.cancel()
''',
    "src/repro/sim/clocks.py": '''\
"""Fixture: a wall-clock read laundered through two helpers.

Neither helper is itself a sim process, so the syntactic FELA001 rule
(scoped to sim call sites) never connects the dots; only the
interprocedural FELA101 taint walk can.
"""

from __future__ import annotations

import time


def _raw_clock() -> float:
    return time.time()  # repro: noqa-FELA001


def jitter_seconds() -> float:
    """Pseudo-jitter derived from the host clock (a determinism bug)."""
    return _raw_clock() % 1.0
''',
    "src/repro/sim/workload.py": '''\
"""Fixture: sim processes with seeded determinism bugs.

* ``warmup`` feeds the laundered wall-clock value from
  :mod:`repro.sim.clocks` into ``env.timeout`` (FELA101).
* ``drain_tokens`` iterates an unordered ``set`` of token holders and
  schedules work in that order (FELA102).
* ``peek_progress`` yields a plain number from a sim process (FELA104).
* ``hold_link`` requests a resource and never releases it (FELA105).
"""

from __future__ import annotations

from repro.sim.clocks import jitter_seconds


def warmup(env):
    delay = jitter_seconds()
    yield env.timeout(delay)


def drain_tokens(env, holders, tokens):
    pending = set(holders)
    for wid in pending:
        env.schedule(tokens[wid], 0, 0.5)
    yield env.timeout(1.0)


def peek_progress(env, counter):
    yield env.timeout(1.0)
    yield counter + 1


def hold_link(env, link):
    claim = link.request()
    yield claim
    yield env.timeout(2.0)
''',
}


def write_fixture_tree(root: pathlib.Path) -> pathlib.Path:
    """Write the fixture tree under ``root``; returns ``root``."""
    for relative, source in SOURCES.items():
        path = root / relative
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(source)
    return root
