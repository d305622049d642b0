"""Straggler injectors, following the paper's methodology (Section V-C2).

"We follow the method in [10], [11] to generate straggler effect and add
sleeping delays to workers, so as to prolong their computation time."

A delay of ``d`` seconds for worker ``w`` in iteration ``k`` means the
worker may not *start computing* until ``d`` seconds into the iteration —
its inputs may still arrive meanwhile.  This matches the paper's analysis
of MP under stragglers ("the sleeping delay just overlaps with the
original idle time").

Two published scenarios plus one for the transient-straggler discussion:

* :class:`RoundRobinStraggler` — worker ``k mod N`` is slowed by ``d``
  seconds in iteration ``k``.
* :class:`ProbabilityStraggler` — every worker is independently slowed by
  ``d`` seconds with probability ``p``, per iteration (seeded RNG).
* :class:`TransientStraggler` — stragglers switch rapidly: a random subset
  is hit each iteration, with hit lengths of only 1-2 iterations, the
  regime where proactive periodic re-partitioning misfires (III-C).
"""

from __future__ import annotations

import abc
import random

from repro.errors import ConfigurationError


class StragglerInjector(abc.ABC):
    """Produces per-worker start delays for each iteration."""

    @abc.abstractmethod
    def delays(self, iteration: int, num_workers: int) -> list[float]:
        """Start delays (seconds) per worker for ``iteration``."""

    @property
    def name(self) -> str:
        return type(self).__name__


class NoStraggler(StragglerInjector):
    """The non-straggler scenario."""

    def delays(self, iteration: int, num_workers: int) -> list[float]:
        return [0.0] * num_workers


class RoundRobinStraggler(StragglerInjector):
    """Worker ``k mod N`` is slowed by ``d`` seconds in iteration ``k``."""

    def __init__(self, delay: float) -> None:
        if not delay >= 0:  # also rejects NaN
            raise ConfigurationError(f"delay must be >= 0: {delay}")
        self.delay = float(delay)

    def delays(self, iteration: int, num_workers: int) -> list[float]:
        result = [0.0] * num_workers
        result[iteration % num_workers] = self.delay
        return result


class ProbabilityStraggler(StragglerInjector):
    """Each worker straggles with probability ``p`` each iteration."""

    def __init__(self, probability: float, delay: float, seed: int = 0) -> None:
        if not 0 <= probability <= 1:
            raise ConfigurationError(
                f"probability must be in [0, 1]: {probability}"
            )
        if not delay >= 0:  # also rejects NaN
            raise ConfigurationError(f"delay must be >= 0: {delay}")
        self.probability = float(probability)
        self.delay = float(delay)
        self.seed = seed

    def delays(self, iteration: int, num_workers: int) -> list[float]:
        # Deterministic per (seed, iteration): comparative runs of
        # different runtimes see the *same* straggler pattern, which is
        # what makes AT comparisons meaningful.
        rng = random.Random(self.seed * 1_000_003 + iteration)
        return [
            self.delay if rng.random() < self.probability else 0.0
            for _ in range(num_workers)
        ]


class TransientStraggler(StragglerInjector):
    """Rapidly switching stragglers (the paper's transient regime).

    Each iteration, ``hits`` distinct workers are slowed; the afflicted
    set is re-drawn every ``persistence`` iterations, so a straggler
    rarely stays a straggler — the case where delayed proactive
    re-distribution backfires (Section III-C).
    """

    def __init__(
        self,
        delay: float,
        hits: int = 1,
        persistence: int = 1,
        seed: int = 0,
    ) -> None:
        if not delay >= 0:  # also rejects NaN
            raise ConfigurationError(f"delay must be >= 0: {delay}")
        if hits < 0:
            raise ConfigurationError(f"hits must be >= 0: {hits}")
        if persistence < 1:
            raise ConfigurationError(
                f"persistence must be >= 1: {persistence}"
            )
        self.delay = float(delay)
        self.hits = hits
        self.persistence = persistence
        self.seed = seed

    def delays(self, iteration: int, num_workers: int) -> list[float]:
        epoch = iteration // self.persistence
        rng = random.Random(self.seed * 1_000_003 + epoch)
        afflicted = rng.sample(
            range(num_workers), min(self.hits, num_workers)
        )
        result = [0.0] * num_workers
        for wid in afflicted:
            result[wid] = self.delay
        return result
