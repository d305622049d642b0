"""Exception hierarchy for the Fela reproduction library.

Every exception raised intentionally by this package derives from
:class:`ReproError`, so callers can catch library failures without
accidentally swallowing programming errors.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` package."""


class SimulationError(ReproError):
    """The discrete-event simulation kernel was used incorrectly.

    Examples: running a finished environment until a never-triggered event,
    yielding a non-event from a process, or triggering an event twice.
    """


class ConfigurationError(ReproError):
    """An experiment, runtime, or hardware model was configured incorrectly."""


class TokenCountError(ConfigurationError):
    """A config's largest weight rounds its level-1 token count above the
    total batch, so some token would get no sample.

    Its own class so the tuner can drop such weight candidates by
    constructing them, without copying the rule.
    """


class CapacityError(ReproError):
    """A hardware capacity constraint was violated.

    Raised, for example, when a sub-model plus its activations for the
    requested batch size cannot fit into the simulated GPU memory.
    """


class SchedulingError(ReproError):
    """The token server or a scheduling policy reached an invalid state."""


class PartitionError(ReproError):
    """A model could not be partitioned as requested."""


class TuningError(ReproError):
    """The runtime configuration tuner was given an infeasible search space."""


class AnalysisError(ReproError):
    """The static-analysis tooling was invoked incorrectly."""


class ObservabilityError(ReproError):
    """The tracing or sampling subsystem was used or fed incorrectly.

    Examples: emitting events from a tracer that was never attached to a
    simulation environment, a non-positive sampling interval, or
    exporting/validating a malformed trace.
    """


class CacheError(ReproError):
    """The persistent result cache was fed a value it cannot represent.

    Raised when encoding an object the exact-round-trip JSON codec does
    not cover, or when decoding a cached payload back into a result
    object fails.  Note that a *corrupt cache file* never raises: the
    strict loader evicts the entry and reports a miss, so a damaged
    cache only ever costs a recomputation.
    """


class LedgerError(ReproError):
    """The run ledger was used or fed incorrectly.

    Examples: opening a ledger file written with a different schema
    version, recording rows with missing required columns, or a
    validation pass over a ledger whose rows reference runs/sweeps
    that were never recorded.
    """


class BenchmarkError(ReproError):
    """The performance lab was used or fed incorrectly.

    Examples: requesting an unknown benchmark scenario, reading a
    missing/malformed/old-schema regression store, or a scenario whose
    repeated runs disagree (a determinism breach the runner refuses to
    average over).
    """


class InvariantViolation(ReproError):
    """A runtime invariant of the token machinery or simulator broke.

    Raised by :class:`repro.analysis.invariants.InvariantChecker` when
    token conservation, iteration hygiene, clock monotonicity, or
    gradient-sync accounting fails.  Carries a ``snapshot`` dict of the
    checker's counters at the moment of the breach;
    :meth:`serialized_snapshot` renders it as stable JSON for logs and
    bug reports.
    """

    def __init__(
        self, message: str, snapshot: dict[str, object] | None = None
    ) -> None:
        super().__init__(message)
        self.snapshot: dict[str, object] = dict(snapshot or {})

    def serialized_snapshot(self) -> str:
        import json

        return json.dumps(self.snapshot, sort_keys=True, default=repr)

    def __str__(self) -> str:
        base = super().__str__()
        if not self.snapshot:
            return base
        return f"{base} [snapshot: {self.serialized_snapshot()}]"
