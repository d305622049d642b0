"""Fault injection and elastic membership for the Fela simulation.

Public surface:

* :class:`FaultController` — wires an injector into a runtime; owns
  lease-based failure detection and the recovery sweep.
* :class:`Membership` — the worker lifecycle state machine.
* Injectors — :class:`FaultScript`, :class:`ProbabilisticCrashes`,
  :class:`CompositeFaultInjector`, :class:`NoFaults`, plus
  :func:`parse_faults` for the CLI ``--faults`` grammar.
* Signals — :class:`WorkerCrash` / :class:`ReviveWork` interrupt causes.
"""

import typing as _t

from repro._lazy import lazy_exports

if _t.TYPE_CHECKING:
    from repro.faults.controller import FailureRecord, FaultController
    from repro.faults.injector import (
        KIND_CRASH,
        KIND_JOIN,
        KIND_LEAVE,
        CompositeFaultInjector,
        FaultEvent,
        FaultInjector,
        FaultScript,
        NoFaults,
        ProbabilisticCrashes,
        parse_faults,
    )
    from repro.faults.membership import (
        ACTIVE,
        DRAINING,
        FAILED,
        JOINING,
        LEFT,
        Membership,
    )
    from repro.faults.signals import FaultSignal, ReviveWork, WorkerCrash

__all__ = [
    "ACTIVE",
    "DRAINING",
    "FAILED",
    "JOINING",
    "LEFT",
    "KIND_CRASH",
    "KIND_JOIN",
    "KIND_LEAVE",
    "CompositeFaultInjector",
    "FailureRecord",
    "FaultController",
    "FaultEvent",
    "FaultInjector",
    "FaultScript",
    "FaultSignal",
    "Membership",
    "NoFaults",
    "ProbabilisticCrashes",
    "ReviveWork",
    "WorkerCrash",
    "parse_faults",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.faults.controller": ("FailureRecord", "FaultController"),
        "repro.faults.injector": (
            "KIND_CRASH", "KIND_JOIN", "KIND_LEAVE", "CompositeFaultInjector",
            "FaultEvent", "FaultInjector", "FaultScript", "NoFaults",
            "ProbabilisticCrashes", "parse_faults",
        ),
        "repro.faults.membership": (
            "ACTIVE", "DRAINING", "FAILED", "JOINING", "LEFT", "Membership",
        ),
        "repro.faults.signals": ("FaultSignal", "ReviveWork", "WorkerCrash"),
    },
)
