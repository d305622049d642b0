"""Metrics: the paper's evaluation quantities (Equations 3 and 4)."""

import typing as _t

from repro._lazy import lazy_exports

if _t.TYPE_CHECKING:
    from repro.metrics.results import (
        IterationRecord,
        RunResult,
        average_throughput,
        per_iteration_delay,
    )
    from repro.metrics.timeline import (
        KIND_COMPUTE,
        KIND_FETCH,
        Span,
        TimelineRecorder,
    )

__all__ = [
    "IterationRecord",
    "KIND_COMPUTE",
    "KIND_FETCH",
    "RunResult",
    "Span",
    "TimelineRecorder",
    "average_throughput",
    "per_iteration_delay",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.metrics.results": (
            "IterationRecord", "RunResult", "average_throughput",
            "per_iteration_delay",
        ),
        "repro.metrics.timeline": (
            "KIND_COMPUTE", "KIND_FETCH", "Span", "TimelineRecorder",
        ),
    },
)
