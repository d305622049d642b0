"""The typed seam between the runtime and its timeline recorder.

:class:`~repro.core.runtime.FelaRuntime` accepts any structurally
conforming ``recorder``; the shipped implementation is
:class:`~repro.metrics.timeline.TimelineRecorder`.  Everything else the
runtime reports goes through the tracer stream
(:class:`~repro.obs.tracer.NullTracer` defines that API).
"""

from __future__ import annotations

import typing as _t

from repro.obs.events import TraceEvent


@_t.runtime_checkable
class SpanSink(_t.Protocol):
    """A timeline consumer fed from the trace stream after a run.

    :class:`~repro.metrics.timeline.TimelineRecorder` is the shipped
    implementation; anything with these two methods can be handed to
    :class:`~repro.core.runtime.FelaRuntime` as ``recorder``.
    """

    def record(
        self,
        worker: int,
        kind: str,
        start: float,
        end: float,
        label: str = "",
    ) -> None: ...

    def ingest(self, events: _t.Sequence[TraceEvent]) -> None: ...
