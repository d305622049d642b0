"""Execution timelines: per-worker activity traces and a text Gantt view.

The paper's load-balance story ("faster workers ... earn more workload to
compute") is best seen on a timeline.  A :class:`TimelineRecorder` is
built from a traced run's events (:meth:`TimelineRecorder.from_events`):
every input fetch and every token computation becomes a span, and the
recorder can answer utilization questions and render a Gantt chart in
plain text.
"""

from __future__ import annotations

import dataclasses
import statistics
import typing as _t

from repro.errors import ConfigurationError

#: Activity categories recorded by the runtime.
KIND_COMPUTE = "compute"
KIND_FETCH = "fetch"
KIND_IDLE = "idle"

_GANTT_GLYPHS = {KIND_COMPUTE: "#", KIND_FETCH: "~"}


@dataclasses.dataclass(frozen=True)
class Span:
    """One contiguous activity interval on one worker."""

    worker: int
    kind: str
    start: float
    end: float
    label: str = ""

    def __post_init__(self) -> None:
        if self.end < self.start:
            raise ConfigurationError(
                f"span ends before it starts: [{self.start}, {self.end}]"
            )

    @property
    def duration(self) -> float:
        return self.end - self.start


class TimelineRecorder:
    """Collects :class:`Span` records and summarizes them."""

    def __init__(self) -> None:
        self._spans: list[Span] = []

    def record(
        self,
        worker: int,
        kind: str,
        start: float,
        end: float,
        label: str = "",
    ) -> None:
        self._spans.append(Span(worker, kind, start, end, label))

    def ingest(self, events: _t.Iterable[_t.Any]) -> None:
        """Replay compute/fetch spans from a trace-event stream.

        ``events`` is a sequence of :class:`~repro.obs.events.TraceEvent`
        (a :class:`~repro.obs.tracer.Tracer`'s ``events``), so the
        timeline is a view of the same trace stream the exporters
        consume.
        """
        # Imported lazily: repro.metrics must stay importable without
        # dragging in the obs exporters (which import it back for types).
        from repro.obs.exporters import timeline_spans

        for worker, kind, start, end, label in timeline_spans(events):
            self.record(worker, kind, start, end, label)

    @classmethod
    def from_events(cls, events: _t.Iterable[_t.Any]) -> "TimelineRecorder":
        """Build a recorder directly from a trace-event stream."""
        recorder = cls()
        recorder.ingest(events)
        return recorder

    # -- queries -----------------------------------------------------------------

    def spans(
        self, worker: int | None = None, kind: str | None = None
    ) -> list[Span]:
        """Recorded spans, optionally filtered."""
        return [
            span
            for span in self._spans
            if (worker is None or span.worker == worker)
            and (kind is None or span.kind == kind)
        ]

    def workers(self) -> list[int]:
        return sorted({span.worker for span in self._spans})

    def end_time(self) -> float:
        return max((span.end for span in self._spans), default=0.0)

    def busy_time(self, worker: int, kind: str = KIND_COMPUTE) -> float:
        return sum(span.duration for span in self.spans(worker, kind))

    def busy_fraction(self, worker: int, kind: str = KIND_COMPUTE) -> float:
        """Fraction of the trace duration the worker spent on ``kind``."""
        horizon = self.end_time()
        if horizon <= 0:
            return 0.0
        return self.busy_time(worker, kind) / horizon

    def load_imbalance(self) -> float:
        """Coefficient of variation of per-worker compute time.

        0 = perfectly balanced.  The paper's elastic-tuning claim is that
        Fela keeps this low even under stragglers.
        """
        workers = self.workers()
        if len(workers) < 2:
            return 0.0
        times = [self.busy_time(worker) for worker in workers]
        mean = statistics.mean(times)
        if mean == 0:
            return 0.0
        return statistics.pstdev(times) / mean

    # -- rendering ---------------------------------------------------------------

    def render_gantt(self, width: int = 78) -> str:
        """ASCII Gantt chart: one row per worker.

        ``#`` marks computation, ``~`` input fetches, ``.`` idle time.
        """
        if width < 10:
            raise ConfigurationError(f"gantt width too small: {width}")
        horizon = self.end_time()
        if horizon <= 0:
            return "(empty timeline)"
        scale = width / horizon
        lines = [
            f"t = 0 .. {horizon:.3f}s  ('#' compute, '~' fetch, '.' idle)"
        ]
        for worker in self.workers():
            row = ["."] * width
            for span in self.spans(worker):
                glyph = _GANTT_GLYPHS.get(span.kind)
                if glyph is None:
                    continue
                first = min(width - 1, int(span.start * scale))
                last = min(width - 1, int(span.end * scale) - 1)
                if last < first:
                    # A span shorter than one cell still paints one cell:
                    # dropping it entirely would hide short fetches (and
                    # whole fast tokens) from the chart.
                    last = first
                for cell in range(first, last + 1):
                    # Compute wins over fetch when spans round onto the
                    # same cell.
                    if row[cell] == "." or glyph == "#":
                        row[cell] = glyph
            lines.append(f"W{worker}: {''.join(row)}")
        return "\n".join(lines)
