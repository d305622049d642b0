"""Tests for the timeline recorder and Gantt rendering."""

import pytest

from repro.errors import ConfigurationError
from repro.metrics import TimelineRecorder
from repro.metrics.timeline import Span


class TestSpan:
    def test_duration(self):
        assert Span(0, "compute", 1.0, 3.5).duration == 2.5

    def test_reversed_span_rejected(self):
        with pytest.raises(ConfigurationError):
            Span(0, "compute", 3.0, 1.0)


class TestRecorder:
    def make_recorder(self):
        recorder = TimelineRecorder()
        recorder.record(0, "compute", 0.0, 4.0, "T-1")
        recorder.record(0, "fetch", 4.0, 5.0, "T-2")
        recorder.record(0, "compute", 5.0, 8.0, "T-2")
        recorder.record(1, "compute", 0.0, 2.0, "T-1")
        return recorder

    def test_filtering(self):
        recorder = self.make_recorder()
        assert len(recorder.spans()) == 4
        assert len(recorder.spans(worker=0)) == 3
        assert len(recorder.spans(kind="compute")) == 3
        assert len(recorder.spans(worker=0, kind="fetch")) == 1

    def test_busy_time_and_fraction(self):
        recorder = self.make_recorder()
        assert recorder.busy_time(0) == 7.0
        assert recorder.busy_time(1) == 2.0
        assert recorder.busy_fraction(0) == pytest.approx(7.0 / 8.0)

    def test_load_imbalance(self):
        recorder = self.make_recorder()
        # times (7, 2): mean 4.5, pstdev 2.5.
        assert recorder.load_imbalance() == pytest.approx(2.5 / 4.5)

    def test_balanced_trace_has_zero_imbalance(self):
        recorder = TimelineRecorder()
        for worker in range(4):
            recorder.record(worker, "compute", 0.0, 3.0)
        assert recorder.load_imbalance() == 0.0

    def test_empty_recorder(self):
        recorder = TimelineRecorder()
        assert recorder.workers() == []
        assert recorder.end_time() == 0.0
        assert recorder.load_imbalance() == 0.0
        assert recorder.render_gantt() == "(empty timeline)"

    def test_gantt_glyphs(self):
        recorder = self.make_recorder()
        gantt = recorder.render_gantt(width=16)
        lines = gantt.splitlines()
        assert lines[1].startswith("W0: ")
        assert "#" in lines[1]
        assert "~" in lines[1]
        assert "." in lines[2]  # worker 1 idles after t=2

    def test_gantt_width_validated(self):
        with pytest.raises(ConfigurationError):
            self.make_recorder().render_gantt(width=3)

    def test_gantt_paints_sub_cell_spans(self):
        # A span much shorter than one cell must still paint one cell —
        # regression for short fetches vanishing from the chart.
        recorder = TimelineRecorder()
        recorder.record(0, "compute", 0.0, 100.0)
        recorder.record(1, "fetch", 50.0, 50.001)
        gantt = recorder.render_gantt(width=20)
        w1_row = gantt.splitlines()[2]
        assert w1_row.startswith("W1: ")
        assert "~" in w1_row

    def test_gantt_sub_cell_span_at_the_horizon_edge(self):
        recorder = TimelineRecorder()
        recorder.record(0, "compute", 0.0, 10.0)
        recorder.record(0, "fetch", 9.9999, 10.0)  # rounds past last cell
        gantt = recorder.render_gantt(width=10)
        assert "#" in gantt.splitlines()[1]  # still renders, no IndexError


def _timeline(config, **kwargs):
    """Run ``config`` traced; the timeline of its trace events."""
    from repro.core import FelaRuntime
    from repro.obs import Tracer

    tracer = Tracer()
    FelaRuntime(config, tracer=tracer, **kwargs).run()
    return TimelineRecorder.from_events(tracer.events)


class TestRuntimeIntegration:
    def test_fela_records_compute_spans(self, vgg19_partition):
        from repro.core import FelaConfig

        config = FelaConfig(
            partition=vgg19_partition,
            total_batch=128,
            num_workers=8,
            weights=(1, 2, 8),
            iterations=1,
        )
        recorder = _timeline(config)
        # Every token shows up as exactly one compute span.
        compute_spans = recorder.spans(kind="compute")
        assert len(compute_spans) == sum(config.token_counts())
        labels = {span.label for span in compute_spans}
        assert labels == {"T-1", "T-2", "T-3"}

    def test_straggler_visible_in_imbalance(self, vgg19_partition):
        from repro.core import FelaConfig
        from repro.stragglers import RoundRobinStraggler

        config = FelaConfig(
            partition=vgg19_partition,
            total_batch=512,
            num_workers=8,
            weights=(1, 2, 8),
            iterations=1,
        )
        balanced = _timeline(config)
        skewed = _timeline(config, straggler=RoundRobinStraggler(6.0))
        assert skewed.load_imbalance() > balanced.load_imbalance()
