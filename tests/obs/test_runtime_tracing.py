"""The runtime's tracing contract: zero perturbation, full coverage.

The acceptance property of the observability subsystem is that it only
*observes*: a traced run must finish at exactly the same ``total_time``
as an untraced one, while producing a complete minted->synced causal
chain for every token level.
"""

import pytest

from repro.core import FelaConfig, FelaRuntime, PipelinedFelaRuntime, SyncMode
from repro.hardware import Cluster, ClusterSpec
from repro.metrics.timeline import TimelineRecorder
from repro.obs import (
    EV_ALLREDUCE,
    EV_DELAY,
    EV_FETCH,
    EV_TRAINED,
    EV_TRANSFER,
    EV_TS_REQUEST,
    TOKEN_LIFECYCLE,
    Tracer,
    chrome_trace,
    verify_causal_chains,
)
from repro.stragglers import RoundRobinStraggler


def _make_runtime(partition, cls=FelaRuntime, straggler=None, **kwargs):
    defaults = dict(
        partition=partition,
        total_batch=128,
        num_workers=4,
        weights=(1, 2, 8),
        conditional_subset_size=2,
        iterations=2,
    )
    defaults.update(kwargs)
    config = FelaConfig(**defaults)
    cluster = Cluster(ClusterSpec(num_nodes=config.num_workers))
    return cls(config, cluster, straggler=straggler)


class TestZeroPerturbation:
    def test_traced_total_time_matches_untraced_exactly(
        self, vgg19_partition
    ):
        untraced = _make_runtime(vgg19_partition).run()
        tracer = Tracer()
        runtime = _make_runtime(vgg19_partition)
        traced_runtime = FelaRuntime(
            runtime.config,
            Cluster(ClusterSpec(num_nodes=4)),
            tracer=tracer,
        )
        traced = traced_runtime.run()
        assert traced.total_time == untraced.total_time
        assert len(tracer.events) > 0

    def test_traced_matches_untraced_under_stragglers(
        self, vgg19_partition
    ):
        untraced = _make_runtime(
            vgg19_partition, straggler=RoundRobinStraggler(2.0)
        ).run()
        tracer = Tracer()
        runtime = _make_runtime(vgg19_partition)
        traced = FelaRuntime(
            runtime.config,
            Cluster(ClusterSpec(num_nodes=4)),
            straggler=RoundRobinStraggler(2.0),
            tracer=tracer,
        ).run()
        assert traced.total_time == untraced.total_time
        delays = [e for e in tracer.events if e.name == EV_DELAY]
        assert delays and all(e.duration > 0 for e in delays)

    def test_pipelined_runtime_traces_identically(self, vgg19_partition):
        kwargs = dict(sync_mode=SyncMode.SSP, staleness=1)
        untraced = _make_runtime(
            vgg19_partition, PipelinedFelaRuntime, **kwargs
        ).run()
        runtime = _make_runtime(
            vgg19_partition, PipelinedFelaRuntime, **kwargs
        )
        traced = PipelinedFelaRuntime(
            runtime.config,
            Cluster(ClusterSpec(num_nodes=4)),
            tracer=Tracer(),
        ).run()
        assert traced.total_time == untraced.total_time


class TestTraceContents:
    @pytest.fixture()
    def traced(self, vgg19_partition):
        tracer = Tracer()
        runtime = _make_runtime(vgg19_partition)
        runtime = FelaRuntime(
            runtime.config,
            Cluster(ClusterSpec(num_nodes=4)),
            tracer=tracer,
        )
        result = runtime.run()
        return runtime, result, tracer

    def test_every_level_has_a_complete_causal_chain(self, traced):
        _, _, tracer = traced
        payload = chrome_trace(tracer.events)
        assert verify_causal_chains(payload) == []

    def test_every_lifecycle_stage_appears(self, traced):
        _, _, tracer = traced
        names = {event.name for event in tracer.events}
        for stage in TOKEN_LIFECYCLE:
            assert stage in names
        assert EV_ALLREDUCE in names
        assert EV_TRANSFER in names
        assert EV_TS_REQUEST in names

    def test_event_times_are_monotone_per_seq(self, traced):
        _, result, tracer = traced
        for event in tracer.events:
            assert 0.0 <= event.start <= result.total_time
            assert event.end <= result.total_time + 1e-9

    def test_stats_read_the_server_counters(self, traced):
        runtime, result, _ = traced
        stats = result.stats
        assert stats["ts_requests"] == runtime.server.requests
        assert stats["tokens_by_worker"] == runtime.server.tokens_by_worker
        assert (
            stats["ts_request_latency"]["count"] == stats["ts_requests"]
        )
        assert len(stats["fetch_seconds_by_worker"]) == 4
        assert len(stats["idle_seconds_by_worker"]) == 4
        assert all(v >= 0 for v in stats["idle_seconds_by_worker"])
        assert set(stats["sync_bytes_by_level"]) == {0, 1, 2}


class TestRecorderBridge:
    @staticmethod
    def _traced_timeline(partition):
        tracer = Tracer()
        runtime = _make_runtime(partition)
        FelaRuntime(
            runtime.config,
            Cluster(ClusterSpec(num_nodes=4)),
            tracer=tracer,
        ).run()
        return tracer, TimelineRecorder.from_events(tracer.events)

    def test_recorder_is_fed_from_the_trace_stream(self, vgg19_partition):
        _, recorder = self._traced_timeline(vgg19_partition)
        assert recorder.spans(kind="compute")
        assert recorder.end_time() > 0

    def test_recorder_spans_match_direct_trace(self, vgg19_partition):
        tracer, recorder = self._traced_timeline(vgg19_partition)
        for kind, name in (("compute", EV_TRAINED), ("fetch", EV_FETCH)):
            assert [
                (span.worker, span.start, span.end)
                for span in recorder.spans(kind=kind)
            ] == [
                (event.track, event.start, event.end)
                for event in tracer.events
                if event.name == name
            ]
