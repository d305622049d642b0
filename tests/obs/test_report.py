"""Run-report rendering: critical path and straggler attribution."""

from repro.core import FelaConfig, FelaRuntime
from repro.hardware import Cluster, ClusterSpec
from repro.obs import (
    EV_TRAINED,
    Tracer,
    critical_path,
    render_run_report,
    straggler_attribution,
)
from repro.stragglers import RoundRobinStraggler


def _traced(partition, straggler=None):
    config = FelaConfig(
        partition=partition,
        total_batch=128,
        num_workers=4,
        weights=(1, 2, 8),
        conditional_subset_size=2,
        iterations=2,
    )
    tracer = Tracer()
    result = FelaRuntime(
        config,
        Cluster(ClusterSpec(num_nodes=4)),
        straggler=straggler,
        tracer=tracer,
    ).run()
    return result, tracer


class TestCriticalPath:
    def test_walks_dependency_chain_to_the_last_sync(self, vgg19_partition):
        _, tracer = _traced(vgg19_partition)
        path = critical_path(tracer.events)
        assert path, "expected a non-empty critical path"
        # Every hop is a training span and levels never decrease.
        levels = [hop.args["level"] for hop in path]
        assert all(hop.name == EV_TRAINED for hop in path)
        assert levels == sorted(levels)
        # Consecutive hops are causally ordered in time.
        for earlier, later in zip(path, path[1:]):
            assert earlier.end <= later.end

    def test_empty_trace_has_empty_path(self):
        assert critical_path(()) == []


class TestStragglerAttribution:
    def test_delayed_workers_are_attributed(self, vgg19_partition):
        _, tracer = _traced(
            vgg19_partition, straggler=RoundRobinStraggler(2.0)
        )
        attribution = straggler_attribution(tracer.events)
        assert attribution, "round-robin straggler must show up"
        for row in attribution.values():
            assert row["delay"] > 0
            assert 0.0 <= row["absorbed"] <= row["delay"] + 1e-9

    def test_no_stragglers_no_rows(self, vgg19_partition):
        _, tracer = _traced(vgg19_partition)
        assert straggler_attribution(tracer.events) == {}


class TestRenderRunReport:
    def test_contains_all_sections(self, vgg19_partition):
        result, tracer = _traced(
            vgg19_partition, straggler=RoundRobinStraggler(2.0)
        )
        report = render_run_report(result, tracer.events)
        for heading in (
            "Run report",
            "Worker activity",
            "Critical path",
            "Straggler attribution",
            "Token server",
            "Synchronization",
        ):
            assert heading in report
        assert result.model_name in report

    def test_renders_without_registry(self, vgg19_partition):
        """The token-server lines read ``result.stats``."""
        result, tracer = _traced(vgg19_partition)
        report = render_run_report(result, tracer.events)
        stats = result.stats
        assert stats["ts_requests"] > 0
        assert (
            f"-- Token server --\n  {stats['ts_requests']} requests, "
            f"{stats['ts_conflicts']} conflicts\n"
        ) in report
        latency = stats["ts_request_latency"]
        assert (
            f"  request latency mean {latency['mean'] * 1e3:.3f} ms, "
            f"p95 {latency['p95'] * 1e3:.3f} ms, "
            f"max {latency['max'] * 1e3:.3f} ms"
        ) in report

    def test_no_faults_attached_no_faults_section(self, vgg19_partition):
        result, tracer = _traced(vgg19_partition)
        assert "Faults and degradation" not in render_run_report(
            result, tracer.events
        )


class TestFaultsSection:
    def _faulted(self, partition, script):
        from repro.faults import FaultController, parse_faults

        config = FelaConfig(
            partition=partition,
            total_batch=128,
            num_workers=4,
            weights=(1, 2, 8),
            conditional_subset_size=2,
            iterations=3,
        )
        tracer = Tracer()
        result = FelaRuntime(
            config,
            Cluster(ClusterSpec(num_nodes=4)),
            tracer=tracer,
            faults=FaultController(parse_faults(script)),
        ).run()
        return result, tracer

    def test_crash_accounting_is_reported(self, vgg19_partition):
        result, tracer = self._faulted(vgg19_partition, "crash:0@1.0")
        report = render_run_report(result, tracer.events)
        assert "-- Faults and degradation --" in report
        assert "W0 crashed at 1.000 s" in report
        assert "detected in" in report
        assert "compute lost" in report
        summary = result.stats["faults"]
        detection = sum(summary["recovery_detection_seconds"])
        assert f"{detection:.3f} s detection latency" in report

    def test_membership_changes_are_reported(self, vgg19_partition):
        result, tracer = self._faulted(vgg19_partition, "leave:1@2.0")
        report = render_run_report(result, tracer.events)
        assert "left gracefully: W1" in report
        assert "(no worker failures)" in report
