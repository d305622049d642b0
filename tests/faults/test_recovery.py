"""Crash-recovery integration tests: seeded failures mid-run.

Every test runs with the :class:`InvariantChecker` attached, so token
conservation across reclaim / re-mint / invalidate is verified at every
lifecycle transition — a silent checker *is* the core assertion.
"""

import json

from repro.analysis.invariants import InvariantChecker
from repro.core import FelaConfig, FelaRuntime, PipelinedFelaRuntime
from repro.faults import FaultController, parse_faults
from repro.hardware import Cluster, ClusterSpec
from repro.obs import (
    EV_TOKEN_RECLAIMED,
    EV_TOKEN_REMINTED,
    EV_WORKER_FAILED,
    Tracer,
    chrome_trace,
    validate_chrome_trace,
)

ITERATIONS = 2


def run_faulted(
    partition,
    spec,
    cls=FelaRuntime,
    nodes=8,
    iterations=ITERATIONS,
    cluster_spec=None,
    lease_timeout=0.25,
    tracer=None,
    **config_kwargs,
):
    config = FelaConfig(
        partition=partition,
        total_batch=128,
        num_workers=8,
        weights=(1, 2, 8),
        conditional_subset_size=2,
        iterations=iterations,
        **config_kwargs,
    )
    cluster = Cluster(cluster_spec or ClusterSpec(num_nodes=nodes))
    faults = FaultController(
        parse_faults(spec), lease_timeout=lease_timeout
    )
    runtime = cls(
        config,
        cluster,
        tracer=tracer,
        invariants=InvariantChecker(),
        faults=faults,
    )
    return runtime.run()


class TestCrashRecovery:
    def test_mid_token_crash_reclaims_and_completes(self, vgg19_partition):
        result = run_faulted(vgg19_partition, "crash:3@2.0", iterations=4)
        assert len(result.records) == 4
        summary = result.stats["faults"]
        assert summary["final_states"][3] == "failed"
        assert summary["tokens_reclaimed"] >= 1
        [failure] = summary["failures"]
        assert failure["wid"] == 3
        assert failure["crash_time"] == 2.0
        # Lease detection: the monitor fires within two lease periods.
        assert 0.0 < failure["detection_seconds"] <= 0.5

    def test_crash_losing_activations_reminted(self, vgg19_partition):
        # At t=1.0 worker 0 holds completed T-1 outputs whose consumers
        # are not trained yet: the sweep must invalidate the downstream
        # tokens and re-mint the lost dependencies.
        result = run_faulted(vgg19_partition, "crash:0@1.0")
        assert len(result.records) == ITERATIONS
        summary = result.stats["faults"]
        assert summary["tokens_reminted"] >= 1
        assert summary["tokens_invalidated"] >= 1
        assert summary["lost_compute_seconds"] > 0.0

    def test_crash_mid_fetch_revokes_assigned_consumer(
        self, vgg19_partition
    ):
        # A slow fabric keeps dependency fetches in flight for seconds:
        # the holder dies while its consumer's assignee is still mid-
        # fetch, so no live copy exists and the consumer is revoked from
        # the assignee rather than promoted.
        slow = ClusterSpec(num_nodes=8, link_bandwidth=2e8)
        result = run_faulted(
            vgg19_partition,
            "crash:1@1.0",
            cluster_spec=slow,
            lease_timeout=0.1,
        )
        assert len(result.records) == ITERATIONS
        summary = result.stats["faults"]
        assert summary["tokens_revoked"] >= 1
        assert summary["tokens_reminted"] >= 1

    def test_multiple_crashes_survived(self, vgg19_partition):
        result = run_faulted(
            vgg19_partition, "crash:1@0.3,crash:6@2.9", iterations=4
        )
        assert len(result.records) == 4
        summary = result.stats["faults"]
        assert len(summary["failures"]) == 2
        states = summary["final_states"]
        assert states[1] == "failed" and states[6] == "failed"

    def test_crash_at_time_zero_stops_the_worker(self, vgg19_partition):
        # A t=0 crash lands before the runtime spawns its workers; the
        # worker must never train, or its tokens are trained twice.
        result = run_faulted(vgg19_partition, "crash:0@0.0")
        assert len(result.records) == ITERATIONS
        [failure] = result.stats["faults"]["failures"]
        assert failure["wid"] == 0 and failure["crash_time"] == 0.0
        assert all(record.work_by_worker[0] == 0 for record in result.records)

    def test_probabilistic_crashes_deterministic(self, vgg19_partition):
        results = [
            run_faulted(vgg19_partition, "crashp:0.08:3", iterations=4)
            for _ in range(2)
        ]
        assert repr(results[0].total_time) == repr(results[1].total_time)
        summaries = [json.dumps(r.stats["faults"]) for r in results]
        assert summaries[0] == summaries[1]

    def test_crash_of_last_active_worker_skipped(self, vgg19_partition):
        # Killing every worker would deadlock the run; the controller
        # must refuse the final crash and count it as skipped.
        spec = ",".join(f"crash:{wid}@1.{wid}" for wid in range(8))
        result = run_faulted(vgg19_partition, spec, iterations=1)
        assert len(result.records) == 1
        summary = result.stats["faults"]
        assert summary["skipped_crashes"] >= 1
        assert len(summary["failures"]) <= 7


class TestPipelinedCrashRecovery:
    def test_bsp_pipelined_equivalence_not_required(self, vgg19_partition):
        result = run_faulted(
            vgg19_partition,
            "crash:3@2.0",
            cls=PipelinedFelaRuntime,
            iterations=4,
            sync_mode="ssp",
            staleness=2,
        )
        assert len(result.records) == 4
        assert result.stats["faults"]["tokens_reclaimed"] >= 1

    def test_asp_crash_completes(self, vgg19_partition):
        result = run_faulted(
            vgg19_partition,
            "crash:2@1.2",
            cls=PipelinedFelaRuntime,
            iterations=4,
            sync_mode="asp",
        )
        assert len(result.records) == 4


class TestFaultTraceEvents:
    def test_crash_run_emits_causal_fault_events(self, vgg19_partition):
        tracer = Tracer()
        run_faulted(vgg19_partition, "crash:0@1.0", tracer=tracer)
        names = [event.name for event in tracer.events]
        assert EV_WORKER_FAILED in names
        assert EV_TOKEN_REMINTED in names
        failed = next(
            e for e in tracer.events if e.name == EV_WORKER_FAILED
        )
        assert failed.args["worker"] == 0
        assert failed.args["crash_time"] == 1.0
        assert failed.args["detect_time"] >= 1.0
        # Re-mint events carry the token id for causal linking.
        reminted = [
            e for e in tracer.events if e.name == EV_TOKEN_REMINTED
        ]
        assert all("token" in e.args for e in reminted)

    def test_faulted_trace_passes_schema_validation(self, vgg19_partition):
        tracer = Tracer()
        run_faulted(vgg19_partition, "crash:3@2.0", tracer=tracer)
        assert EV_TOKEN_RECLAIMED in [e.name for e in tracer.events]
        validate_chrome_trace(chrome_trace(tracer.events))
