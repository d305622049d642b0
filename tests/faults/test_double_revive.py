"""Regression: two failures handled close together must not revive a
worker twice.

Each failure sweep wakes every parked worker with a ``ReviveWork``
interrupt.  When a worker's park flag was only cleared once the interrupt
*arrived*, a second sweep before that could queue another one, which then
hit the worker inside ``TokenServer.request_token`` and killed the run.
"""

from repro.analysis.invariants import InvariantChecker
from repro.cluster import ClusterSimulator, TraceSpec, generate_trace
from repro.faults import FaultController, parse_faults
from repro.harness import ExperimentRunner, ExperimentSpec


def test_single_job_crashes_94ms_apart():
    """``repro run vgg19 --workers 8 --iterations 3 --faults
    crash:5@6.017,crash:2@6.111 --check-invariants``."""
    result = ExperimentRunner().run(
        "fela",
        ExperimentSpec(
            model_name="vgg19", total_batch=256, num_workers=8, iterations=3
        ),
        faults=FaultController(parse_faults("crash:5@6.017,crash:2@6.111")),
        invariants=InvariantChecker(),
    )
    assert result.iterations == 3
    assert len(result.stats["faults"]["failures"]) == 2


def test_cluster_crash_injection_run_completes():
    """A bursty 8-job trace under the elastic scheduler with crash seed
    7: a ``ReviveWork`` crash before the fix."""
    trace = generate_trace(
        TraceSpec(kind="bursty", num_jobs=8, seed=0, mean_interarrival=30.0)
    )
    result = ClusterSimulator(
        trace, "elastic", 6, crash_probability=0.1, crash_seed=7
    ).run()
    assert len(result.jobs) == len(trace)
    assert result.pool_timeline[-1][1] == 0
