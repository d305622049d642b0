"""Cluster fault chaos: crash injection on a shared pool always finishes.

Hypothesis draws small bursty and Poisson traces (6–10 jobs), a
scheduler (FIFO, fair-share, throughput-elastic), a pool size, a crash
probability and a crash seed.  Every crash is routine load for the
cluster layer: the run must terminate with every job finished, hold the
pool's occupancy within ``[0, pool_size]`` at every step, give every
GPU back at the end, and rerun to the same ``repr`` of its makespan and
job rows.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import ClusterSimulator, TraceSpec, generate_trace

_traces = st.builds(
    TraceSpec,
    kind=st.sampled_from(["bursty", "poisson"]),
    num_jobs=st.integers(min_value=6, max_value=10),
    seed=st.integers(min_value=0, max_value=10_000),
    mean_interarrival=st.sampled_from([5.0, 10.0, 30.0]),
)


def _run(trace, scheduler, pool, probability, crash_seed):
    return ClusterSimulator(
        trace,
        scheduler,
        pool,
        crash_probability=probability,
        crash_seed=crash_seed,
    ).run()


@given(
    spec=_traces,
    scheduler=st.sampled_from(["fifo", "fair", "elastic"]),
    # The default trace asks for at most 2 workers per job at minimum.
    pool=st.sampled_from([2, 3, 6, 12]),
    probability=st.sampled_from([0.1, 0.3]),
    crash_seed=st.integers(min_value=0, max_value=1_000),
)
@settings(max_examples=20, deadline=None)
def test_crash_injected_cluster_finishes_and_reruns(
    spec, scheduler, pool, probability, crash_seed
):
    trace = generate_trace(spec)
    result = _run(trace, scheduler, pool, probability, crash_seed)

    assert len(result.jobs) == len(trace)
    for job in result.jobs:
        assert job["finish_time"] is not None
        assert job["finish_time"] >= job["submit_time"]
    for _, used in result.pool_timeline:
        assert 0 <= used <= pool
    assert result.pool_timeline[-1][1] == 0

    rerun = _run(trace, scheduler, pool, probability, crash_seed)
    assert repr(rerun.makespan) == repr(result.makespan)
    assert repr(rerun.jobs) == repr(result.jobs)
