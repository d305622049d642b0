"""Resumed successive halving: a live BSP run equals a fresh one.

Under BSP the tuner's halving keeps one :class:`FelaRuntime` per Phase-1
candidate and advances it rung by rung instead of re-simulating it from
t = 0.  That is exact only because the first k iterations of a deeper
BSP run are bit-for-bit a fresh k-iteration run; these tests pin that
property, the unchanged tuning results, and the SSP/ASP fallback to
re-simulation.
"""

import pytest

from repro.core import FelaConfig, FelaRuntime
from repro.errors import CapacityError, ConfigurationError
from repro.hardware import Cluster, ClusterSpec, GpuSpec
from repro.stragglers import RoundRobinStraggler
from repro.tuning import PHASE1_HALVING, ConfigurationTuner

#: Phase-1 shaped candidates (subset = N) of vgg19 at N = 8.
WEIGHTS = ((1, 1, 1), (1, 2, 4), (1, 1, 8), (1, 8, 8))

VARIANTS = {
    "plain": (None, ClusterSpec(num_nodes=8)),
    "round_robin": (RoundRobinStraggler(2.0), ClusterSpec(num_nodes=8)),
    "speed_factors": (
        None,
        ClusterSpec(
            num_nodes=8,
            gpu_speed_factors=(1.0, 0.7, 1.0, 1.3, 1.0, 0.9, 1.0, 1.1),
        ),
    ),
}


#: On a 7 GB GPU the (1, 8, 8) candidate OOMs: halving must still
#: profile it as inf on the resumed path.
OOM_SPEC = ClusterSpec(num_nodes=8, gpu=GpuSpec(memory_bytes=7e9))


def _config(partition, weights, iterations, **extra):
    return FelaConfig(
        partition=partition,
        total_batch=256,
        num_workers=8,
        weights=weights,
        conditional_subset_size=8,
        iterations=iterations,
        **extra,
    )


@pytest.mark.parametrize("variant", sorted(VARIANTS))
def test_interleaved_advance_equals_fresh_runs(vgg19_partition, variant):
    straggler, spec = VARIANTS[variant]
    depth = 3
    live = [
        FelaRuntime(
            _config(vgg19_partition, weights, depth),
            Cluster(spec),
            straggler=straggler,
        )
        for weights in WEIGHTS
    ]
    for k in range(1, depth + 1):
        # Advance every run one rung before any goes deeper, as the
        # tuner does, so the runs' simulations interleave.
        for weights, runtime in zip(WEIGHTS, live):
            fresh = FelaRuntime(
                _config(vgg19_partition, weights, k),
                Cluster(spec),
                straggler=straggler,
            ).run()
            assert runtime.advance(k) == fresh.mean_iteration_time, (
                f"{weights} at k={k}"
            )


def test_advance_to_a_recorded_iteration_simulates_nothing(
    vgg19_partition,
):
    config = _config(vgg19_partition, (1, 1, 8), 2)
    first = FelaRuntime(
        config.replace(iterations=1), Cluster(ClusterSpec(num_nodes=8))
    ).run().mean_iteration_time
    runtime = FelaRuntime(config, Cluster(ClusterSpec(num_nodes=8)))
    second = runtime.advance(2)
    events = runtime.cluster.env.scheduled_events
    assert runtime.advance(1) == first
    assert runtime.advance(2) == second
    assert runtime.cluster.env.scheduled_events == events
    with pytest.raises(ConfigurationError, match="iteration 3 of 2"):
        runtime.advance(3)


def test_advance_rejects_ssp(vgg19_partition):
    runtime = FelaRuntime(
        _config(
            vgg19_partition, (1, 1, 8), 2, sync_mode="ssp", staleness=1
        ),
        Cluster(ClusterSpec(num_nodes=8)),
    )
    with pytest.raises(ConfigurationError, match="needs BSP"):
        runtime.advance(1)


@pytest.mark.parametrize(
    "spec, warmup",
    [
        # 10 + 5 + 3 Phase-1 iterations plus 3 x 3 in Phase 2, against
        # 10 + 5 x 2 + 3 x 3 + 9 restarted.
        (ClusterSpec(num_nodes=8), (27, 38)),
        # The (1, 8, 8) candidate OOMs at construction and is pruned at
        # rung 1 without simulating: 9 + 5 + 3 + 9 and 9 + 10 + 9 + 9.
        (OOM_SPEC, (26, 37)),
    ],
    ids=["plain", "oom"],
)
def test_resumed_halving_matches_restarted_halving(
    vgg19_partition, spec, warmup, monkeypatch
):
    def tune():
        return ConfigurationTuner(
            vgg19_partition,
            total_batch=256,
            num_workers=8,
            cluster_spec=spec,
            profile_iterations=3,
        ).tune(phase1=PHASE1_HALVING)

    resumed = tune()
    monkeypatch.setattr(ConfigurationTuner, "_resumable", lambda self: False)
    restarted = tune()
    assert resumed.cases == restarted.cases
    assert (
        resumed.best_weights,
        resumed.best_subset_size,
        resumed.cases_profiled,
        resumed.cases_pruned,
    ) == (
        restarted.best_weights,
        restarted.best_subset_size,
        restarted.cases_profiled,
        restarted.cases_pruned,
    )
    # Warm-up counts what each path simulated.
    assert (
        resumed.warmup_iterations, restarted.warmup_iterations
    ) == warmup


def test_oom_shape_has_an_infeasible_candidate(vgg19_partition):
    with pytest.raises(CapacityError):
        FelaRuntime(
            _config(vgg19_partition, (1, 8, 8), 3), Cluster(OOM_SPEC)
        )


def test_exhaustive_warmup_skips_the_infeasible_candidate(vgg19_partition):
    result = ConfigurationTuner(
        vgg19_partition,
        total_batch=256,
        num_workers=8,
        cluster_spec=OOM_SPEC,
        profile_iterations=3,
    ).tune()
    # 9 of 10 Phase-1 candidates and 3 Phase-2 subsets, 3 iterations each.
    assert result.warmup_iterations == (9 + 3) * 3


def test_ssp_halving_still_resimulates(vgg19_partition):
    """SSP runs are not prefix-stable, so halving keeps restarting them:
    the result is the one the restarting tuner produced."""
    base = _config(
        vgg19_partition, (1, 1, 1), 3, sync_mode="ssp", staleness=1
    )
    result = ConfigurationTuner(
        vgg19_partition,
        total_batch=256,
        num_workers=8,
        straggler=RoundRobinStraggler(2.0),
        profile_iterations=3,
        base_config=base,
    ).tune(phase1=PHASE1_HALVING)
    assert [
        (c.phase, c.weights, c.subset_size, repr(c.per_iteration_time))
        for c in result.cases
    ] == [
        (1, (1, 1, 8), 8, "5.1491595109856965"),
        (1, (1, 2, 4), 8, "5.227136386653088"),
        (1, (1, 2, 8), 8, "5.006161232228847"),
        (2, (1, 2, 8), 4, "5.005827898895513"),
        (2, (1, 2, 8), 2, "4.985690328471271"),
        (2, (1, 2, 8), 1, "5.441470568587634"),
    ]
    assert (
        result.best_weights,
        result.best_subset_size,
        result.cases_profiled,
        result.cases_pruned,
        result.warmup_iterations,
    ) == ((1, 2, 8), 2, 21, 7, 38)
