"""Randomized scheduler robustness: any valid configuration completes.

The token machinery has the classic failure modes of work-stealing
schedulers — deadlock (everyone waiting for tokens that will never be
generated), double-assignment, lost tokens.  These tests sweep randomized
configurations, policies, and straggler patterns over every zoo model
(the paper's partition where it publishes one, the bin partition
otherwise), odd and prime worker counts and heterogeneous GPU speeds,
and assert the global invariants: the run completes, every token of
every iteration is trained exactly once, and the simulation stays
deterministic.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import FelaConfig, FelaRuntime, SyncMode
from repro.hardware import Cluster, ClusterSpec
from repro.stragglers import ProbabilityStraggler, TransientStraggler
from tests.integration.zoo_strategies import (
    models,
    speeds_for,
    weights_for,
    worker_counts,
    zoo_partition,
)


# Session-level partition (building VGG19 repeatedly is the slow part).
_PARTITION = zoo_partition("vgg19")


@st.composite
def setups(draw):
    """(model, workers, weights, cluster) for one randomized run."""
    model = draw(models)
    workers = draw(worker_counts)
    weights = draw(weights_for(len(zoo_partition(model))))
    speeds = draw(speeds_for(workers))
    spec = ClusterSpec(num_nodes=workers, gpu_speed_factors=speeds)
    return model, workers, weights, spec


@given(
    setup=setups(),
    total_batch=st.sampled_from([64, 128, 256, 512]),
    subset=st.integers(min_value=0, max_value=13),
    ads=st.booleans(),
    hf=st.booleans(),
    ctd=st.booleans(),
)
@settings(max_examples=25, deadline=None)
def test_any_valid_config_completes_exactly(
    setup, total_batch, subset, ads, hf, ctd
):
    model, workers, weights, spec = setup
    config = FelaConfig(
        partition=zoo_partition(model),
        total_batch=total_batch,
        num_workers=workers,
        weights=weights,
        conditional_subset_size=min(subset, workers),
        ads_enabled=ads,
        hf_enabled=hf,
        ctd_enabled=ctd,
        iterations=2,
    )
    result = FelaRuntime(config, Cluster(spec)).run()
    expected_tokens = sum(config.token_counts())
    for record in result.records:
        assert sum(record.work_by_worker) == expected_tokens
    assert result.total_time > 0


@given(
    setup=setups(),
    probability=st.floats(min_value=0.0, max_value=1.0),
    delay=st.floats(min_value=0.0, max_value=20.0),
    seed=st.integers(min_value=0, max_value=1000),
)
@settings(max_examples=15, deadline=None)
def test_any_straggler_pattern_completes(setup, probability, delay, seed):
    model, workers, weights, spec = setup
    config = FelaConfig(
        partition=zoo_partition(model),
        total_batch=256,
        num_workers=workers,
        weights=weights,
        conditional_subset_size=2,
        iterations=3,
    )
    injector = ProbabilityStraggler(probability, delay, seed=seed)
    result = FelaRuntime(
        config, Cluster(spec), straggler=injector
    ).run()
    expected_tokens = sum(config.token_counts())
    for record in result.records:
        assert sum(record.work_by_worker) == expected_tokens


@given(setup=setups(), seed=st.integers(min_value=0, max_value=100))
@settings(max_examples=10, deadline=None)
def test_determinism_under_randomized_stragglers(setup, seed):
    """Same seed -> bit-identical run; the straggler RNG is the only
    randomness and it is seeded."""
    model, workers, weights, spec = setup

    def run():
        config = FelaConfig(
            partition=zoo_partition(model),
            total_batch=128,
            num_workers=workers,
            weights=weights,
            iterations=2,
        )
        injector = TransientStraggler(5.0, hits=3, seed=seed)
        return FelaRuntime(
            config, Cluster(spec), straggler=injector
        ).run()

    first, second = run(), run()
    assert first.total_time == second.total_time
    assert [r.work_by_worker for r in first.records] == [
        r.work_by_worker for r in second.records
    ]


@pytest.mark.parametrize("mode,staleness", [
    (SyncMode.SSP, 1), (SyncMode.SSP, 3), (SyncMode.ASP, 0),
])
def test_relaxed_sync_conserves_tokens(mode, staleness):
    config = FelaConfig(
        partition=_PARTITION,
        total_batch=256,
        num_workers=8,
        weights=(1, 2, 8),
        sync_mode=mode,
        staleness=staleness,
        iterations=4,
    )
    result = FelaRuntime(config).run()
    expected_tokens = sum(config.token_counts())
    for record in result.records:
        assert sum(record.work_by_worker) == expected_tokens
