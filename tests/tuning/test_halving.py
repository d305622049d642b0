"""Successive halving must match exhaustive search across the zoo.

The guarantee the tuner's docstring makes — same winner, strictly fewer
simulated warm-up iterations — is asserted here for every zoo model at
N ∈ {4, 8, 16}.  Models without a published paper partition (or whose
paper partition has too many levels for an exhaustive sweep, like
resnet152's 94) use the 3-way quantile partition; what matters is that
both strategies search the identical candidate space.
"""

import pytest

from repro.errors import PartitionError
from repro.exec import ResultCache, SweepExecutor
from repro.models import available_models, get_model
from repro.partition import paper_partition, quantile_partition
from repro.profiling import ThroughputProfiler
from repro.tuning import (
    PHASE1_EXHAUSTIVE,
    PHASE1_HALVING,
    ConfigurationTuner,
)


def zoo_partition(model_name, profiler):
    model = get_model(model_name)
    try:
        partition = paper_partition(model, profiler)
    except PartitionError:
        return quantile_partition(model, 3, profiler)
    if len(partition) > 8:  # exhaustive sweep would be intractable
        return quantile_partition(model, 3, profiler)
    return partition


@pytest.mark.parametrize("model_name", available_models())
def test_halving_matches_exhaustive_with_fewer_iterations(
    model_name, profiler
):
    partition = zoo_partition(model_name, profiler)
    for num_workers in (4, 8, 16):
        # One shared in-memory cache per (model, N): Phase 2's cases
        # are identical across strategies when the winners agree, so
        # sharing spares the halving tune those simulations without
        # touching what either strategy computes.  Halving's Phase 1
        # advances live runs and never reads the cache.
        cache = ResultCache()

        def tune(phase1):
            tuner = ConfigurationTuner(
                partition,
                total_batch=128,
                num_workers=num_workers,
                profile_iterations=5,
                executor=SweepExecutor(cache=cache),
            )
            return tuner.tune(phase1=phase1)

        exhaustive = tune(PHASE1_EXHAUSTIVE)
        halving = tune(PHASE1_HALVING)

        assert (halving.best_weights, halving.best_subset_size) == (
            exhaustive.best_weights,
            exhaustive.best_subset_size,
        ), f"{model_name} at N={num_workers}"
        assert (
            halving.warmup_iterations < exhaustive.warmup_iterations
        ), f"{model_name} at N={num_workers}"
        assert halving.cases_pruned > 0
        assert exhaustive.cases_pruned == 0
        # Halving's extra shallow probes are counted as measurements.
        assert halving.cases_profiled > len(halving.cases)
        # The report's cases stay full-depth only: every phase-1 case
        # it kept also appears in the exhaustive sweep with the same
        # measured time.
        exhaustive_times = {
            (case.weights, case.subset_size): case.per_iteration_time
            for case in exhaustive.cases
        }
        for case in halving.cases:
            assert (
                exhaustive_times[(case.weights, case.subset_size)]
                == case.per_iteration_time
            )


def test_unknown_phase1_strategy_rejected(vgg19_partition):
    from repro.errors import TuningError

    tuner = ConfigurationTuner(
        vgg19_partition, total_batch=128, num_workers=8
    )
    with pytest.raises(TuningError, match="phase-1 strategy"):
        tuner.tune(phase1="bogus")
