"""The optimized engine reproduces the pre-fault ``total_time`` pins.

Every hot-path optimization in this package (slotted events, the inlined
run loop, count-based water-filling, batched ``transfer_many``, the
distributor's cached CTD levels) claims bit-identical simulation.  This
test holds that claim against the five pinned values recorded before the
fault layer existed — byte-for-byte, via ``repr`` equality — and repeats
the runs with the tracer attached, because observability must never
perturb the schedule either.
"""

import pytest

from repro.obs import Tracer
from tests.faults.test_zero_perturbation import CASES, PINNED, _config


def _total_time(partition, cls, straggler, tracer, **kwargs):
    from repro.hardware import Cluster, ClusterSpec

    cluster = Cluster(ClusterSpec(num_nodes=8))
    runtime = cls(
        _config(partition, **kwargs),
        cluster,
        straggler=straggler,
        tracer=tracer,
    )
    return runtime.run().total_time


@pytest.mark.parametrize("traced", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("name", sorted(CASES))
def test_optimized_engine_matches_pins(name, traced, vgg19_partition):
    cls, make_straggler, kwargs = CASES[name]
    tracer = Tracer() if traced else None
    total = _total_time(
        vgg19_partition, cls, make_straggler(), tracer, **kwargs
    )
    assert repr(total) == PINNED[name]


def test_fela_1000workers_counts_are_pinned():
    """The 1000-worker two-level vgg19 run (the shape of
    ``macro.fela_1000workers``) pins its result and the fabric's and
    kernel's work counts exactly.  A change to any count here is an
    algorithmic change: explain it in CHANGES.md before updating it."""
    from repro import (
        Cluster,
        ClusterSpec,
        ExperimentRunner,
        FelaConfig,
        FelaRuntime,
        Partition,
        SubModel,
    )

    full = ExperimentRunner().partition("vgg19")
    rest = tuple(
        layer for submodel in list(full)[1:] for layer in submodel.layers
    )
    partition = Partition(
        model=full.model,
        submodels=(
            SubModel(
                index=0,
                layers=full[0].layers,
                threshold_batch=full[0].threshold_batch,
            ),
            SubModel(
                index=1, layers=rest, threshold_batch=full[1].threshold_batch
            ),
        ),
    )
    config = FelaConfig(
        partition=partition,
        total_batch=4000,
        num_workers=1000,
        weights=(1, 2),
        conditional_subset_size=128,
        iterations=1,
        collective="hierarchical",
    )
    cluster = Cluster(ClusterSpec(num_nodes=1000))
    result = FelaRuntime(config, cluster).run()
    stats = cluster.fabric.stats
    assert repr(result.total_time) == "17.407032957663915"
    assert stats.flows_started == 66594
    assert stats.solves_full == 32
    assert stats.solves_restricted == 127
    assert cluster.env.scheduled_events == 24376
    # The network bytes FelaRuntime reports: one left fold of every
    # settled ``moved`` in table order.
    assert repr(stats.bytes_transferred) == "239974963775.9807"
