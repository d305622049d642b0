"""Seeded determinism: traced reruns are byte-identical.

Traces and run statistics are comparison artifacts; they are only
usable as such if a seeded experiment reproduces them byte for byte.
"""

from repro.core import FelaConfig, FelaRuntime
from repro.hardware import Cluster, ClusterSpec
from repro.obs import Tracer, dump_chrome_trace
from repro.stragglers import ProbabilityStraggler


def _dumps(partition) -> tuple[str, str]:
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
        straggler=ProbabilityStraggler(0.4, 1.5, seed=11),
        tracer=tracer,
    ).run()
    return dump_chrome_trace(tracer.events), repr(result.stats)


def test_trace_and_metrics_are_byte_identical_across_reruns(
    vgg19_partition,
):
    trace_a, stats_a = _dumps(vgg19_partition)
    trace_b, stats_b = _dumps(vgg19_partition)
    assert trace_a == trace_b
    assert stats_a == stats_b
    assert len(trace_a) > 1000  # non-trivial payload
