"""Exact work counts on the shapes of the four benchmark workloads.

Each case rebuilds one benchmark workload's op from the public API at
the default seed (11) and pins what the simulation did, not how fast:
kernel events, flows started, full and restricted fabric solves, the
fabric's byte fold, TS requests, ``GpuSpec.train_time`` calls and the
op's result.  An exact host-side optimization (an index, a cache, a
batched call) must leave every number here unchanged; a change to any
of them is an algorithmic change and needs its own explanation in
CHANGES.md before a re-pin.

The counts are gathered by wrapping two constructors and one method with
``monkeypatch``: every :class:`Fabric` and every :class:`FelaRuntime`
the op builds (finished or only advanced) and every ``train_time`` call.
Sums run in creation order, so the float byte fold is deterministic too.
"""

from __future__ import annotations

import pytest

from repro import (
    Cluster,
    ClusterSpec,
    ConfigurationTuner,
    ExperimentRunner,
    ExperimentSpec,
    FelaConfig,
    FelaRuntime,
    GpuSpec,
    Partition,
    RoundRobinStraggler,
    SubModel,
)
from repro.cluster import ClusterSimulator, TraceSpec, generate_trace
from repro.faults import FaultController, parse_faults
from repro.net import Fabric


def _testbed8(model, straggler=None, faults=None):
    # The tuned config comes from simulations of its own: build it
    # outside the counted op, as the benchmark's set-up does.
    config = ExperimentRunner().fela_config(
        ExperimentSpec(
            model_name=model, total_batch=256, num_workers=8, iterations=60
        )
    )

    def op():
        return FelaRuntime(
            config,
            Cluster(ClusterSpec(num_nodes=8)),
            straggler=straggler() if straggler else None,
            faults=FaultController(parse_faults(faults)) if faults else None,
        ).run().total_time

    return op


def _fela_1000w():
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
    def op():
        cluster = Cluster(ClusterSpec(num_nodes=1000))
        return FelaRuntime(config, cluster).run().total_time

    return op


def _cluster_100jobs():
    trace = generate_trace(
        TraceSpec(kind="poisson", num_jobs=100, seed=11, mean_interarrival=12.0)
    )
    def op():
        return ClusterSimulator(trace, "elastic", pool_size=32).run().makespan

    return op


def _tune_vgg19():
    partition = ExperimentRunner().partition("vgg19")

    def op():
        result = ConfigurationTuner(
            partition, total_batch=256, num_workers=8, profile_iterations=3
        ).tune(phase1="halving")
        return (
            tuple(result.best_weights),
            result.best_subset_size,
            result.cases_profiled,
        )

    return op


#: name -> (set-up, pinned counts).  A set-up does the uncounted work
#: (model, partition, tuned config, trace) and returns the op to count.
#: ``result`` is the op's return value:
#: ``total_time`` for a Fela run, the makespan for the cluster trace,
#: and (weights, subset size, cases profiled) for the tune.
CASES = {
    "testbed8.vgg19": (
        lambda: _testbed8("vgg19"),
        dict(
            events=14538, flows=13860, solves_full=180, solves_restricted=0,
            bytes="68630661119.98134", ts_requests=1440, train_time=1020,
            result="188.92957065914072",
        ),
    ),
    "testbed8.googlenet": (
        lambda: _testbed8("googlenet"),
        dict(
            events=14538, flows=13860, solves_full=120, solves_restricted=0,
            bytes="11743764479.998953", ts_requests=1440, train_time=1020,
            result="81.24235357091057",
        ),
    ),
    "testbed8.vgg19_rr2": (
        lambda: _testbed8(
            "vgg19", straggler=lambda: RoundRobinStraggler(2.0)
        ),
        dict(
            events=16627, flows=13860, solves_full=180, solves_restricted=0,
            bytes="68630661119.967125", ts_requests=2339, train_time=1020,
            result="308.9555706591364",
        ),
    ),
    "testbed8.vgg19_crash": (
        lambda: _testbed8("vgg19", faults="crash:2@4.0,crash:5@9.0"),
        dict(
            events=15818, flows=7830, solves_full=238, solves_restricted=0,
            bytes="51952680447.99134", ts_requests=1800, train_time=1021,
            result="352.61701062716503",
        ),
    ),
    "fela_1000w": (
        _fela_1000w,
        dict(
            events=24376, flows=66594, solves_full=32, solves_restricted=127,
            bytes="239974963775.9807", ts_requests=2500, train_time=1500,
            result="17.407032957663915",
        ),
    ),
    "cluster_100jobs": (
        _cluster_100jobs,
        dict(
            events=170178, flows=123838, solves_full=8506,
            solves_restricted=0, bytes="1515900684415.138",
            ts_requests=16043, train_time=12653, result="1221.9568629040066",
        ),
    ),
    "tune_vgg19": (
        _tune_vgg19,
        dict(
            events=7318, flows=5782, solves_full=544, solves_restricted=0,
            bytes="54351906047.99997", ts_requests=737, train_time=448,
            result="((1, 1, 8), 8, 21)",
        ),
    ),
}


def _count(monkeypatch, op):
    fabrics, runtimes, train_calls = [], [], [0]
    fabric_init, runtime_init, train_time = (
        Fabric.__init__,
        FelaRuntime.__init__,
        GpuSpec.train_time,
    )

    def counted_fabric_init(self, *args, **kwargs):
        fabric_init(self, *args, **kwargs)
        fabrics.append(self)

    def counted_runtime_init(self, *args, **kwargs):
        runtime_init(self, *args, **kwargs)
        runtimes.append(self)

    def counted_train_time(self, *args, **kwargs):
        train_calls[0] += 1
        return train_time(self, *args, **kwargs)

    monkeypatch.setattr(Fabric, "__init__", counted_fabric_init)
    monkeypatch.setattr(FelaRuntime, "__init__", counted_runtime_init)
    monkeypatch.setattr(GpuSpec, "train_time", counted_train_time)
    result = op()
    envs = {id(fabric.env): fabric.env for fabric in fabrics}
    moved = 0.0
    for fabric in fabrics:
        moved += fabric.stats.bytes_transferred
    return dict(
        events=sum(env.scheduled_events for env in envs.values()),
        flows=sum(fabric.stats.flows_started for fabric in fabrics),
        solves_full=sum(fabric.stats.solves_full for fabric in fabrics),
        solves_restricted=sum(
            fabric.stats.solves_restricted for fabric in fabrics
        ),
        bytes=repr(moved),
        # Every runtime the op built, finished or not: the tuner's
        # halving advances its Phase-1 runs without finalizing them.
        ts_requests=sum(runtime.server.requests for runtime in runtimes),
        train_time=train_calls[0],
        result=repr(result),
    )


@pytest.mark.parametrize("name", sorted(CASES))
def test_workload_counts_are_pinned(name, monkeypatch):
    setup, pinned = CASES[name]
    assert _count(monkeypatch, setup()) == pinned
