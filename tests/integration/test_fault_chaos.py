"""Fault chaos: any small fault script either finishes or fails clearly.

Hypothesis draws a zoo model (the paper's partition where it publishes
one, the bin partition otherwise), an odd or prime worker count, GPU
speed factors and spare nodes, then one to three clauses from
``crash:W@T``, ``leave:W@T`` and ``join@T`` — including near-coincident
pairs like the ``crash:5@6.017,crash:2@6.111`` double-revive
reproducer — or a ``crashp:P:SEED`` clause with a few of those.  Fault
times are drawn over the drawn run's unfaulted length, which spans
0.5 s of simulated time (lenet5) to 85 s (resnet152).  The scenario
is crossed with the ADS/HF/CTD switches, an optional probability
straggler, the BSP runtime or the pipelined one under SSP (staleness
1-2) and ASP, and the ring or hierarchical collective.  Faults produce
the run loop's unusual events (failed, defused and interrupted), so
every run has ``InvariantChecker`` on, must terminate with every
iteration done, and must rerun to the same ``repr(total_time)``.
"""

import dataclasses
import functools

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.analysis.invariants import InvariantChecker
from repro.core import FelaConfig, FelaRuntime, PipelinedFelaRuntime
from repro.faults import FaultController, parse_faults
from repro.hardware import Cluster, ClusterSpec
from repro.stragglers import ProbabilityStraggler
from tests.integration.zoo_strategies import (
    models,
    speeds_for,
    weights_for,
    worker_counts,
    zoo_partition,
)

_ITERATIONS = 3
_BATCH = 256


@dataclasses.dataclass(frozen=True)
class Scenario:
    """The cluster and fault script one chaos run uses."""

    model: str
    workers: int
    weights: tuple[int, ...]
    script: str
    #: Idle nodes beyond the workers and the script's joins.
    spare: int = 0
    speeds: tuple[float, ...] | None = None

    @property
    def nodes(self) -> int:
        return self.workers + self.script.count("join") + self.spare


@functools.lru_cache(maxsize=None)
def _unfaulted_length(model, workers, weights):
    """Simulated seconds of the plain BSP run the faults hit."""
    config = FelaConfig(
        partition=zoo_partition(model),
        total_batch=_BATCH,
        num_workers=workers,
        weights=weights,
        conditional_subset_size=2,
        iterations=_ITERATIONS,
    )
    return FelaRuntime(config, Cluster(ClusterSpec(num_nodes=workers))).run(
    ).total_time


_kinds = st.sampled_from(["crash", "leave", "join"])


def _clause(kind: str, wid: int, at: float) -> str:
    return f"join@{at}" if kind == "join" else f"{kind}:{wid}@{at}"


def _scripts(workers: int, length: float):
    """Fault scripts over ``workers`` on a run ``length`` seconds long."""
    # Millisecond grid over the unfaulted run and 6 % past its end.
    times = st.integers(
        min_value=0, max_value=int(length * 1060)
    ).map(lambda ms: ms / 1000)
    wids = st.integers(min_value=0, max_value=workers - 1)
    clauses = st.builds(_clause, _kinds, wids, times)

    @st.composite
    def near_pair(draw) -> list[str]:
        """Two clauses at most 200 ms apart: failures handled together."""
        at = draw(times)
        gap = draw(st.integers(min_value=0, max_value=200)) / 1000
        return [
            _clause(draw(_kinds), draw(wids), at),
            _clause(draw(_kinds), draw(wids), round(at + gap, 3)),
        ]

    crashp = st.builds(
        "crashp:{}:{}".format,
        st.sampled_from([0.02, 0.05, 0.1]),
        st.integers(min_value=0, max_value=1000),
    )
    return st.one_of(
        st.lists(clauses, min_size=1, max_size=3),
        st.builds(
            lambda pair, extra: pair + extra,
            near_pair(),
            st.lists(clauses, max_size=1),
        ),
        st.builds(
            lambda first, extra: [first] + extra,
            crashp,
            st.lists(clauses, max_size=2),
        ),
    ).map(",".join)


@st.composite
def _scenarios(draw) -> Scenario:
    model = draw(models)
    workers = draw(worker_counts)
    weights = draw(weights_for(len(zoo_partition(model))))
    length = _unfaulted_length(model, workers, weights)
    scenario = Scenario(
        model,
        workers,
        weights,
        draw(_scripts(workers, length)),
        spare=draw(st.integers(min_value=0, max_value=2)),
    )
    return dataclasses.replace(
        scenario, speeds=draw(speeds_for(scenario.nodes))
    )


#: (runtime, sync mode, SSP staleness).
_schedules = st.sampled_from(
    [
        (FelaRuntime, "bsp", 0),
        (PipelinedFelaRuntime, "ssp", 1),
        (PipelinedFelaRuntime, "ssp", 2),
        (PipelinedFelaRuntime, "asp", 0),
    ]
)

_stragglers = st.one_of(
    st.none(),
    st.tuples(
        st.floats(min_value=0.0, max_value=1.0),
        st.floats(min_value=0.0, max_value=5.0),
        st.integers(min_value=0, max_value=1000),
    ),
)


def _run(scenario, ads, hf, ctd, straggler, schedule, collective):
    runtime, sync_mode, staleness = schedule
    config = FelaConfig(
        partition=zoo_partition(scenario.model),
        total_batch=_BATCH,
        num_workers=scenario.workers,
        weights=scenario.weights,
        conditional_subset_size=2,
        ads_enabled=ads,
        hf_enabled=hf,
        ctd_enabled=ctd,
        iterations=_ITERATIONS,
        sync_mode=sync_mode,
        staleness=staleness,
        collective=collective,
    )
    cluster = Cluster(
        ClusterSpec(
            num_nodes=scenario.nodes, gpu_speed_factors=scenario.speeds
        )
    )
    injector = None
    if straggler is not None:
        probability, delay, seed = straggler
        injector = ProbabilityStraggler(probability, delay, seed=seed)
    return runtime(
        config,
        cluster,
        straggler=injector,
        invariants=InvariantChecker(),
        faults=FaultController(parse_faults(scenario.script)),
    ).run()


@given(
    scenario=_scenarios(),
    ads=st.booleans(),
    hf=st.booleans(),
    ctd=st.booleans(),
    straggler=_stragglers,
    schedule=_schedules,
    collective=st.sampled_from(["ring", "hierarchical"]),
)
@example(
    scenario=Scenario("vgg19", 8, (1, 2, 8), "crash:5@6.017,crash:2@6.111"),
    ads=True,
    hf=True,
    ctd=True,
    straggler=None,
    schedule=(FelaRuntime, "bsp", 0),
    collective="ring",
)
@example(
    scenario=Scenario("vgg19", 8, (1, 2, 8), "crash:0@0.0"),
    ads=False,
    hf=False,
    ctd=False,
    straggler=None,
    schedule=(FelaRuntime, "bsp", 0),
    collective="ring",
)
@example(
    scenario=Scenario("vgg19", 8, (1, 2, 8), "crashp:0.1:7,crash:3@5.0"),
    ads=True,
    hf=True,
    ctd=False,
    straggler=None,
    schedule=(PipelinedFelaRuntime, "ssp", 1),
    collective="hierarchical",
)
@settings(max_examples=60, deadline=None)
def test_fault_script_terminates_and_reruns_bit_identically(
    scenario, ads, hf, ctd, straggler, schedule, collective
):
    args = (scenario, ads, hf, ctd, straggler, schedule, collective)
    first = _run(*args)
    assert first.iterations == _ITERATIONS
    second = _run(*args)
    assert repr(second.total_time) == repr(first.total_time)
