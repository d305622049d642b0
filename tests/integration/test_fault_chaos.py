"""Fault chaos: any small fault script either finishes or fails clearly.

Hypothesis draws one to three clauses from ``crash:W@T``, ``leave:W@T``
and ``join@T`` — including near-coincident pairs like the
``crash:5@6.017,crash:2@6.111`` double-revive reproducer — or a
``crashp:P:SEED`` clause with a few of those, and crosses them with the
ADS/HF/CTD switches, an optional probability straggler, the BSP runtime
or the pipelined one under SSP (staleness 1-2) and ASP, and the ring or
hierarchical collective.  Faults produce the run loop's unusual events
(failed, defused and interrupted), so every run has ``InvariantChecker``
on, must terminate with every iteration done, and must rerun to the
same ``repr(total_time)``.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.analysis.invariants import InvariantChecker
from repro.core import FelaConfig, FelaRuntime, PipelinedFelaRuntime
from repro.faults import FaultController, parse_faults
from repro.hardware import Cluster, ClusterSpec
from repro.models import get_model
from repro.partition import paper_partition
from repro.stragglers import ProbabilityStraggler

# Session-level partition (building VGG19 repeatedly is the slow part).
_PARTITION = paper_partition(get_model("vgg19"))
_WORKERS = 8
_ITERATIONS = 3

# Millisecond grid over the unfaulted run (about 16 s of sim time).
_times = st.integers(min_value=0, max_value=17_000).map(lambda ms: ms / 1000)
_kinds = st.sampled_from(["crash", "leave", "join"])
_wids = st.integers(min_value=0, max_value=_WORKERS - 1)


def _clause(kind: str, wid: int, at: float) -> str:
    return f"join@{at}" if kind == "join" else f"{kind}:{wid}@{at}"


_clauses = st.builds(_clause, _kinds, _wids, _times)


@st.composite
def _near_pair(draw) -> list[str]:
    """Two clauses at most 200 ms apart: failures handled together."""
    at = draw(_times)
    gap = draw(st.integers(min_value=0, max_value=200)) / 1000
    return [
        _clause(draw(_kinds), draw(_wids), at),
        _clause(draw(_kinds), draw(_wids), round(at + gap, 3)),
    ]


_crashp = st.builds(
    "crashp:{}:{}".format,
    st.sampled_from([0.02, 0.05, 0.1]),
    st.integers(min_value=0, max_value=1000),
)

_scripts = st.one_of(
    st.lists(_clauses, min_size=1, max_size=3),
    st.builds(
        lambda pair, extra: pair + extra,
        _near_pair(),
        st.lists(_clauses, max_size=1),
    ),
    st.builds(
        lambda crashp, extra: [crashp] + extra,
        _crashp,
        st.lists(_clauses, max_size=2),
    ),
).map(",".join)

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


def _run(script, ads, hf, ctd, straggler, schedule, collective):
    runtime, sync_mode, staleness = schedule
    config = FelaConfig(
        partition=_PARTITION,
        total_batch=256,
        num_workers=_WORKERS,
        weights=(1, 2, 8),
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
        ClusterSpec(num_nodes=_WORKERS + script.count("join"))
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
        faults=FaultController(parse_faults(script)),
    ).run()


@given(
    script=_scripts,
    ads=st.booleans(),
    hf=st.booleans(),
    ctd=st.booleans(),
    straggler=_stragglers,
    schedule=_schedules,
    collective=st.sampled_from(["ring", "hierarchical"]),
)
@example(
    script="crash:5@6.017,crash:2@6.111",
    ads=True,
    hf=True,
    ctd=True,
    straggler=None,
    schedule=(FelaRuntime, "bsp", 0),
    collective="ring",
)
@example(
    script="crash:0@0.0",
    ads=False,
    hf=False,
    ctd=False,
    straggler=None,
    schedule=(FelaRuntime, "bsp", 0),
    collective="ring",
)
@example(
    script="crashp:0.1:7,crash:3@5.0",
    ads=True,
    hf=True,
    ctd=False,
    straggler=None,
    schedule=(PipelinedFelaRuntime, "ssp", 1),
    collective="hierarchical",
)
@settings(max_examples=60, deadline=None)
def test_fault_script_terminates_and_reruns_bit_identically(
    script, ads, hf, ctd, straggler, schedule, collective
):
    args = (script, ads, hf, ctd, straggler, schedule, collective)
    first = _run(*args)
    assert first.iterations == _ITERATIONS
    second = _run(*args)
    assert repr(second.total_time) == repr(first.total_time)
