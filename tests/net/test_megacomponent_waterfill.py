"""Differential tests: heap waterfill vs the naive per-round scan.

The lazy-invalidation min-heap replacing the per-round linear scan in
``Fabric._waterfill`` (engaged above ``waterfill_heap_cutoff`` entries)
claims *bit-identical* rates.  Every test drives the same schedule
through both variants — the cutoff is a host-side knob, so forcing
either path is a one-line override — and requires ``repr``-exact
completion times.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net import Fabric
from repro.sim import Environment


def _run_schedule(
    num_nodes,
    schedule,
    switch=None,
    heap_cutoff=None,
):
    """Run a transfer schedule; returns repr'd completion times."""
    env = Environment()
    fabric = Fabric(
        env,
        num_nodes=num_nodes,
        link_bandwidth=100.0,
        latency=1e-4,
        switch_bandwidth=switch,
    )
    if heap_cutoff is not None:
        fabric.waterfill_heap_cutoff = heap_cutoff
    finished: list[tuple[int, str]] = []

    def xfer(index, src, dst, size, start):
        if start:
            yield env.timeout(start)
        yield fabric.transfer(src, dst, size)
        finished.append((index, repr(env.now)))

    for index, (src, dst, size, start) in enumerate(schedule):
        env.process(xfer(index, src, dst, size, start))
    env.run()
    assert len(finished) == len(schedule)
    return sorted(finished), fabric.stats


schedule_strategy = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=9),  # src
        st.integers(min_value=0, max_value=9),  # dst
        st.floats(min_value=1.0, max_value=5e4),  # size
        st.floats(min_value=0.0, max_value=5.0),  # start offset
    ),
    min_size=1,
    max_size=25,
)


@given(schedule=schedule_strategy)
@settings(max_examples=40, deadline=None)
def test_heap_matches_naive_scan(schedule):
    """Equal link bandwidths make duplicate shares the common case, so
    the strict-< first-seen tie-break is exercised constantly."""
    heap, _ = _run_schedule(10, schedule, heap_cutoff=0)
    naive, _ = _run_schedule(10, schedule, heap_cutoff=10**9)
    assert heap == naive


@given(schedule=schedule_strategy)
@settings(max_examples=15, deadline=None)
def test_heap_matches_naive_scan_with_switch(schedule):
    """The aggregate-switch entry takes the same heap path."""
    heap, _ = _run_schedule(10, schedule, switch=350.0, heap_cutoff=0)
    naive, _ = _run_schedule(10, schedule, switch=350.0, heap_cutoff=10**9)
    assert heap == naive


def _seeded_schedule(seed, num_nodes, flows):
    rng = random.Random(seed)
    schedule = []
    for _ in range(flows):
        schedule.append(
            (
                rng.randrange(num_nodes),
                rng.randrange(num_nodes),
                rng.uniform(10.0, 8e4),
                rng.uniform(0.0, 20.0),
            )
        )
    return schedule


def test_seeded_heap_above_default_cutoff():
    """Big components cross the default heap cutoff on their own: the
    production configuration (no overrides) must match the forced-naive
    variant on a 60-node, 150-flow mix."""
    for seed in (11, 22, 33, 44, 55):
        schedule = _seeded_schedule(seed, 60, 150)
        heap, heap_stats = _run_schedule(60, schedule)
        naive, _ = _run_schedule(60, schedule, heap_cutoff=10**9)
        assert heap == naive, f"seed {seed}"
        assert repr(heap_stats.bytes_transferred) is not None
