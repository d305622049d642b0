"""Differential tests: incremental waterfill vs the full progressive fill.

The fabric re-solves only the connected component of resources touched by
a flow add/remove.  These tests drive randomized transfer schedules
through both the incremental fabric and a variant that never runs a
component solve, and require *bit-identical* completion times — the same
guarantee the repository's determinism pins rely on.  Both run as
:class:`CheckedFabric`, which also asserts at every timer arming that a
fresh full waterfill reproduces every rate.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net import Fabric
from repro.sim import Environment
from tests.net.checked_fabric import CheckedFabric


class FullSolveFabric(CheckedFabric):
    """A checked fabric that never takes the component solve."""

    def _dirty_component(self, dirty):
        return None


def _run_schedule(fabric_cls, num_nodes, schedule, switch=None):
    """Run a transfer schedule; returns repr'd completion times."""
    env = Environment()
    fabric = fabric_cls(
        env,
        num_nodes=num_nodes,
        link_bandwidth=100.0,
        latency=1e-4,
        switch_bandwidth=switch,
    )
    # Force the restricted path at any flow-table size so the
    # differential actually exercises the incremental solver.
    fabric.incremental_cutoff = 0
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
    assert fabric.checks > 0 or all(src == dst for src, dst, *_ in schedule)
    return sorted(finished), fabric.stats.bytes_transferred


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
def test_incremental_matches_full_solve(schedule):
    incremental, inc_bytes = _run_schedule(CheckedFabric, 10, schedule)
    full, full_bytes = _run_schedule(FullSolveFabric, 10, schedule)
    assert incremental == full
    assert repr(inc_bytes) == repr(full_bytes)


@given(schedule=schedule_strategy)
@settings(max_examples=15, deadline=None)
def test_switch_fabric_matches_full_solve(schedule):
    """With an aggregate switch every solve falls back to full — but the
    public behavior must still match the forced-full variant exactly."""
    incremental, _ = _run_schedule(CheckedFabric, 10, schedule, switch=350.0)
    full, _ = _run_schedule(FullSolveFabric, 10, schedule, switch=350.0)
    assert incremental == full


def test_seeded_dense_and_sparse_mix():
    """A deterministic heavier mix: overlapping bursts, disjoint pairs,
    and staggered completions (exercises removal-side dirty sets)."""
    rng = random.Random(20260809)
    schedule = []
    for _ in range(120):
        src = rng.randrange(12)
        dst = rng.randrange(12)
        schedule.append(
            (src, dst, rng.uniform(10.0, 8e4), rng.uniform(0.0, 20.0))
        )
    # Plus guaranteed-disjoint pairs to hit the restricted-solve path.
    for pair in range(6):
        schedule.append((2 * pair, 2 * pair + 1, 5e4, 0.5 * pair))
    incremental, inc_bytes = _run_schedule(CheckedFabric, 12, schedule)
    full, full_bytes = _run_schedule(FullSolveFabric, 12, schedule)
    assert incremental == full
    assert repr(inc_bytes) == repr(full_bytes)


def test_disjoint_contended_pairs_take_restricted_solve():
    """Disjoint *contended* groups must actually exercise the incremental
    path (a component strictly smaller than the flow table).  Isolated
    flows would never reach the solver at all."""
    env = Environment()
    fabric = Fabric(env, num_nodes=8, link_bandwidth=100.0, latency=0.0)
    fabric.incremental_cutoff = 0
    taken: list[int] = []
    original = Fabric._dirty_component

    def spy(self, dirty):
        component = original(self, dirty)
        taken.append(-1 if component is None else len(component))
        return component

    fabric._dirty_component = spy.__get__(fabric)

    def xfer(src, dst):
        # Two flows on one NIC pair: a contended two-flow component.
        yield fabric.transfer_many([(src, dst, 1e4)] * 2)

    def main():
        # Four disjoint groups started while earlier ones are in flight.
        for pair in range(4):
            env.process(xfer(2 * pair, 2 * pair + 1))
            yield env.timeout(1.0)

    env.process(main())
    env.run()
    assert fabric.stats.solves_restricted > 0
    # Later adds see several active disjoint components: the dirty
    # component must stay smaller than the whole flow table.
    assert any(0 <= size <= 2 for size in taken[1:]), taken
    # Each group finishes as a whole and leaves its NICs empty: no
    # completion needs a solve, so every discovery was an admission.
    assert len(taken) == 4


def test_small_tables_skip_component_discovery():
    """At or below ``incremental_cutoff`` the reallocation goes straight
    to the full solve: the BFS must never run (it costs more than it can
    save on small flow tables)."""
    env = Environment()
    fabric = Fabric(env, num_nodes=8, link_bandwidth=100.0, latency=0.0)
    assert fabric.incremental_cutoff > 0
    calls: list[object] = []

    def spy(self, dirty):
        calls.append(dirty)
        return None

    fabric._dirty_component = spy.__get__(fabric)

    def xfer(src, dst):
        yield fabric.transfer(src, dst, 1e4)

    for pair in range(4):
        env.process(xfer(2 * pair, 2 * pair + 1))
    env.run()
    assert calls == []
    assert fabric.stats.flows_completed == 4


def test_small_tables_never_build_the_index():
    """A run that never leaves the full-solve regime never allocates
    the NIC index: many small fabrics (one per job in a shared cluster)
    would otherwise each carry a ``2 * num_nodes`` list they never
    read."""
    env = Environment()
    fabric = Fabric(env, num_nodes=8, link_bandwidth=100.0, latency=0.0)

    def xfer(requests):
        yield fabric.transfer_many(requests)

    # Contended batches: every admission and most completions solve.
    for step in range(6):
        env.process(
            xfer([(step % 8, (step + k) % 8, 1e3 * (k + 1)) for k in (1, 2, 3)])
        )
    env.run()
    assert fabric.stats.solves_full > 0
    assert fabric.stats.solves_restricted == 0
    assert fabric._by_resource is None


def test_index_tracks_adds_and_removes():
    """The NIC index must drain back to empty dicts with the flow
    table."""
    env = Environment()
    fabric = Fabric(env, num_nodes=6, link_bandwidth=100.0, latency=0.0)
    # Force restricted solves so the lazily-built index is actually
    # constructed and then maintained through every add/remove.
    fabric.incremental_cutoff = 0

    def xfer(src, dst, size):
        yield fabric.transfer(src, dst, size)

    for index in range(12):
        env.process(xfer(index % 6, (index + 1) % 6, 1e3 * (index + 1)))
    env.run()
    assert fabric._flows == {}
    assert fabric._by_resource == [{}] * 12
    assert fabric.stats.flows_completed == 12


def test_unindex_is_exact():
    """A completing flow leaves its siblings on the shared NIC indexed
    and empties the NIC it held alone."""
    env = Environment()
    fabric = Fabric(env, num_nodes=4, link_bandwidth=100.0, latency=0.0)
    fabric.incremental_cutoff = 0
    # Flows 0 and 1 share node 0's tx NIC at 50 B/s; flow 0 ends at t=2.
    # Slots 0-3 are the tx NICs, slots 4-7 the rx NICs.
    fabric.transfer_many([(0, 1, 100.0), (0, 2, 300.0)])
    assert [list(group) for group in fabric._by_resource] == [
        [0, 1], [], [], [], [], [0], [1], [],
    ]
    env.run(until=3.0)
    assert fabric.stats.flows_completed == 1
    # tx NIC of node 0 still has flow 1; node 1's rx NIC is empty.
    assert [list(group) for group in fabric._by_resource] == [
        [1], [], [], [], [], [], [1], [],
    ]
    env.run()
    assert fabric._by_resource == [{}] * 8
