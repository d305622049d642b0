"""Differential tests: isolated-flow admission and the fused wake-up.

In the restricted regime the fabric admits a new flow whose tx and rx
NICs carry nothing else at ``link_bandwidth`` without any solve, and
when a whole batch is admitted that way it arms the completion timer
from the settle pass instead of rescanning the flow table.  Both claim
to leave the simulation bit-identical.  These tests run random batch
schedules — isolated, shared and mixed batches, with equal sizes so
completions land together — on the default fabric, on one that is
always in the restricted regime, and on one forced to full solves, and
require ``repr``-exact completion times and byte totals.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net import Fabric
from repro.sim import Environment

NUM_NODES = 40
FULL_SOLVES = 10**9


def _batch(rng, kind, count):
    """``count`` flows of one kind: ``isolated`` flows use distinct
    senders and distinct receivers, ``shared`` ones pile onto two
    receivers, ``mixed`` is half of each."""
    if kind == "mixed":
        half = count // 2
        return _batch(rng, "isolated", count - half) + _batch(
            rng, "shared", half
        )
    sizes = (1e3, 2.5e3, 4e3)
    if kind == "isolated":
        srcs = rng.sample(range(NUM_NODES), count)
        dsts = rng.sample(range(NUM_NODES), count)
    else:
        srcs = [rng.randrange(NUM_NODES) for _ in range(count)]
        dsts = [rng.choice((0, 1)) for _ in range(count)]
    return [
        # Sizes from a small set make whole groups finish together.
        (src, dst, rng.choice(sizes) if rng.random() < 0.5
         else rng.uniform(10.0, 5e3))
        for src, dst in zip(srcs, dsts)
    ]


def _schedule(seed, batches):
    rng = random.Random(seed)
    return [
        (start, _batch(rng, kind, count))
        for start, kind, count in batches
    ]


def _run(schedule, incremental_cutoff=None, switch=None):
    """Run batches through ``transfer_many`` (one-flow batches through
    ``transfer``); returns repr'd per-flow completion times, the repr'd
    byte total and the fabric."""
    env = Environment()
    fabric = Fabric(
        env,
        num_nodes=NUM_NODES,
        link_bandwidth=100.0,
        latency=1e-4,
        switch_bandwidth=switch,
    )
    if incremental_cutoff is not None:
        fabric.incremental_cutoff = incremental_cutoff
    finished: list[tuple[int, int, str]] = []

    def waiter(index, position, event):
        yield event
        finished.append((index, position, repr(env.now)))

    def launch(index, start, requests):
        if start:
            yield env.timeout(start)
        if len(requests) == 1:
            events = [fabric.transfer(*requests[0])]
        else:
            events = fabric.transfer_many(requests)
        for position, event in enumerate(events):
            env.process(waiter(index, position, event))

    for index, (start, requests) in enumerate(schedule):
        env.process(launch(index, start, requests))
    env.run()
    assert len(finished) == sum(len(r) for _, r in schedule)
    return sorted(finished), repr(fabric.stats.bytes_transferred), fabric


batches_strategy = st.lists(
    st.tuples(
        # Few distinct start times: batches often land at one instant,
        # after a settle at that instant already happened.
        st.sampled_from((0.0, 0.0, 5.0, 10.0, 12.5, 20.0, 40.0)),
        st.sampled_from(("isolated", "shared", "mixed")),
        st.integers(min_value=1, max_value=12),
    ),
    min_size=1,
    max_size=12,
)


@given(batches=batches_strategy, seed=st.integers(0, 2**16))
@settings(max_examples=60, deadline=None)
def test_batches_match_full_solve(batches, seed):
    schedule = _schedule(seed, batches)
    full = _run(schedule, incremental_cutoff=FULL_SOLVES)[:2]
    assert _run(schedule)[:2] == full
    assert _run(schedule, incremental_cutoff=0)[:2] == full


def test_seeded_churn_matches_full_solve():
    """Heavier seeded mixes that keep the table above the default
    cutoff for long stretches."""
    for seed in (1, 2, 3, 4, 20260809):
        rng = random.Random(seed)
        batches = [
            (
                rng.choice((0.0, 5.0, 10.0, 15.0, 30.0)),
                rng.choice(("isolated", "shared", "mixed")),
                rng.randint(1, 20),
            )
            for _ in range(25)
        ]
        schedule = _schedule(seed, batches)
        full = _run(schedule, incremental_cutoff=FULL_SOLVES)
        default = _run(schedule)
        assert default[:2] == full[:2], f"seed {seed}"
        assert default[2].stats.flows_completed == full[2].stats.flows_completed


def test_isolated_batch_takes_no_solve():
    """Disjoint pairs in the restricted regime get the full link rate
    with no waterfill at all."""
    env = Environment()
    fabric = Fabric(env, num_nodes=8, link_bandwidth=100.0, latency=0.0)
    fabric.incremental_cutoff = 0
    fabric.transfer_many([(0, 1, 100.0), (2, 3, 300.0)])
    fabric.transfer(4, 5, 200.0)
    assert fabric.stats.solves_full == 0
    assert fabric.stats.solves_restricted == 0
    assert [flow.rate for flow in fabric.active_flows] == [100.0] * 3
    env.run()
    assert env.now == 3.0
    assert fabric.stats.flows_completed == 3


def test_shared_flow_goes_to_the_solver():
    """A flow sharing a NIC — with an earlier flow or with another flow
    of its own batch — is solved; its isolated batch-mates are not."""
    env = Environment()
    fabric = Fabric(env, num_nodes=8, link_bandwidth=100.0, latency=0.0)
    fabric.incremental_cutoff = 0
    fabric.transfer(0, 1, 1e3)
    fabric.transfer_many([(2, 1, 1e3), (4, 5, 1e3), (6, 7, 1e3)])
    assert fabric.stats.solves_restricted == 1
    rates = {(f.src, f.dst): f.rate for f in fabric.active_flows}
    assert rates == {(0, 1): 50.0, (2, 1): 50.0, (4, 5): 100.0, (6, 7): 100.0}
    fabric.transfer_many([(3, 2, 1e3), (3, 6, 1e3)])
    assert fabric.stats.solves_restricted == 2


def test_small_tables_admit_by_full_solve():
    """At or below the default cutoff every admission is a full solve,
    isolated or not."""
    env = Environment()
    fabric = Fabric(env, num_nodes=8, link_bandwidth=100.0, latency=0.0)
    fabric.transfer_many([(0, 1, 100.0), (2, 3, 300.0)])
    assert fabric.stats.solves_full == 1
    assert fabric.stats.solves_restricted == 0


def test_switch_fabric_never_admits_isolated():
    """An aggregate switch couples every flow, so no flow is isolated:
    disjoint pairs share the switch capacity through the solver."""
    env = Environment()
    fabric = Fabric(
        env,
        num_nodes=8,
        link_bandwidth=100.0,
        latency=0.0,
        switch_bandwidth=150.0,
    )
    fabric.incremental_cutoff = 0
    fabric.transfer_many([(0, 1, 100.0), (2, 3, 300.0)])
    assert fabric.stats.solves_full == 1
    assert [flow.rate for flow in fabric.active_flows] == [75.0, 75.0]


def test_fused_wakeup_at_an_instant_already_settled():
    """A second isolated batch at the same instant as the first arms the
    waker from the delay found at the first arming (no time passed, no
    rate changed), which must still be the true minimum."""
    env = Environment()
    fabric = Fabric(env, num_nodes=8, link_bandwidth=100.0, latency=0.0)
    fabric.incremental_cutoff = 0
    done: list[tuple[str, float]] = []

    def main():
        yield env.timeout(1.0)
        first = fabric.transfer_many([(0, 1, 50.0), (2, 3, 500.0)])
        second = fabric.transfer_many([(4, 5, 300.0)])
        assert fabric.stats.solves_full == 0
        assert fabric.stats.solves_restricted == 0
        for name, event in zip("abc", first + second):
            env.process(wait(name, event))

    def wait(name, event):
        yield event
        done.append((name, env.now))

    env.process(main())
    env.run()
    assert done == [("a", 1.5), ("c", 4.0), ("b", 6.0)]
