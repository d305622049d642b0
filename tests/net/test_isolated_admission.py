"""Differential tests: isolated-flow admission and the fused wake-up.

In every regime without an aggregate switch the fabric admits a new flow
whose tx and rx NICs carry nothing else at ``link_bandwidth`` without
any solve, and when a whole batch is admitted that way it arms the
completion timer from the settle pass instead of rescanning the flow
table.  Both claim to leave the simulation bit-identical.  These tests
run random batch schedules — isolated, shared and mixed batches, with
equal sizes so completions land together — through
:class:`CheckedFabric`, which asserts at every timer arming that a fresh
full waterfill reproduces every rate and a rescan reproduces the delay.
The default fabric, one always in the restricted regime and one that
never runs a component solve must also agree on ``repr``-exact
completion times and byte totals.  A batch has one completion event, so
per-flow completion times are read from the ``net.transfer`` spans of a
recording :class:`Tracer` on the environment.
"""

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.net import Fabric
from repro.obs import EV_TRANSFER, Tracer
from repro.sim import Environment
from tests.net.checked_fabric import CheckedFabric

NUM_NODES = 40
#: A cutoff no table reaches: every solve that runs is a full one (the
#: isolated shortcuts still apply, and ``CheckedFabric`` checks them).
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


def _traced_env():
    env = Environment()
    tracer = Tracer()
    tracer.attach_env(env)
    env.tracer = tracer
    return env


def _spans(env):
    """Completed wire flows as ``(src, dst, bytes, start, end)``, in
    completion order."""
    return [
        (e.args["src"], e.args["dst"], e.args["bytes"], e.start, e.end)
        for e in env.tracer.events
        if e.name == EV_TRANSFER
    ]


def _run(schedule, incremental_cutoff=None, switch=None):
    """Run batches through ``transfer_many`` (one-flow batches through
    ``transfer``); returns the repr'd per-flow spans and per-batch
    completion times, the repr'd byte total and the fabric."""
    env = _traced_env()
    fabric = CheckedFabric(
        env,
        num_nodes=NUM_NODES,
        link_bandwidth=100.0,
        latency=1e-4,
        switch_bandwidth=switch,
    )
    if incremental_cutoff is not None:
        fabric.incremental_cutoff = incremental_cutoff
    batches_done: list[tuple[int, str]] = []

    def launch(index, start, requests):
        if start:
            yield env.timeout(start)
        if len(requests) == 1:
            yield fabric.transfer(*requests[0])
        else:
            yield fabric.transfer_many(requests)
        batches_done.append((index, repr(env.now)))

    for index, (start, requests) in enumerate(schedule):
        env.process(launch(index, start, requests))
    env.run()
    spans = [tuple(map(repr, span)) for span in _spans(env)]
    assert len(batches_done) == len(schedule)
    assert len(spans) == sum(
        src != dst for _, requests in schedule for src, dst, _ in requests
    )
    # Every wire flow arms the timer at least once; a schedule of local
    # flows only never does.
    assert (fabric.checks > 0) == bool(spans)
    return (
        (sorted(spans), sorted(batches_done)),
        repr(fabric.stats.bytes_transferred),
        fabric,
    )


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
@example(batches=[(20.0, "isolated", 1)], seed=44042)  # one local flow
@settings(max_examples=60, deadline=None)
def test_batches_match_full_solve(batches, seed):
    schedule = _schedule(seed, batches)
    full = _run(schedule, incremental_cutoff=FULL_SOLVES)[:2]
    assert _run(schedule)[:2] == full
    assert _run(schedule, incremental_cutoff=0)[:2] == full


@given(batches=batches_strategy, seed=st.integers(0, 2**16))
@settings(max_examples=20, deadline=None)
def test_switch_batches_match_full_solve(batches, seed):
    """An aggregate switch couples every flow: no shortcut may fire, and
    the checked fabric must agree with itself across cutoffs."""
    schedule = _schedule(seed, batches)
    full = _run(schedule, incremental_cutoff=FULL_SOLVES, switch=900.0)[:2]
    assert _run(schedule, incremental_cutoff=0, switch=900.0)[:2] == full


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
    """Disjoint pairs get the full link rate with no waterfill at all,
    on a small table and in the restricted regime alike."""
    for cutoff in (None, 0):
        env = Environment()
        fabric = Fabric(env, num_nodes=8, link_bandwidth=100.0, latency=0.0)
        if cutoff is not None:
            fabric.incremental_cutoff = cutoff
        fabric.transfer_many([(0, 1, 100.0), (2, 3, 300.0)])
        fabric.transfer(4, 5, 200.0)
        assert fabric.stats.solves_full == 0
        assert fabric.stats.solves_restricted == 0
        assert [flow.rate for flow in fabric.active_flows] == [100.0] * 3
        env.run()
        assert env.now == 3.0
        assert fabric.stats.flows_completed == 3
        # Each completion left its NICs empty: no solve on the way out.
        assert fabric.stats.solves_full == 0
        assert fabric.stats.solves_restricted == 0


def test_shared_flow_goes_to_the_solver():
    """A flow sharing a NIC — with an earlier flow or with another flow
    of its own batch — is solved; its isolated batch-mates are not.
    Every admission here lands at t=0, where a second solve waits for
    the end of the instant: reading ``active_flows`` runs it first."""
    env = Environment()
    fabric = Fabric(env, num_nodes=8, link_bandwidth=100.0, latency=0.0)
    fabric.incremental_cutoff = 0
    fabric.transfer(0, 1, 1e3)
    fabric.transfer_many([(2, 1, 1e3), (4, 5, 1e3), (6, 7, 1e3)])
    rates = {(f.src, f.dst): f.rate for f in fabric.active_flows}
    assert fabric.stats.solves_restricted == 1
    assert rates == {(0, 1): 50.0, (2, 1): 50.0, (4, 5): 100.0, (6, 7): 100.0}
    fabric.transfer_many([(3, 2, 1e3), (3, 6, 1e3)])
    assert len(fabric.active_flows) == 6
    assert fabric.stats.solves_restricted == 2


def test_small_tables_admit_contended_flows_by_full_solve():
    """At or below the default cutoff a contended admission is a full
    solve; its isolated batch-mates ride along in it."""
    env = Environment()
    fabric = Fabric(env, num_nodes=8, link_bandwidth=100.0, latency=0.0)
    fabric.transfer_many([(0, 1, 100.0), (2, 1, 300.0), (4, 5, 100.0)])
    assert fabric.stats.solves_full == 1
    assert fabric.stats.solves_restricted == 0
    rates = {(f.src, f.dst): f.rate for f in fabric.active_flows}
    assert rates == {(0, 1): 50.0, (2, 1): 50.0, (4, 5): 100.0}
    env.run()
    # (4, 5) finishes at t=1 and leaves nothing to re-rate; (0, 1) at
    # t=2 leaves node 1's rx NIC to (2, 1): one more full solve.
    assert fabric.stats.solves_full == 2
    assert env.now == 4.0


def test_completion_that_leaves_a_nic_shared_resolves():
    """A finishing flow dirties only the NICs it leaves still loaded;
    the survivor there is re-rated up to the full link."""
    env = _traced_env()
    fabric = Fabric(env, num_nodes=8, link_bandwidth=100.0, latency=0.0)
    fabric.transfer_many([(0, 1, 100.0), (0, 2, 300.0)])
    env.run()
    finish = [end for *_, end in _spans(env)]
    # Both at 50 B/s until t=2, then (0, 2) alone at 100 B/s for the
    # remaining 200 B.
    assert finish == [2.0, 4.0]
    assert fabric.stats.solves_full == 2


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
    env = _traced_env()
    fabric = Fabric(env, num_nodes=8, link_bandwidth=100.0, latency=0.0)
    fabric.incremental_cutoff = 0

    def main():
        yield env.timeout(1.0)
        fabric.transfer_many([(0, 1, 50.0), (2, 3, 500.0)])
        fabric.transfer_many([(4, 5, 300.0)])
        assert fabric.stats.solves_full == 0
        assert fabric.stats.solves_restricted == 0

    env.process(main())
    env.run()
    names = {(0, 1): "a", (2, 3): "b", (4, 5): "c"}
    done = [(names[src, dst], end) for src, dst, *_, end in _spans(env)]
    assert done == [("a", 1.5), ("c", 4.0), ("b", 6.0)]


def test_sub_nanosecond_remainder_completes_with_its_batch():
    """A flow left with less than a nanosecond of transfer completes in
    the same wake as the flow it shared a NIC with.  The delay the
    solve-free completion arms must come from the flows that survive
    the wake only, or the isolated bystander is woken — and forced
    complete — a nanosecond later."""
    env = _traced_env()
    fabric = CheckedFabric(env, num_nodes=6, link_bandwidth=1e9, latency=0.0)
    # a and b share node 1's rx NIC at 5e8 B/s; when a finishes, b has
    # 0.4 B left: 8e-10 s, inside the completion tolerance.
    fabric.transfer_many([(0, 1, 1e6), (2, 1, 1e6 + 0.4), (4, 5, 1e7)])
    env.run()
    names = {(0, 1): "a", (2, 1): "b", (4, 5): "c"}
    done = {names[src, dst]: end for src, dst, *_, end in _spans(env)}
    assert done["a"] == done["b"] == 0.002
    assert done["c"] == pytest.approx(0.01, rel=1e-12)
    assert fabric.stats.flows_completed == 3
