"""One completion event per transfer batch.

A batch's flows count down into one event, which the flow that brings
the count to zero schedules ``latency`` after it completes, with its
own duration as the value: the instant and delay its own per-flow event
used to have.  Callers resume through a one-element ``all_of`` so the
resumption lands at the same queue slot as before; the ring below pins
that.
"""

import pytest

from repro.core import ring_allreduce
from repro.hardware import Cluster, ClusterSpec
from repro.net import Fabric
from repro.sim import LATE, Environment
from repro.sim.events import NORMAL


def _spy_schedule(env):
    """Record every completion event the fabric schedules (completions
    and the ``LATE`` end-of-instant re-rate use ``env.schedule``;
    timeouts and succeeds queue themselves)."""
    scheduled = []
    original = env.schedule

    def spy(event, priority=NORMAL, delay=0.0):
        if priority != LATE:
            scheduled.append(event)
        return original(event, priority, delay)

    env.schedule = spy
    return scheduled


def test_k_flow_batch_schedules_one_completion_event():
    env = Environment()
    fabric = Fabric(env, num_nodes=8, link_bandwidth=100.0, latency=0.5)
    scheduled = _spy_schedule(env)
    # Shared and isolated flows, finishing at t = 1, 2, 2 and 4.
    batch = fabric.transfer_many(
        [(0, 1, 100.0), (2, 1, 300.0), (3, 4, 200.0), (5, 6, 100.0)]
    )
    env.run()
    assert scheduled == [batch]
    assert fabric.stats.flows_completed == 4


def test_batch_fires_once_at_its_last_completion():
    """Flows finishing at different wakes: the event fires once, at the
    last completion plus latency, valued at that flow's duration."""
    env = Environment()
    fabric = Fabric(env, num_nodes=8, link_bandwidth=100.0, latency=0.5)
    scheduled = _spy_schedule(env)
    fired = []

    def main():
        yield env.timeout(1.0)
        # (0, 1) finishes at t=2, (2, 3) at t=4; a local request and a
        # zero-size one do not count.
        batch = fabric.transfer_many(
            [(0, 1, 100.0), (4, 4, 50.0), (2, 3, 300.0), (5, 6, 0.0)]
        )
        batch.callbacks.append(lambda event: fired.append(env.now))
        value = yield env.all_of((batch,))
        assert value[batch] == 3.5

    env.process(main())
    env.run()
    assert fired == [4.5]
    assert len(scheduled) == 1
    assert env.now == 4.5


@pytest.mark.parametrize(
    "requests",
    [[(1, 1, 5.0), (3, 3, 7.0)], [(0, 1, 0.0)], [(2, 2, 1.0), (0, 1, 0)]],
    ids=["local", "zero-size", "mixed"],
)
def test_batch_with_nothing_on_the_wire_succeeds_at_once(requests):
    env = Environment()
    fabric = Fabric(env, num_nodes=4, link_bandwidth=100.0, latency=0.5)
    resumed = []

    def main():
        yield env.timeout(2.0)
        batch = fabric.transfer_many(requests)
        assert batch.triggered
        value = yield batch
        resumed.append((env.now, value))

    env.process(main())
    env.run()
    assert resumed == [(2.0, 0.0)]
    assert fabric.stats.flows_started == 0


def test_ring_allreduce_resumes_where_it_did():
    """Two 4-worker rings that finish at one instant and a 2-worker ring
    across them resume at the times, and in the order, they did when
    every flow had its own completion event."""
    cluster = Cluster(
        ClusterSpec(
            num_nodes=8,
            link_bandwidth=1e9,
            network_efficiency=1.0,
            latency=5e-5,
        )
    )
    env = cluster.env
    scheduled = _spy_schedule(env)
    log = []

    def ring(name, workers, size):
        yield from ring_allreduce(cluster, workers, size)
        log.append((name, repr(env.now)))

    env.process(ring("a", [0, 1, 2, 3], 3e8))
    env.process(ring("b", [4, 5, 6, 7], 3e8))
    env.process(ring("c", [0, 4], 1e8))
    env.run()
    assert log == [("c", "0.20005"), ("a", "0.55025"), ("b", "0.55025")]
    # One event per round: 2·(k−1) rounds for each ring.
    assert len(scheduled) == 6 + 6 + 2
