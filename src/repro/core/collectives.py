"""Collective communication primitives over the simulated fabric.

All runtimes synchronize parameters with these generators.  They are
written as process functions: ``yield from ring_allreduce(...)`` inside a
simulation process pays the full communication cost on the fabric (and
therefore contends with any concurrent activation transfers — a contention
the paper's evaluation leans on).
"""

from __future__ import annotations

import typing as _t

from repro.errors import ConfigurationError
from repro.hardware import Cluster


def ring_allreduce(
    cluster: Cluster,
    workers: _t.Sequence[int],
    size_bytes: float,
    context: _t.Any = None,
):
    """Bandwidth-optimal ring all-reduce among ``workers``.

    Each participant sends and receives ``2 * (k-1)/k * size`` bytes in
    ``2 * (k-1)`` rounds of ``size / k`` chunks (reduce-scatter followed by
    all-gather).  A single participant (or an empty payload) is free.
    Returns the bytes put on the wire.

    With a tracer attached to the cluster's environment, the collective
    records one ``sync.allreduce`` span covering all its rounds (emitted
    even for the trivial single-participant case, so every level's
    causal chain ends in a synchronization span).
    """
    workers = list(workers)
    if not workers:
        raise ConfigurationError("allreduce needs at least one worker")
    if len(set(workers)) != len(workers):
        raise ConfigurationError(f"duplicate workers in allreduce: {workers}")
    env = cluster.env
    tracer = env.tracer
    k = len(workers)
    if k == 1 or size_bytes <= 0:
        if tracer.enabled:
            tracer.allreduce(
                workers, size_bytes, 0.0, env.now, env.now, context
            )
        return 0.0
    chunk = size_bytes / k
    start = env.now
    wire_bytes = 0.0
    fabric = cluster.fabric
    ring = [
        (workers[i], workers[(i + 1) % k], chunk) for i in range(k)
    ]
    for _round in range(2 * (k - 1)):
        batch = fabric.transfer_many(ring)
        wire_bytes += chunk * k
        # Resume through a one-element ``all_of``, as at every
        # ``transfer_many`` call site: the pinned results depend on the
        # ``(time, priority, eid)`` slot the AllOf hop lands in.  Yielding
        # ``batch`` directly would resume one hop earlier among
        # same-instant events.
        yield env.all_of((batch,))
    if tracer.enabled:
        tracer.allreduce(
            workers, size_bytes, wire_bytes, start, env.now, context
        )
    return wire_bytes


def tree_allreduce(
    cluster: Cluster, workers: _t.Sequence[int], size_bytes: float
):
    """Binary-tree all-reduce: reduce up the tree, broadcast back down.

    Latency-friendly (O(log k) rounds) but moves the full payload on
    every edge, so it loses to the ring on bandwidth for large models —
    the trade-off the collectives ablation benchmark measures.
    """
    workers = list(workers)
    if not workers:
        raise ConfigurationError("allreduce needs at least one worker")
    if len(set(workers)) != len(workers):
        raise ConfigurationError(f"duplicate workers in allreduce: {workers}")
    k = len(workers)
    if k == 1 or size_bytes <= 0:
        return
    env = cluster.env

    # Reduce phase: children send to parents, level by level.
    stride = 1
    while stride < k:
        requests = [
            (workers[left + stride], workers[left], size_bytes)
            for left in range(0, k - stride, stride * 2)
        ]
        if requests:
            yield env.all_of((cluster.fabric.transfer_many(requests),))
        stride *= 2

    # Broadcast phase: parents send the reduced payload back down.
    stride //= 2
    while stride >= 1:
        requests = [
            (workers[left], workers[left + stride], size_bytes)
            for left in range(0, k - stride, stride * 2)
        ]
        if requests:
            yield env.all_of((cluster.fabric.transfer_many(requests),))
        stride //= 2


def hierarchical_allreduce(
    cluster: Cluster,
    groups: _t.Sequence[_t.Sequence[int]],
    size_bytes: float,
):
    """Two-level all-reduce (BML/HiPS-style, the paper's refs [4], [5]).

    Phase 1: each group ring-all-reduces internally (concurrently).
    Phase 2: the group leaders (first member of each group) ring-all-reduce
    across groups.  Phase 3: leaders broadcast the result inside their
    group.  With bandwidth-sharing this beats one flat ring when groups
    map to locality domains.  Returns the bytes put on the wire by all
    three phases.
    """
    groups = [list(group) for group in groups if group]
    if not groups:
        raise ConfigurationError("hierarchical allreduce needs >= 1 group")
    flat = [w for group in groups for w in group]
    if len(set(flat)) != len(flat):
        raise ConfigurationError(f"duplicate workers across groups: {groups}")
    env = cluster.env

    phase1 = [
        env.process(ring_allreduce(cluster, group, size_bytes))
        for group in groups
    ]
    yield env.all_of(phase1)
    wire_bytes = sum(ring.value for ring in phase1)

    leaders = [group[0] for group in groups]
    wire_bytes += yield from ring_allreduce(cluster, leaders, size_bytes)

    phase3 = [
        env.process(broadcast(cluster, group[0], group[1:], size_bytes))
        for group in groups
        if len(group) > 1
    ]
    if phase3:
        yield env.all_of(phase3)
    return wire_bytes + sum(copy.value for copy in phase3)


def parameter_server_sync(
    cluster: Cluster,
    workers: _t.Sequence[int],
    server: int,
    size_bytes: float,
):
    """PS-style sync: all workers push to ``server``, then pull back.

    Models the centralized bottleneck the paper attributes to PS-based
    data-parallel systems (FlexPS discussion): ``k`` full-size flows into
    one NIC, then ``k`` flows out.
    """
    if size_bytes < 0:
        raise ConfigurationError(f"negative payload: {size_bytes}")
    env = cluster.env
    senders = [w for w in workers if w != server]
    if not senders or size_bytes == 0:
        return
    pushes = cluster.fabric.transfer_many(
        (w, server, size_bytes) for w in senders
    )
    yield env.all_of((pushes,))
    pulls = cluster.fabric.transfer_many(
        (server, w, size_bytes) for w in senders
    )
    yield env.all_of((pulls,))


def broadcast(
    cluster: Cluster,
    source: int,
    destinations: _t.Sequence[int],
    size_bytes: float,
):
    """Send ``size_bytes`` from ``source`` to every destination in
    parallel; returns the bytes put on the wire."""
    env = cluster.env
    targets = [d for d in destinations if d != source]
    if not targets or size_bytes <= 0:
        return 0.0
    batch = cluster.fabric.transfer_many(
        (source, d, size_bytes) for d in targets
    )
    yield env.all_of((batch,))
    return len(targets) * size_bytes
