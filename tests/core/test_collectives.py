"""Unit tests for the collective communication primitives."""

import pytest

from repro.core import broadcast, parameter_server_sync, ring_allreduce
from repro.errors import ConfigurationError
from repro.hardware import Cluster


def run_collective(cluster, generator):
    done = []

    def proc():
        yield from generator
        done.append(cluster.env.now)

    cluster.env.process(proc())
    cluster.env.run()
    return done[0]


class TestRingAllreduce:
    def test_bandwidth_optimal_cost(self, small_cluster_spec):
        """2(k-1)/k * size per link at full rate."""
        cluster = Cluster(small_cluster_spec)
        size = 4e9  # 4 GB over 1 GB/s links, k=4
        elapsed = run_collective(
            cluster, ring_allreduce(cluster, [0, 1, 2, 3], size)
        )
        expected = 2 * 3 / 4 * size / small_cluster_spec.link_bandwidth
        assert elapsed == pytest.approx(expected, rel=1e-6)

    def test_single_worker_is_free(self, small_cluster_spec):
        cluster = Cluster(small_cluster_spec)
        elapsed = run_collective(cluster, ring_allreduce(cluster, [2], 1e9))
        assert elapsed == 0.0

    def test_zero_bytes_is_free(self, small_cluster_spec):
        cluster = Cluster(small_cluster_spec)
        elapsed = run_collective(cluster, ring_allreduce(cluster, [0, 1], 0))
        assert elapsed == 0.0

    def test_duplicate_workers_rejected(self, small_cluster_spec):
        cluster = Cluster(small_cluster_spec)
        with pytest.raises(ConfigurationError):
            run_collective(cluster, ring_allreduce(cluster, [0, 0], 1e6))

    def test_empty_group_rejected(self, small_cluster_spec):
        cluster = Cluster(small_cluster_spec)
        with pytest.raises(ConfigurationError):
            run_collective(cluster, ring_allreduce(cluster, [], 1e6))

    def test_cost_grows_with_group_size(self, small_cluster_spec):
        def elapsed_for(workers):
            cluster = Cluster(small_cluster_spec)
            return run_collective(
                cluster, ring_allreduce(cluster, workers, 1e9)
            )

        assert elapsed_for([0, 1]) < elapsed_for([0, 1, 2, 3])


class TestParameterServerSync:
    def test_incast_bottleneck(self, small_cluster_spec):
        """k-1 pushes share the server's rx, then k-1 pulls share tx."""
        cluster = Cluster(small_cluster_spec)
        size = 1e9
        elapsed = run_collective(
            cluster,
            parameter_server_sync(cluster, [0, 1, 2, 3], server=0, size_bytes=size),
        )
        bandwidth = small_cluster_spec.link_bandwidth
        expected = 3 * size / bandwidth + 3 * size / bandwidth
        assert elapsed == pytest.approx(expected, rel=1e-6)

    def test_ps_slower_than_ring_for_large_groups(self, small_cluster_spec):
        """The centralized PS bottleneck the paper criticizes."""
        cluster_a = Cluster(small_cluster_spec)
        ring = run_collective(
            cluster_a, ring_allreduce(cluster_a, [0, 1, 2, 3], 1e9)
        )
        cluster_b = Cluster(small_cluster_spec)
        ps = run_collective(
            cluster_b,
            parameter_server_sync(cluster_b, [0, 1, 2, 3], 0, 1e9),
        )
        assert ps > ring


class TestBroadcastGather:
    def test_broadcast_shares_source_tx(self, small_cluster_spec):
        cluster = Cluster(small_cluster_spec)
        size = 1e9
        elapsed = run_collective(
            cluster, broadcast(cluster, 0, [1, 2, 3], size)
        )
        expected = 3 * size / small_cluster_spec.link_bandwidth
        assert elapsed == pytest.approx(expected, rel=1e-6)

    def test_source_excluded_from_destinations(self, small_cluster_spec):
        cluster = Cluster(small_cluster_spec)
        elapsed = run_collective(cluster, broadcast(cluster, 0, [0], 1e9))
        assert elapsed == 0.0
