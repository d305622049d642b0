"""Tests for the tree and hierarchical all-reduce variants."""

import pytest

from repro.core import (
    FelaRuntime,
    hierarchical_allreduce,
    ring_allreduce,
    tree_allreduce,
)
from repro.errors import ConfigurationError
from repro.hardware import Cluster, ClusterSpec, GpuSpec
from repro.harness import ExperimentRunner, ExperimentSpec


@pytest.fixture()
def cluster_spec():
    return ClusterSpec(
        num_nodes=8,
        link_bandwidth=1e9,
        network_efficiency=1.0,
        latency=0.0,
        gpu=GpuSpec(),
    )


def run_collective(cluster, generator):
    done = []

    def proc():
        yield from generator
        done.append(cluster.env.now)

    cluster.env.process(proc())
    cluster.env.run()
    return done[0]


def wire_bytes(cluster, generator):
    """Run a collective; return the wire bytes it reports."""
    process = cluster.env.process(generator)
    cluster.env.run()
    return process.value


class TestTreeAllreduce:
    def test_two_workers_cost(self, cluster_spec):
        """k=2: one full-size transfer up, one down."""
        cluster = Cluster(cluster_spec)
        size = 1e9
        elapsed = run_collective(cluster, tree_allreduce(cluster, [0, 1], size))
        assert elapsed == pytest.approx(2 * size / 1e9, rel=1e-6)

    def test_log_rounds_for_eight_workers(self, cluster_spec):
        """k=8: 3 reduce + 3 broadcast rounds, full payload each."""
        cluster = Cluster(cluster_spec)
        size = 1e9
        elapsed = run_collective(
            cluster, tree_allreduce(cluster, list(range(8)), size)
        )
        assert elapsed == pytest.approx(6 * size / 1e9, rel=1e-6)

    def test_ring_beats_tree_on_bandwidth(self, cluster_spec):
        """2(k-1)/k < 2 log2 k for k >= 4: the classic trade-off."""
        size = 1e9
        cluster = Cluster(cluster_spec)
        ring = run_collective(
            cluster, ring_allreduce(cluster, list(range(8)), size)
        )
        cluster = Cluster(cluster_spec)
        tree = run_collective(
            cluster, tree_allreduce(cluster, list(range(8)), size)
        )
        assert ring < tree

    def test_single_worker_free(self, cluster_spec):
        cluster = Cluster(cluster_spec)
        assert run_collective(cluster, tree_allreduce(cluster, [3], 1e9)) == 0

    def test_duplicates_rejected(self, cluster_spec):
        cluster = Cluster(cluster_spec)
        with pytest.raises(ConfigurationError):
            run_collective(cluster, tree_allreduce(cluster, [0, 0], 1e9))


class TestHierarchicalAllreduce:
    def test_two_groups_cost_structure(self, cluster_spec):
        """Groups of 4 + leader ring of 2 + broadcast inside groups."""
        cluster = Cluster(cluster_spec)
        size = 1e9
        groups = [[0, 1, 2, 3], [4, 5, 6, 7]]
        elapsed = run_collective(
            cluster, hierarchical_allreduce(cluster, groups, size)
        )
        bandwidth = 1e9
        intra = 2 * 3 / 4 * size / bandwidth  # ring within each group
        leaders = 2 * 1 / 2 * size / bandwidth  # ring across 2 leaders
        fanout = 3 * size / bandwidth  # leader tx shared by 3 children
        assert elapsed == pytest.approx(intra + leaders + fanout, rel=1e-6)

    def test_single_group_matches_ring_plus_noop(self, cluster_spec):
        cluster = Cluster(cluster_spec)
        size = 1e9
        elapsed = run_collective(
            cluster, hierarchical_allreduce(cluster, [[0, 1, 2, 3]], size)
        )
        cluster2 = Cluster(cluster_spec)
        ring = run_collective(
            cluster2, ring_allreduce(cluster2, [0, 1, 2, 3], size)
        )
        # One group: phase 2 is a single-leader no-op, phase 3 re-sends.
        assert elapsed >= ring

    def test_overlapping_groups_rejected(self, cluster_spec):
        cluster = Cluster(cluster_spec)
        with pytest.raises(ConfigurationError):
            run_collective(
                cluster,
                hierarchical_allreduce(cluster, [[0, 1], [1, 2]], 1e9),
            )

    def test_empty_groups_rejected(self, cluster_spec):
        cluster = Cluster(cluster_spec)
        with pytest.raises(ConfigurationError):
            run_collective(cluster, hierarchical_allreduce(cluster, [], 1e9))

    def test_returns_wire_bytes_of_all_three_phases(self, cluster_spec):
        cluster = Cluster(cluster_spec)
        size = 1e9
        groups = [[0, 1, 2, 3], [4, 5, 6, 7]]
        wire = wire_bytes(cluster, hierarchical_allreduce(cluster, groups, size))
        # Two group rings of 2*3*size, a leader ring of 2*1*size, and a
        # broadcast to three members in each group.
        assert wire == pytest.approx((12 + 2 + 6) * size, rel=1e-12)
        assert wire == pytest.approx(
            cluster.fabric.stats.bytes_transferred, rel=1e-12
        )


class TestSyncBytes:
    def test_ring_returns_closed_form(self, cluster_spec):
        cluster = Cluster(cluster_spec)
        wire = wire_bytes(cluster, ring_allreduce(cluster, range(8), 1e9))
        assert wire == pytest.approx(2 * 7 * 1e9, rel=1e-12)

    def test_hierarchical_sync_bytes_match_fabric_traffic(self):
        """``sync.bytes`` counts the broadcast phase too: every byte the
        fabric carried that was not an activation fetch."""
        config = ExperimentRunner().fela_config(
            ExperimentSpec(
                model_name="vgg19",
                total_batch=256,
                num_workers=16,
                iterations=1,
            )
        ).replace(collective="hierarchical")
        result = FelaRuntime(config, Cluster(ClusterSpec(num_nodes=16))).run()
        stats = result.stats
        synced = sum(stats["sync_bytes_by_level"].values())
        assert synced == pytest.approx(
            stats["network_bytes"] - stats["bytes_fetched"], rel=1e-9
        )
