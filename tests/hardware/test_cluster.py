"""Unit tests for nodes and clusters."""

import pytest

from repro.errors import ConfigurationError
from repro.hardware import Cluster, ClusterSpec, GpuSpec


class TestClusterSpec:
    def test_defaults_match_paper_testbed(self):
        spec = ClusterSpec()
        assert spec.num_nodes == 8
        assert spec.link_bandwidth == pytest.approx(1.25e9)  # 10 Gbps
        assert spec.gpu.memory_bytes == pytest.approx(12e9)  # K40c

    def test_effective_bandwidth(self):
        spec = ClusterSpec(link_bandwidth=1000.0, network_efficiency=0.5)
        assert spec.effective_bandwidth == 500.0

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            ClusterSpec(num_nodes=0)
        with pytest.raises(ConfigurationError):
            ClusterSpec(link_bandwidth=-1)
        with pytest.raises(ConfigurationError):
            ClusterSpec(network_efficiency=0)
        with pytest.raises(ConfigurationError):
            ClusterSpec(network_efficiency=1.5)

    @pytest.mark.parametrize(
        "build",
        [
            lambda: ClusterSpec(latency=float("nan")),
            lambda: ClusterSpec(latency=-1e-6),
            lambda: ClusterSpec(link_bandwidth=float("nan")),
            lambda: ClusterSpec(
                num_nodes=2, gpu_speed_factors=(1.0, float("nan"))
            ),
            lambda: GpuSpec(peak_flops=float("nan")),
            lambda: GpuSpec(kernel_overhead=float("nan")),
        ],
        ids=["latency", "negative-latency", "bandwidth", "speed-factor",
             "peak-flops", "overhead"],
    )
    def test_nan_and_negative_fields_rejected(self, build):
        """Each of these used to be accepted and then stalled the fabric
        (or skewed every compute time) mid-run."""
        with pytest.raises(ConfigurationError):
            build()


class TestNode:
    def test_compute_occupies_gpu_exclusively(self, small_cluster_spec):
        cluster = Cluster(small_cluster_spec)
        env = cluster.env
        finish = []

        def job(node, seconds):
            yield from node.compute(seconds)
            finish.append(env.now)

        env.process(job(cluster[0], 2))
        env.process(job(cluster[0], 3))  # same GPU: serialized
        env.process(job(cluster[1], 1))  # different GPU: parallel
        env.run()
        assert sorted(finish) == [1, 2, 5]

    def test_busy_time_accounting(self, small_cluster_spec):
        cluster = Cluster(small_cluster_spec)

        def job(node):
            yield from node.compute(4)

        cluster.env.process(job(cluster[2]))
        cluster.env.run()
        assert cluster[2].busy_time == 4
        assert cluster[0].busy_time == 0

    def test_injected_delay_prolongs_next_compute(self, small_cluster_spec):
        cluster = Cluster(small_cluster_spec)
        cluster[0].add_delay(5)

        def job(node):
            yield from node.compute(1)

        cluster.env.process(job(cluster[0]))
        cluster.env.run()
        assert cluster.env.now == 6
        # Consumed: a second compute is unaffected.
        assert cluster[0].take_pending_delay() == 0

    def test_negative_delay_rejected(self, small_cluster_spec):
        cluster = Cluster(small_cluster_spec)
        with pytest.raises(ConfigurationError):
            cluster[0].add_delay(-1)

    def test_send_uses_fabric(self, small_cluster_spec):
        cluster = Cluster(small_cluster_spec)
        done = []

        def proc(env):
            yield cluster[0].send(1, small_cluster_spec.link_bandwidth)
            done.append(env.now)

        cluster.env.process(proc(cluster.env))
        cluster.env.run()
        assert done[0] == pytest.approx(1.0)


class TestCluster:
    def test_iteration_and_indexing(self, small_cluster_spec):
        cluster = Cluster(small_cluster_spec)
        assert len(cluster) == 4
        assert [n.node_id for n in cluster] == [0, 1, 2, 3]
        assert cluster[3].node_id == 3

    def test_utilization(self, small_cluster_spec):
        cluster = Cluster(small_cluster_spec)
        assert cluster.utilization() == [0.0] * 4

        def job(node):
            yield from node.compute(1)

        def idle(env):
            yield env.timeout(2)

        cluster.env.process(job(cluster[0]))
        cluster.env.process(idle(cluster.env))
        cluster.env.run()
        util = cluster.utilization()
        assert util[0] == pytest.approx(0.5)
        assert util[1] == 0.0
