"""Cross-cutting coverage: smaller behaviours not owned by one module."""

from repro.core import FelaConfig, FelaRuntime
from repro.hardware import Cluster, ClusterSpec
from repro.models import build_pagerank
from repro.partition import partition_by_counts


class TestPageRankUnderFela:
    def test_pagerank_end_to_end(self):
        pr = build_pagerank(nodes=1_000_000, partitions=4)
        partition = partition_by_counts(pr, [2, 2])
        config = FelaConfig(
            partition=partition,
            total_batch=100_000,
            num_workers=8,
            weights=(1, 1),
            conditional_subset_size=2,
            iterations=2,
        )
        result = FelaRuntime(config).run()
        assert result.average_throughput > 0
        assert result.stats["network_bytes"] > 0


class TestClusterIntegration:
    def test_pending_delay_rolls_into_next_compute_only(self):
        spec = ClusterSpec(num_nodes=2, latency=0.0)
        cluster = Cluster(spec)
        cluster[0].add_delay(2.0)
        cluster[0].add_delay(3.0)  # delays accumulate
        times = []

        def jobs(node):
            yield from node.compute(1.0)
            times.append(cluster.env.now)
            yield from node.compute(1.0)
            times.append(cluster.env.now)

        cluster.env.process(jobs(cluster[0]))
        cluster.env.run()
        assert times == [6.0, 7.0]  # 1+5 then 1

    def test_repr_smoke(self):
        cluster = Cluster(ClusterSpec(num_nodes=2))
        assert "Cluster" in repr(cluster)
        assert "Node" in repr(cluster[0])


class TestRuntimeOverlapClaim:
    def test_sync_overlaps_training(self, vgg19_partition):
        """Paper III-A: "While the worker is synchronizing ... its
        Trainer is not blocked": SM-1's all-reduce must start (and
        usually finish) before the iteration's training ends."""
        windows = []

        class RecordingRuntime(FelaRuntime):
            def _sync_level(self, iteration, level):
                begin = self.cluster.env.now
                yield from super()._sync_level(iteration, level)
                windows.append(
                    (iteration, level, begin, self.cluster.env.now)
                )

        config = FelaConfig(
            partition=vgg19_partition,
            total_batch=1024,
            num_workers=8,
            weights=(1, 2, 4),
            conditional_subset_size=8,
            iterations=1,
        )
        result = RecordingRuntime(config).run()
        iteration_end = result.records[0].end
        sm1_end = next(
            end for it, level, _begin, end in windows
            if it == 0 and level == 0
        )
        assert sm1_end < iteration_end  # SM-1 synced mid-iteration

    def test_fela_name_and_model_recorded(self, vgg19_partition):
        config = FelaConfig(
            partition=vgg19_partition,
            total_batch=128,
            num_workers=8,
            weights=(1, 2, 8),
            iterations=1,
        )
        result = FelaRuntime(config).run()
        assert result.runtime_name == "fela"
        assert result.model_name == "vgg19"


class TestCliFigures:
    def test_figures_list(self, capsys):
        from repro.cli import main

        assert main(["figures", "--list"]) == 0
        out = capsys.readouterr().out
        assert "fig8-vgg19" in out
        assert "ext-pipelined" in out

    def test_figures_without_ids_errors(self, capsys):
        from repro.cli import main

        assert main(["figures"]) == 2
        assert "artifact ids" in capsys.readouterr().err

    def test_figures_generates(self, capsys):
        from repro.cli import main

        assert main(["figures", "table2"]) == 0
        assert "Fela" in capsys.readouterr().out
