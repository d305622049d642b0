"""Unit tests for the Token Server's request/report protocol."""

import pytest

from repro.core import FelaConfig, TokenServer
from repro.errors import SchedulingError
from repro.hardware import Cluster, ClusterSpec


def make_server(partition, num_workers=4, **kwargs):
    defaults = dict(
        partition=partition,
        total_batch=128,
        num_workers=num_workers,
        weights=(1, 2, 4),
        iterations=5,
    )
    defaults.update(kwargs)
    config = FelaConfig(**defaults)
    cluster = Cluster(ClusterSpec(num_nodes=num_workers, latency=0.0))
    return TokenServer(config, cluster), cluster


class TestIterationLifecycle:
    def test_begin_mints_t1_tokens(self, vgg19_partition):
        server, _ = make_server(vgg19_partition)
        server.begin_iteration(0)
        assert len(server.bucket) == server.counts[0]

    def test_iterations_must_advance_sequentially(self, vgg19_partition):
        server, _ = make_server(vgg19_partition)
        with pytest.raises(SchedulingError):
            server.begin_iteration(5)

    def test_end_before_completion_rejected(self, vgg19_partition):
        server, _ = make_server(vgg19_partition)
        server.begin_iteration(0)
        with pytest.raises(SchedulingError):
            server.end_iteration()

    def test_workers_exceeding_cluster_rejected(self, vgg19_partition):
        config = FelaConfig(
            partition=vgg19_partition,
            total_batch=128,
            num_workers=8,
            weights=(1, 2, 4),
        )
        cluster = Cluster(ClusterSpec(num_nodes=4))
        with pytest.raises(SchedulingError):
            TokenServer(config, cluster)


class TestRequestReportProtocol:
    def drive(self, server, cluster, wid_sequence):
        """Drive the whole token lifecycle with scripted workers."""
        env = cluster.env
        log = []

        def worker(wid):
            while True:
                token = yield from server.request_token(wid)
                if token is None:
                    return
                log.append((wid, token.tid, token.level))
                yield from server.report_completion(wid, token)

        server.begin_iteration(0)
        procs = [env.process(worker(wid)) for wid in wid_sequence]
        env.run(env.all_of(procs))
        return log

    def test_all_tokens_flow_through(self, vgg19_partition):
        server, cluster = make_server(vgg19_partition)
        log = self.drive(server, cluster, [0, 1, 2, 3])
        assert len(log) == sum(server.counts)
        assert server.generator.iteration_complete(0)

    def test_single_worker_consumes_everything(self, vgg19_partition):
        server, cluster = make_server(vgg19_partition)
        log = self.drive(server, cluster, [0])
        assert len(log) == sum(server.counts)
        assert all(wid == 0 for wid, _, _ in log)

    def test_level_done_events_fire_in_order(self, vgg19_partition):
        server, cluster = make_server(vgg19_partition)
        env = cluster.env
        fired = []
        server.begin_iteration(0)
        for level in range(3):
            event = server.level_done_event(level)
            event.callbacks.append(
                lambda _e, lvl=level: fired.append(lvl)
            )

        def worker(wid):
            while True:
                token = yield from server.request_token(wid)
                if token is None:
                    return
                yield from server.report_completion(wid, token)

        procs = [env.process(worker(w)) for w in range(4)]
        env.run(env.all_of(procs))
        assert fired == [0, 1, 2]

    def test_participants_after_single_worker_run(self, vgg19_partition):
        server, cluster = make_server(vgg19_partition)
        self.drive(server, cluster, [0])
        for level in range(3):
            assert server.participants(level) == [0]

    def test_ctd_keeps_comm_level_in_subset(self, vgg19_partition):
        server, cluster = make_server(
            vgg19_partition, conditional_subset_size=2
        )
        self.drive(server, cluster, [0, 1, 2, 3])
        comm_participants = server.participants(2)
        assert set(comm_participants) <= {0, 1}

    def test_tokens_by_worker_accounting(self, vgg19_partition):
        server, cluster = make_server(vgg19_partition)
        log = self.drive(server, cluster, [0, 1, 2, 3])
        assert sum(server.tokens_by_worker.values()) == len(log)

    def test_end_iteration_clears_state(self, vgg19_partition):
        server, cluster = make_server(vgg19_partition)
        self.drive(server, cluster, [0, 1, 2, 3])
        server.end_iteration()
        assert server.generator.registry == {}


class TestExhaustionAcrossOverlappingIterations:
    """``_exhausted_for`` must scan *every* open iteration.

    The pipelined runtimes keep iteration k open while k+1 starts; a
    worker that has drained iteration k must not be sent home while
    k+1 still holds tokens it may take.
    """

    def drain(self, server, cluster, wid=0):
        env = cluster.env
        pulled = []

        def worker():
            while True:
                token = yield from server.request_token(wid)
                if token is None:
                    return
                pulled.append(token)
                yield from server.report_completion(wid, token)

        env.run(env.process(worker()))
        return pulled

    def test_not_exhausted_while_next_iteration_has_tokens(
        self, vgg19_partition
    ):
        server, cluster = make_server(vgg19_partition, num_workers=1)
        server.begin_iteration(0)
        first = self.drain(server, cluster)
        assert len(first) == sum(server.counts)
        # Iteration 0 is fully assigned (and deliberately not ended):
        # with it alone open, the worker is exhausted.
        assert server._exhausted_for(0)
        server.begin_iteration(1)
        # Overlap: iteration 0 exhausted, iteration 1 untouched.  The
        # worker must keep pulling rather than go home early.
        assert not server._exhausted_for(0)
        second = self.drain(server, cluster)
        assert len(second) == sum(server.counts)
        assert {t.iteration for t in second} == {1}
        assert server._exhausted_for(0)
        server.end_iteration(0)
        server.end_iteration(1)


class TestBucketChangedBroadcast:
    def test_unwaited_broadcast_schedules_nothing(self, vgg19_partition):
        server, cluster = make_server(vgg19_partition)
        env = cluster.env
        pending = server.bucket_changed_event()
        before = env.scheduled_events
        server._broadcast()
        assert env.scheduled_events == before
        assert server.bucket_changed_event() is pending
        assert not pending.triggered

        woke = []

        def waiter():
            yield server.bucket_changed_event()
            woke.append(env.now)

        def poke():
            yield env.timeout(1.0)
            server._broadcast()

        env.process(waiter())
        env.process(poke())
        env.run()
        assert woke == [1.0]
        assert pending.processed
        assert server.bucket_changed_event() is not pending
