"""Unit tests for the max-min fair network fabric."""

import pytest

from repro.errors import SimulationError
from repro.net import Fabric
from repro.sim import Environment


def run_transfers(fabric, env, transfers):
    """Start (name, src, dst, size, start) transfers; return completions."""
    done = {}

    def xfer(name, src, dst, size, start):
        if start:
            yield env.timeout(start)
        duration = yield fabric.transfer(src, dst, size)
        done[name] = (env.now, duration)

    for spec in transfers:
        env.process(xfer(*spec))
    env.run()
    return done


class TestBasics:
    def test_single_flow_line_rate(self):
        env = Environment()
        fabric = Fabric(env, num_nodes=2, link_bandwidth=100.0, latency=0.0)
        done = run_transfers(fabric, env, [("a", 0, 1, 1000, 0)])
        assert done["a"][0] == pytest.approx(10.0)

    def test_latency_added_after_last_byte(self):
        env = Environment()
        fabric = Fabric(env, num_nodes=2, link_bandwidth=100.0, latency=0.5)
        done = run_transfers(fabric, env, [("a", 0, 1, 100, 0)])
        assert done["a"][0] == pytest.approx(1.5)

    def test_local_transfer_is_free(self):
        env = Environment()
        fabric = Fabric(env, num_nodes=2, link_bandwidth=100.0, latency=0.5)
        done = run_transfers(fabric, env, [("a", 1, 1, 10_000, 0)])
        assert done["a"][0] == 0.0

    def test_zero_size_transfer_is_immediate(self):
        env = Environment()
        fabric = Fabric(env, num_nodes=2, link_bandwidth=100.0)
        done = run_transfers(fabric, env, [("a", 0, 1, 0, 0)])
        assert done["a"][0] == 0.0

    def test_invalid_nodes_rejected(self):
        env = Environment()
        fabric = Fabric(env, num_nodes=2, link_bandwidth=100.0)
        with pytest.raises(SimulationError):
            fabric.transfer(0, 5, 10)
        with pytest.raises(SimulationError):
            fabric.transfer(-1, 1, 10)

    def test_negative_size_rejected(self):
        env = Environment()
        fabric = Fabric(env, num_nodes=2, link_bandwidth=100.0)
        with pytest.raises(SimulationError):
            fabric.transfer(0, 1, -5)

    @pytest.mark.parametrize("size", [float("nan"), float("inf")])
    def test_non_finite_size_rejected(self, size):
        """A NaN or infinite size is a clear error at the call, not a
        stalled fabric later."""
        env = Environment()
        fabric = Fabric(env, num_nodes=3, link_bandwidth=100.0)
        with pytest.raises(SimulationError, match="finite"):
            fabric.transfer(2, 1, size)
        assert fabric.active_flows == []
        assert env.scheduled_events == 0

    @pytest.mark.parametrize(
        "link, switch",
        [
            (0.0, None),
            (float("inf"), None),
            (float("nan"), None),
            (100.0, 0.0),
            (100.0, -5.0),
            (100.0, float("inf")),
            (100.0, float("nan")),
        ],
    )
    def test_bad_bandwidth_rejected(self, link, switch):
        """The waterfill freezes every flow at a finite share only on
        positive, finite capacities: anything else is a clear error at
        construction, not a stalled or spinning solve later."""
        with pytest.raises(SimulationError, match="positive and finite"):
            Fabric(
                Environment(),
                num_nodes=2,
                link_bandwidth=link,
                switch_bandwidth=switch,
            )

    @pytest.mark.parametrize(
        "batch",
        [
            [(1, 1, 5.0), (0, 9, 1.0)],
            [(0, 1, 5.0), (1, 0, float("nan"))],
        ],
        ids=["bad-node", "bad-size"],
    )
    def test_rejected_batch_mints_no_event(self, batch):
        """The whole batch is validated before any event exists: an
        earlier local completion must not be left queued."""
        env = Environment()
        fabric = Fabric(env, num_nodes=2, link_bandwidth=100.0)
        with pytest.raises(SimulationError):
            fabric.transfer_many(batch)
        assert env.scheduled_events == 0
        assert env.peek() == float("inf")
        assert fabric.stats.flows_started == 0


class TestSharing:
    def test_rx_contention_halves_rate(self):
        env = Environment()
        fabric = Fabric(env, num_nodes=3, link_bandwidth=100.0, latency=0.0)
        done = run_transfers(
            fabric,
            env,
            [("a", 0, 2, 100, 0), ("b", 1, 2, 100, 0)],
        )
        assert done["a"][0] == pytest.approx(2.0)
        assert done["b"][0] == pytest.approx(2.0)

    def test_tx_contention_halves_rate(self):
        env = Environment()
        fabric = Fabric(env, num_nodes=3, link_bandwidth=100.0, latency=0.0)
        done = run_transfers(
            fabric,
            env,
            [("a", 0, 1, 100, 0), ("b", 0, 2, 100, 0)],
        )
        assert done["a"][0] == pytest.approx(2.0)
        assert done["b"][0] == pytest.approx(2.0)

    def test_full_duplex_no_interference(self):
        env = Environment()
        fabric = Fabric(env, num_nodes=2, link_bandwidth=100.0, latency=0.0)
        done = run_transfers(
            fabric,
            env,
            [("fwd", 0, 1, 100, 0), ("rev", 1, 0, 100, 0)],
        )
        assert done["fwd"][0] == pytest.approx(1.0)
        assert done["rev"][0] == pytest.approx(1.0)

    def test_rate_reallocated_when_flow_finishes(self):
        env = Environment()
        fabric = Fabric(env, num_nodes=3, link_bandwidth=100.0, latency=0.0)
        # Flow b starts halfway through a's solo run.
        done = run_transfers(
            fabric,
            env,
            [("a", 0, 1, 100, 0), ("b", 0, 2, 100, 0.5)],
        )
        # a: 50B alone (0.5s), then 50B at half rate (1.0s) -> 1.5s.
        assert done["a"][0] == pytest.approx(1.5)
        # b: 50B at half rate until a ends, then 50B at full -> 2.0s.
        assert done["b"][0] == pytest.approx(2.0)

    def test_incast_shares_among_n_senders(self):
        env = Environment()
        n = 5
        fabric = Fabric(env, num_nodes=n + 1, link_bandwidth=100.0, latency=0.0)
        transfers = [(f"s{i}", i, n, 100, 0) for i in range(n)]
        done = run_transfers(fabric, env, transfers)
        for i in range(n):
            assert done[f"s{i}"][0] == pytest.approx(n * 1.0)

    def test_switch_capacity_limits_aggregate(self):
        env = Environment()
        fabric = Fabric(
            env,
            num_nodes=4,
            link_bandwidth=100.0,
            latency=0.0,
            switch_bandwidth=100.0,
        )
        done = run_transfers(
            fabric,
            env,
            [("a", 0, 1, 100, 0), ("b", 2, 3, 100, 0)],
        )
        # Disjoint node pairs, but the 100 B/s switch is shared.
        assert done["a"][0] == pytest.approx(2.0)
        assert done["b"][0] == pytest.approx(2.0)


class TestAccounting:
    def test_stats_track_flows_and_bytes(self):
        env = Environment()
        fabric = Fabric(env, num_nodes=2, link_bandwidth=100.0)
        run_transfers(
            fabric, env, [("a", 0, 1, 100, 0), ("b", 1, 0, 50, 0)]
        )
        assert fabric.stats.flows_started == 2
        assert fabric.stats.flows_completed == 2
        assert fabric.stats.bytes_transferred == pytest.approx(150.0)

    def test_utilization_snapshot(self):
        env = Environment()
        fabric = Fabric(env, num_nodes=2, link_bandwidth=100.0, latency=0.0)
        measured = {}

        def sender(env):
            yield fabric.transfer(0, 1, 1000)

        def probe(env):
            yield env.timeout(1)
            measured["tx"] = fabric.utilization(0, "tx")
            measured["rx"] = fabric.utilization(1, "rx")
            measured["idle"] = fabric.utilization(1, "tx")

        env.process(sender(env))
        env.process(probe(env))
        env.run()
        assert measured["tx"] == pytest.approx(1.0)
        assert measured["rx"] == pytest.approx(1.0)
        assert measured["idle"] == 0.0

    def test_active_flows_listing(self):
        env = Environment()
        fabric = Fabric(env, num_nodes=2, link_bandwidth=100.0)
        fabric.transfer(0, 1, 1000)
        assert len(fabric.active_flows) == 1
        env.run()
        assert fabric.active_flows == []
