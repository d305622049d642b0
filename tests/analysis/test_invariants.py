"""Runtime invariant checker: unit breaches + full-run integration.

The integration half is the acceptance test of ISSUE 1: the token
runtime must pass token conservation with invariants enabled across all
three scheduling policies (ADS/HF/CTD, each toggled) and under
straggler injection, on all three sync modes and the pipelined runtime.
"""

import pytest

from repro.analysis import InvariantChecker
from repro.core import (
    FelaConfig,
    FelaRuntime,
    PipelinedFelaRuntime,
    SyncMode,
)
from repro.core.server import TokenServer
from repro.core.tokens import SampleRange, Token
from repro.errors import InvariantViolation
from repro.faults import FaultController, parse_faults
from repro.harness import ExperimentRunner, ExperimentSpec
from repro.hardware import Cluster, ClusterSpec
from repro.obs import NULL_TRACER, Tracer
from repro.sim import Environment
from repro.stragglers import ProbabilityStraggler, RoundRobinStraggler


def make_token(tid, level=0, iteration=0, ordinal=0, home=0, deps=()):
    return Token(
        tid=tid,
        level=level,
        iteration=iteration,
        ordinal=ordinal,
        samples=SampleRange(0, 16),
        deps=deps,
        home_worker=home,
    )


def small_config(partition, **kwargs):
    defaults = dict(
        partition=partition,
        total_batch=128,
        num_workers=8,
        weights=(1, 2, 8),
        conditional_subset_size=2,
        iterations=3,
    )
    defaults.update(kwargs)
    return FelaConfig(**defaults)


def make_checker():
    """A checker on a fresh clock, bound to no run."""
    checker = InvariantChecker()
    checker.attach_env(Environment())
    return checker


def buffered_token(checker, tid=0, **kwargs):
    token = make_token(tid, **kwargs)
    checker.token_minted(token)
    checker.token_buffered(token)
    return token


class TestLifecycleBreaches:
    def test_duplicate_distribution_raises(self):
        checker = make_checker()
        token = buffered_token(checker)
        checker.token_assigned(token, 0)
        with pytest.raises(InvariantViolation, match="distributed twice"):
            checker.token_assigned(token, 1)

    def test_completion_without_assignment_raises(self):
        checker = make_checker()
        token = buffered_token(checker)
        with pytest.raises(InvariantViolation, match="without being"):
            checker.token_reported(token, 0)

    def test_double_mint_raises(self):
        checker = make_checker()
        token = make_token(0)
        checker.token_minted(token)
        with pytest.raises(InvariantViolation, match="minted twice"):
            checker.token_minted(token)

    def test_assignment_before_mint_raises(self):
        checker = make_checker()
        with pytest.raises(InvariantViolation, match="before it was"):
            checker.token_assigned(make_token(0), 0)

    def test_violation_carries_serializable_snapshot(self):
        checker = make_checker()
        token = buffered_token(checker)
        checker.token_assigned(token, 0)
        with pytest.raises(InvariantViolation) as excinfo:
            checker.token_assigned(token, 1)
        snapshot = excinfo.value.snapshot
        assert snapshot["minted_total"] == 1
        assert "snapshot" in str(excinfo.value)
        assert excinfo.value.serialized_snapshot().startswith("{")

    def test_sync_before_level_complete_raises(self):
        checker = make_checker()
        checker.token_minted(make_token(0))
        with pytest.raises(InvariantViolation, match="before the level"):
            checker.sync_started(0, 0, [0, 1])

    def test_double_sync_raises(self):
        checker = make_checker()
        token = buffered_token(checker)
        checker.token_assigned(token, 0)
        checker.token_reported(token, 0)
        checker.sync_started(0, 0, [0])
        with pytest.raises(InvariantViolation, match="twice"):
            checker.sync_started(0, 0, [0])

    def test_wrong_level_count_raises(self, vgg19_partition):
        checker = make_checker()
        checker.config = small_config(vgg19_partition)
        token = buffered_token(checker)
        checker.token_assigned(token, 0)
        checker.token_reported(token, 0)
        with pytest.raises(InvariantViolation, match="wrong minted count"):
            checker.iteration_ended(0)

    def test_bucket_mismatch_raises(self, vgg19_partition):
        # Bound to a real Token Server whose bucket never saw the token.
        server = TokenServer(
            small_config(vgg19_partition), Cluster(ClusterSpec(num_nodes=8))
        )
        checker = InvariantChecker()
        checker.bind(server, forward=NULL_TRACER)
        checker.token_minted(make_token(0))
        with pytest.raises(InvariantViolation, match="bucket size"):
            checker.token_buffered(make_token(0))


class TestClockMonotonicity:
    def test_monitor_accepts_forward_time(self):
        env = Environment()
        checker = InvariantChecker()
        checker.attach_env(env)
        env.timeout(1.0)
        env.timeout(2.0)
        env.run()
        assert checker.checks >= 2

    def test_monitor_rejects_backwards_time(self):
        checker = InvariantChecker()
        checker._on_step(5.0, None)
        with pytest.raises(InvariantViolation, match="backwards"):
            checker._on_step(4.0, None)


class TestRingByteAccounting:
    def test_balanced_collective_passes(self):
        checker = make_checker()
        checker.allreduce([0, 1, 2, 3], 100.0, 2 * 3 * 100.0, 0.0, 1.0)
        checker.finish()
        assert checker.rings_checked == 1

    def test_wrong_byte_volume_raises(self):
        checker = make_checker()
        with pytest.raises(InvariantViolation, match="byte volume"):
            checker.allreduce([0, 1, 2, 3], 100.0, 100.0, 0.0, 1.0)

    def test_unclosed_collective_raises_at_drain(self):
        checker = make_checker()
        checker.sync_started(0, 1, [0, 1])
        with pytest.raises(InvariantViolation, match="still open"):
            checker.finish()

    def test_double_close_raises(self):
        checker = make_checker()
        checker.sync_started(0, 1, [0, 1])
        checker.level_synced(0, 1, [0, 1], 2 * 10.0)
        with pytest.raises(InvariantViolation, match="twice"):
            checker.level_synced(0, 1, [0, 1], 2 * 10.0)


def run_checked(partition, runtime_cls=FelaRuntime, straggler=None,
                **kwargs):
    config = small_config(partition, **kwargs)
    checker = InvariantChecker()
    cluster = Cluster(ClusterSpec(num_nodes=config.num_workers))
    result = runtime_cls(
        config, cluster, straggler=straggler, invariants=checker
    ).run()
    return checker, result


class TestIntegration:
    """Full runs with the checker on: conservation must hold throughout."""

    @pytest.mark.parametrize(
        "toggles",
        [
            {},
            {"ads_enabled": False},
            {"hf_enabled": False},
            {"ctd_enabled": False},
            {"ads_enabled": False, "hf_enabled": False,
             "ctd_enabled": False},
        ],
        ids=["all-on", "no-ads", "no-hf", "no-ctd", "all-off"],
    )
    def test_policy_matrix_conserves_tokens(self, vgg19_partition,
                                            toggles):
        checker, result = run_checked(vgg19_partition, **toggles)
        assert result.total_time > 0
        snapshot = checker.snapshot()
        assert snapshot["buffered"] == 0
        assert snapshot["in_flight"] == 0
        assert snapshot["minted_total"] == snapshot["completed_total"]
        assert snapshot["rings_checked"] == 3 * 3  # iters x levels

    @pytest.mark.parametrize(
        "mode",
        [
            {"sync_mode": SyncMode.BSP},
            {"sync_mode": SyncMode.SSP, "staleness": 2},
            {"sync_mode": SyncMode.ASP},
        ],
        ids=["bsp", "ssp", "asp"],
    )
    def test_sync_modes_conserve_tokens(self, vgg19_partition, mode):
        checker, _ = run_checked(vgg19_partition, **mode)
        assert checker.snapshot()["in_flight"] == 0

    def test_straggler_scenario_conserves_tokens(self, vgg19_partition):
        checker, result = run_checked(
            vgg19_partition,
            straggler=ProbabilityStraggler(0.3, 2.0, seed=7),
            iterations=4,
        )
        assert len(result.records) == 4
        assert checker.snapshot()["closed_iterations"] == [0, 1, 2, 3]

    def test_round_robin_straggler_with_pipelining(self, vgg19_partition):
        checker, result = run_checked(
            vgg19_partition,
            runtime_cls=PipelinedFelaRuntime,
            straggler=RoundRobinStraggler(2.0),
            sync_mode=SyncMode.SSP,
            staleness=2,
        )
        assert len(result.records) == 3
        snapshot = checker.snapshot()
        assert snapshot["buffered"] == 0
        assert snapshot["in_flight"] == 0

    def test_checker_actually_ran(self, vgg19_partition):
        checker, _ = run_checked(vgg19_partition)
        assert checker.checks > 100
        assert checker.rings_checked > 0
        # A check-only run stores no trace events.
        assert checker.events == ()


class TestCheckedRunIsTheRun:
    """The checker only reads the tracer stream: attaching it changes
    neither the simulated program nor the recorded trace."""

    def test_hierarchical_run_simulates_same_program(self):
        config = ExperimentRunner().fela_config(
            ExperimentSpec(
                model_name="vgg19",
                total_batch=256,
                num_workers=16,
                iterations=2,
            )
        ).replace(collective="hierarchical")
        plain = FelaRuntime(config, Cluster(ClusterSpec(num_nodes=16))).run()
        checker = InvariantChecker()
        checked = FelaRuntime(
            config, Cluster(ClusterSpec(num_nodes=16)), invariants=checker
        ).run()
        assert repr(checked.total_time) == repr(plain.total_time)
        # More rings than level syncs: the hierarchical collective's
        # group and leader rings each had their bytes checked.
        assert checker.rings_checked > config.iterations * config.levels

    def test_checked_trace_equals_unchecked_trace(self, vgg19_partition):
        def traced(invariants):
            tracer = Tracer()
            FelaRuntime(
                small_config(vgg19_partition, iterations=4),
                Cluster(ClusterSpec(num_nodes=9)),
                tracer=tracer,
                invariants=invariants,
                faults=FaultController(
                    parse_faults("crash:0@1.0,crash:5@2.5,join@2.0")
                ),
            ).run()
            return tracer.events

        checker = InvariantChecker()
        checked = traced(checker)
        assert checked == traced(None)
        assert checker.snapshot()["reclaimed_total"] > 0
        assert checker.events == ()
