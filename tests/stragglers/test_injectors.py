"""Unit tests for the straggler injectors."""

import pytest

from repro.errors import ConfigurationError
from repro.stragglers import (
    NoStraggler,
    ProbabilityStraggler,
    RoundRobinStraggler,
    TransientStraggler,
)


class TestNoStraggler:
    def test_all_zero(self):
        assert NoStraggler().delays(3, 8) == [0.0] * 8


class TestRoundRobin:
    def test_rotates_through_workers(self):
        injector = RoundRobinStraggler(5.0)
        for iteration in range(16):
            delays = injector.delays(iteration, 8)
            assert delays[iteration % 8] == 5.0
            assert sum(1 for d in delays if d > 0) == 1

    def test_negative_delay_rejected(self):
        with pytest.raises(ConfigurationError):
            RoundRobinStraggler(-1.0)


class TestProbability:
    def test_deterministic_per_seed_and_iteration(self):
        a = ProbabilityStraggler(0.3, 6.0, seed=7)
        b = ProbabilityStraggler(0.3, 6.0, seed=7)
        for iteration in range(10):
            assert a.delays(iteration, 8) == b.delays(iteration, 8)

    def test_different_iterations_differ(self):
        injector = ProbabilityStraggler(0.5, 6.0, seed=1)
        patterns = {tuple(injector.delays(i, 8)) for i in range(20)}
        assert len(patterns) > 1

    def test_extreme_probabilities(self):
        assert ProbabilityStraggler(0.0, 6.0).delays(0, 8) == [0.0] * 8
        assert ProbabilityStraggler(1.0, 6.0).delays(0, 8) == [6.0] * 8

    def test_empirical_rate_close_to_p(self):
        injector = ProbabilityStraggler(0.3, 1.0, seed=3)
        hits = sum(
            sum(1 for d in injector.delays(i, 8) if d > 0)
            for i in range(500)
        )
        rate = hits / (500 * 8)
        assert rate == pytest.approx(0.3, abs=0.03)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            ProbabilityStraggler(1.5, 6.0)
        with pytest.raises(ConfigurationError):
            ProbabilityStraggler(0.3, -1.0)


class TestTransient:
    def test_hits_exact_count(self):
        injector = TransientStraggler(4.0, hits=3)
        delays = injector.delays(0, 8)
        assert sum(1 for d in delays if d > 0) == 3

    def test_afflicted_set_switches_between_epochs(self):
        injector = TransientStraggler(4.0, hits=2, persistence=1, seed=0)
        sets = {
            tuple(i for i, d in enumerate(injector.delays(k, 8)) if d > 0)
            for k in range(20)
        }
        assert len(sets) > 1

    def test_persistence_holds_set_constant(self):
        injector = TransientStraggler(4.0, hits=2, persistence=5, seed=0)
        first = injector.delays(0, 8)
        for k in range(1, 5):
            assert injector.delays(k, 8) == first

    def test_hits_capped_at_workers(self):
        injector = TransientStraggler(4.0, hits=100)
        delays = injector.delays(0, 4)
        assert sum(1 for d in delays if d > 0) == 4

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            TransientStraggler(-1.0)
        with pytest.raises(ConfigurationError):
            TransientStraggler(1.0, hits=-1)
        with pytest.raises(ConfigurationError):
            TransientStraggler(1.0, persistence=0)


@pytest.mark.parametrize(
    "make",
    [
        lambda d: RoundRobinStraggler(d),
        lambda d: ProbabilityStraggler(0.5, d),
        lambda d: TransientStraggler(d),
    ],
    ids=["rr", "prob", "transient"],
)
def test_nan_delay_rejected(make):
    """A NaN delay slips past ``delay < 0`` and would then silently run
    as no straggler at all."""
    with pytest.raises(ConfigurationError, match="delay"):
        make(float("nan"))
