"""Integration tests for the two-phase configuration tuner."""

import pytest

from repro.core import FelaConfig
from repro.errors import TokenCountError, TuningError
from repro.tuning import ConfigurationTuner, enumerate_weight_candidates


@pytest.fixture(scope="module")
def tuner_and_result(vgg19_partition):
    tuner = ConfigurationTuner(
        vgg19_partition, total_batch=256, num_workers=8,
        profile_iterations=2,
    )
    return tuner, tuner.tune()


class TestTwoPhases:
    def test_case_count_matches_paper(self, tuner_and_result):
        """10 Phase-1 cases + 3 Phase-2 cases = the paper's 13."""
        _, result = tuner_and_result
        assert len(result.phase1_cases) == 10
        assert len([c for c in result.cases if c.phase == 2]) == 3
        assert len(result.cases) == 13

    def test_warmup_iteration_accounting(self, tuner_and_result):
        _, result = tuner_and_result
        assert result.warmup_iterations == 13 * 2

    def test_phase1_runs_without_ctd(self, tuner_and_result):
        _, result = tuner_and_result
        assert all(c.subset_size == 8 for c in result.phase1_cases)

    def test_phase2_fixes_phase1_weights(self, tuner_and_result):
        _, result = tuner_and_result
        best_p1 = min(
            result.phase1_cases, key=lambda c: c.per_iteration_time
        )
        for case in result.cases:
            if case.phase == 2:
                assert case.weights == best_p1.weights

    def test_phase2_halves_subsets(self, tuner_and_result):
        _, result = tuner_and_result
        sizes = [c.subset_size for c in result.cases if c.phase == 2]
        assert sizes == [4, 2, 1]

    def test_best_case_is_global_minimum(self, tuner_and_result):
        _, result = tuner_and_result
        best = result.best_case
        assert best.per_iteration_time == min(
            c.per_iteration_time for c in result.cases
        )
        assert result.best_weights == best.weights
        assert result.best_subset_size == best.subset_size


class TestDiagnostics:
    def test_gaps_are_fractions(self, tuner_and_result):
        _, result = tuner_and_result
        for gap in (
            result.phase1_gap(),
            result.phase2_gap(),
            result.overall_gap(),
        ):
            assert 0 <= gap < 1

    def test_overall_gap_at_least_phase_gaps(self, tuner_and_result):
        _, result = tuner_and_result
        assert result.overall_gap() >= result.phase1_gap() - 1e-12
        assert result.overall_gap() >= result.phase2_gap() - 1e-12

    def test_tuning_improves_over_worst_case(self, tuner_and_result):
        """The whole point of Fig. 6: the gap is material, not noise."""
        _, result = tuner_and_result
        assert result.overall_gap() > 0.05

    def test_normalized_times_match_footnote16(self, tuner_and_result):
        _, result = tuner_and_result
        normalized = result.normalized_times()
        assert len(normalized) == 13
        assert min(normalized) == 0.0
        assert all(0 <= v < 1 for v in normalized)


class TestTunedConfig:
    def test_tuned_config_uses_best_case(self, tuner_and_result):
        tuner, result = tuner_and_result
        config = tuner.tuned_config(iterations=50, result=result)
        assert config.weights == result.best_weights
        assert config.conditional_subset_size == result.best_subset_size
        assert config.iterations == 50

    def test_invalid_profile_iterations(self, vgg19_partition):
        with pytest.raises(TuningError):
            ConfigurationTuner(
                vgg19_partition, 128, 8, profile_iterations=0
            )


class TestSmallBatch:
    """A batch as small as the worker count: large weights round the
    level-1 token count past it, and the tuner must skip them."""

    @pytest.mark.parametrize("batch", [3, 6, 7, 12])
    def test_halving_tune_finishes(self, vgg19_partition, batch):
        tuner = ConfigurationTuner(
            vgg19_partition, total_batch=batch, num_workers=batch
        )
        result = tuner.tune("halving")
        config = tuner.tuned_config(iterations=1, result=result)
        assert config.token_counts()[0] <= batch

    @pytest.mark.parametrize("batch", [3, 6, 7, 12])
    def test_only_oversized_weights_are_dropped(self, vgg19_partition, batch):
        tuner = ConfigurationTuner(
            vgg19_partition, total_batch=batch, num_workers=batch,
            profile_iterations=1,
        )
        kept = [case.weights for case in tuner.tune().phase1_cases]
        assert (1, 1, 1) in kept
        for weights in enumerate_weight_candidates(3, batch):
            if weights in kept:
                continue
            with pytest.raises(TokenCountError):
                FelaConfig(
                    partition=vgg19_partition,
                    total_batch=batch,
                    num_workers=batch,
                    weights=weights,
                )
