"""Unit tests for FelaConfig validation and derived token arithmetic."""

import pytest

from repro.core import FelaConfig, SyncMode
from repro.errors import ConfigurationError
from repro.models import get_model
from repro.partition import bin_partition


def make_config(vgg19_partition, **kwargs):
    defaults = dict(
        partition=vgg19_partition,
        total_batch=128,
        num_workers=8,
        weights=(1, 2, 8),
        iterations=10,
    )
    defaults.update(kwargs)
    return FelaConfig(**defaults)


class TestValidation:
    def test_weight_count_must_match_levels(self, vgg19_partition):
        with pytest.raises(ConfigurationError):
            make_config(vgg19_partition, weights=(1, 2))

    def test_w1_must_be_one(self, vgg19_partition):
        with pytest.raises(ConfigurationError):
            make_config(vgg19_partition, weights=(2, 2, 4))

    def test_weights_must_be_nondecreasing(self, vgg19_partition):
        with pytest.raises(ConfigurationError):
            make_config(vgg19_partition, weights=(1, 4, 2))

    def test_weights_must_be_powers_of_two(self, vgg19_partition):
        with pytest.raises(ConfigurationError):
            make_config(vgg19_partition, weights=(1, 3, 6))

    def test_batch_below_workers_rejected(self, vgg19_partition):
        with pytest.raises(ConfigurationError):
            make_config(vgg19_partition, total_batch=4)

    def test_ssp_needs_staleness(self, vgg19_partition):
        with pytest.raises(ConfigurationError):
            make_config(vgg19_partition, sync_mode=SyncMode.SSP)
        config = make_config(
            vgg19_partition, sync_mode=SyncMode.SSP, staleness=2
        )
        assert config.staleness == 2

    def test_unknown_sync_mode_rejected(self, vgg19_partition):
        with pytest.raises(ConfigurationError):
            make_config(vgg19_partition, sync_mode="magic")

    def test_subset_size_bounds(self, vgg19_partition):
        with pytest.raises(ConfigurationError):
            make_config(vgg19_partition, conditional_subset_size=9)

    def test_rounded_token_count_above_batch_rejected(
        self, vgg19_partition
    ):
        # n_1 = max(12 // threshold, 8 workers) rounds up to w_max = 16
        # level-1 tokens, but 12 samples cannot fill 16 tokens.
        with pytest.raises(
            ConfigurationError, match="up to 16, more than total batch 12"
        ):
            make_config(
                vgg19_partition, total_batch=12, weights=(1, 16, 16)
            )

    def test_huge_weight_rejected_at_construction(self, profiler):
        # Rejected before any runtime tries to build a 2**70-sample
        # owner table for the rounded level-1 token count.
        partition = bin_partition(get_model("resnet152"), profiler)
        weights = (1,) + (2**70,) * (len(partition) - 1)
        with pytest.raises(
            ConfigurationError, match=f"up to {2**70}, more than total"
        ):
            FelaConfig(
                partition=partition,
                total_batch=128,
                num_workers=8,
                weights=weights,
            )


class TestTokenArithmetic:
    def test_paper_example_counts(self, vgg19_partition):
        """Section III-B: total 128, thresholds 16/32/64-like weights
        (1,2,4) give 8 / 4 / 2 tokens of batch 16 / 32 / 64... scaled to
        our SM-1 threshold of 32: 128/32=4 -> floored at N=8 workers."""
        config = make_config(vgg19_partition, weights=(1, 2, 4))
        counts = config.token_counts()
        batches = config.token_batches()
        assert counts[0] >= config.num_workers  # Equation 2's max(, N)
        assert counts == (8, 4, 2)
        assert batches == (16, 32, 64)

    def test_counts_divide_exactly(self, vgg19_partition):
        for weights in [(1, 1, 1), (1, 2, 8), (1, 8, 8), (1, 4, 4)]:
            config = make_config(vgg19_partition, weights=weights)
            counts = config.token_counts()
            for i in range(len(counts) - 1):
                assert counts[i] % counts[i + 1] == 0

    def test_generation_ratio_matches_weight_ratio(self, vgg19_partition):
        config = make_config(vgg19_partition, weights=(1, 2, 8))
        assert config.generation_ratio(0) == 2
        assert config.generation_ratio(1) == 4

    def test_generation_ratio_out_of_range(self, vgg19_partition):
        config = make_config(vgg19_partition)
        with pytest.raises(ConfigurationError):
            config.generation_ratio(2)

    def test_large_batch_scales_token_count(self, vgg19_partition):
        small = make_config(vgg19_partition, total_batch=128)
        large = make_config(vgg19_partition, total_batch=1024)
        assert large.token_counts()[0] > small.token_counts()[0]

    def test_min_one_token_per_level(self, vgg19_partition):
        config = make_config(vgg19_partition, weights=(1, 8, 8))
        assert all(n >= 1 for n in config.token_counts())


class TestSubset:
    def test_subset_defaults_to_all_workers(self, vgg19_partition):
        config = make_config(vgg19_partition, conditional_subset_size=0)
        assert config.subset_size == 8
        assert config.conditional_subset == frozenset(range(8))

    def test_ctd_disabled_ignores_subset(self, vgg19_partition):
        config = make_config(
            vgg19_partition, conditional_subset_size=2, ctd_enabled=False
        )
        assert config.subset_size == 8

    def test_subset_is_worker_prefix(self, vgg19_partition):
        config = make_config(vgg19_partition, conditional_subset_size=3)
        assert config.conditional_subset == frozenset({0, 1, 2})


class TestReplace:
    def test_replace_revalidates(self, vgg19_partition):
        config = make_config(vgg19_partition)
        with pytest.raises(ConfigurationError):
            config.replace(weights=(1, 4, 2))

    def test_replace_changes_field(self, vgg19_partition):
        config = make_config(vgg19_partition)
        changed = config.replace(iterations=50)
        assert changed.iterations == 50
        assert config.iterations == 10
