"""Unit tests for the GPU saturation and memory models."""

import dataclasses

import pytest

from repro.errors import CapacityError, ConfigurationError
from repro.hardware import GpuSpec
from repro.models import ConvSpec, LinearSpec, ModelGraph, get_model


def single_layer(kind):
    """The paper's Fig. 1 probe layers."""
    if kind == "conv_front":
        graph = ModelGraph(
            "p", (64, 224, 224), [ConvSpec(name="c", out_channels=64)]
        )
    elif kind == "conv_back":
        graph = ModelGraph(
            "p", (512, 14, 14), [ConvSpec(name="c", out_channels=512)]
        )
    elif kind == "fc":
        graph = ModelGraph("p", (4096,), [LinearSpec(name="f", out_features=4096)])
    else:
        raise ValueError(kind)
    return graph.layers[0]


class TestSaturation:
    """The knee positions the paper publishes (Fig. 1, footnotes 12-14)."""

    def test_front_conv_knee_near_16(self, default_gpu):
        knee = default_gpu.knee_batch(
            single_layer("conv_front").forward_flops,
            single_layer("conv_front").activation_floats,
        )
        assert 8 < knee <= 16.5

    def test_back_conv_knee_near_64(self, default_gpu):
        knee = default_gpu.knee_batch(
            single_layer("conv_back").forward_flops,
            single_layer("conv_back").activation_floats,
        )
        assert 32 < knee <= 65

    def test_fc_knee_near_2048(self, default_gpu):
        knee = default_gpu.knee_batch(
            single_layer("fc").forward_flops,
            single_layer("fc").activation_floats,
        )
        assert 1024 < knee <= 2048

    def test_throughput_flat_above_knee(self, default_gpu):
        layer = single_layer("conv_front")
        t64 = default_gpu.layer_throughput(layer, 64)
        t1024 = default_gpu.layer_throughput(layer, 1024)
        assert t1024 == pytest.approx(t64, rel=0.01)

    def test_throughput_linear_below_knee(self, default_gpu):
        layer = single_layer("fc")
        t16 = default_gpu.layer_throughput(layer, 16)
        t32 = default_gpu.layer_throughput(layer, 32)
        assert t32 == pytest.approx(2 * t16, rel=0.02)

    def test_train_time_monotone_in_batch(self, default_gpu):
        layer = single_layer("conv_back")
        times = [
            default_gpu.layer_train_time(layer, b) for b in (1, 8, 64, 512)
        ]
        assert times == sorted(times)

    def test_train_is_forward_plus_backward(self, default_gpu):
        layer = single_layer("conv_front")
        fwd = default_gpu.layer_forward_time(layer, 32)
        bwd = default_gpu.layer_backward_time(layer, 32)
        train = default_gpu.layer_train_time(layer, 32)
        # One kernel_overhead is double-counted when splitting phases.
        assert fwd + bwd == pytest.approx(
            train + default_gpu.kernel_overhead
        )

    def test_batch_below_one_rejected(self, default_gpu):
        with pytest.raises(ConfigurationError):
            default_gpu.layer_train_time(single_layer("fc"), 0)


class TestMemory:
    def test_vgg19_fits_at_32_not_64(self, default_gpu, vgg19):
        """Paper footnote 3: VGG19 batch > 32 exceeds the K40c's 12 GB."""
        assert default_gpu.fits(vgg19.layers, 32, vgg19.input_floats)
        assert not default_gpu.fits(vgg19.layers, 64, vgg19.input_floats)

    def test_max_batch_consistency(self, default_gpu, vgg19):
        max_batch = default_gpu.max_batch(vgg19.layers, vgg19.input_floats)
        assert default_gpu.fits(vgg19.layers, max_batch, vgg19.input_floats)
        assert not default_gpu.fits(
            vgg19.layers, max_batch + 1, vgg19.input_floats
        )

    def test_memory_monotone_in_batch(self, default_gpu, vgg19):
        m8 = default_gpu.memory_required(vgg19.layers, 8)
        m16 = default_gpu.memory_required(vgg19.layers, 16)
        assert m16 > m8

    def test_require_fits_raises(self, default_gpu, vgg19):
        with pytest.raises(CapacityError):
            default_gpu.require_fits(vgg19.layers, 512, vgg19.input_floats)

    def test_googlenet_fits_large_batches(self, default_gpu, googlenet):
        """The small 32x32 GoogLeNet fits far larger batches than VGG19."""
        assert default_gpu.max_batch(
            googlenet.layers, googlenet.input_floats
        ) > default_gpu.max_batch(get_model("vgg19").layers)

    def test_max_batch_zero_when_nothing_fits(self, vgg19):
        tiny = GpuSpec(memory_bytes=1e9)  # smaller than VGG19's params
        assert tiny.max_batch(vgg19.layers, vgg19.input_floats) == 0


class TestValidation:
    def test_bad_peak_flops(self):
        with pytest.raises(ConfigurationError):
            GpuSpec(peak_flops=0)

    def test_bad_overhead(self):
        with pytest.raises(ConfigurationError):
            GpuSpec(kernel_overhead=-1)

    def test_stack_time_is_sum_of_layers(self, default_gpu, vgg19):
        total = default_gpu.train_time(vgg19.layers, 16)
        assert total == pytest.approx(
            sum(
                default_gpu.layer_train_time(p, 16) for p in vgg19.layers
            )
        )


class TestTrainTimeMemo:
    """``train_time`` memoizes a tuple stack by identity, exactly."""

    BATCHES = (1, 2, 3, 7, 8, 16, 31, 32, 64, 100, 128, 512, 2048, 4096)

    @pytest.mark.parametrize("name", ["vgg19", "googlenet"])
    def test_bit_identical_to_the_sum(self, request, name):
        partition = request.getfixturevalue(f"{name}_partition")
        gpu = GpuSpec()
        for submodel in partition.submodels:
            for batch in self.BATCHES:
                fresh = sum(
                    gpu.layer_train_time(p, batch) for p in submodel.layers
                )
                miss = gpu.train_time(submodel.layers, batch)
                hit = gpu.train_time(submodel.layers, batch)
                assert repr(miss) == repr(hit) == repr(fresh)
        assert len(gpu._train_memo) == len(partition.submodels) * len(
            self.BATCHES
        )

    def test_equal_fresh_tuple_misses(self, vgg19_partition):
        gpu = GpuSpec()
        layers = vgg19_partition.submodels[0].layers
        gpu.train_time(layers, 16)
        copy = tuple(list(layers))
        assert copy == layers and copy is not layers
        assert gpu.train_time(copy, 16) == gpu.train_time(layers, 16)
        assert len(gpu._train_memo) == 2

    def test_lists_are_not_memoized(self, vgg19):
        gpu = GpuSpec()
        layers = vgg19.layers
        first = gpu.train_time(layers, 16)
        layers.pop()
        assert gpu.train_time(layers, 16) < first
        assert gpu._train_memo == {}

    def test_replaced_spec_has_its_own_memo(self, vgg19_partition):
        gpu = GpuSpec()
        layers = vgg19_partition.submodels[0].layers
        slow = gpu.train_time(layers, 16)
        fast = dataclasses.replace(gpu, peak_flops=2 * gpu.peak_flops)
        assert fast._train_memo is not gpu._train_memo
        assert fast.train_time(layers, 16) < slow
        assert fast == dataclasses.replace(gpu, peak_flops=3e12)
        assert "_train_memo" not in {f.name for f in dataclasses.fields(gpu)}
