"""Analytic GPU model with batch-size saturation and a memory envelope.

The model reproduces the paper's central hardware observation (Fig. 1):
training throughput rises roughly linearly with batch size up to a
layer-shape-dependent *threshold batch size*, then flattens.  We model a
layer's kernels as saturating the GPU once the launch carries enough work,
where "enough" is the earlier of two conditions:

* **FLOP saturation** — the launch performs at least ``saturation_flops``
  of forward work (large-k convolutions hit this first);
* **element saturation** — the launch produces at least
  ``saturation_elements`` output elements to parallelize over (input-stem
  convolutions with few channels hit this first).

The per-layer *threshold batch size* (the knee of the throughput curve) is

    b*(layer) = min(saturation_flops / fwd_flops_per_sample,
                    saturation_elements / out_elements_per_sample)

and the forward+backward time at batch ``b`` is

    time(layer, b) = kernel_overhead
                   + 3 * fwd_flops_per_sample * max(b, b*) / peak_flops.

One pair of constants reproduces every anchor the paper publishes for the
Tesla K40c (Fig. 1 / Fig. 5 / footnotes 12-14):

======================  =================  ===============  ==========
layer (paper)           fwd FLOPs/sample   out elements     paper knee
======================  =================  ===============  ==========
CONV (64,64,224,224)    3.70 GFLOP         3.21 M           16
CONV (128,128,112,112)  3.70 GFLOP         1.61 M           ~16
CONV (512,512,14,14)    0.925 GFLOP        0.10 M           64
FC (4096,4096)          0.0336 GFLOP       4096             ~2048
======================  =================  ===============  ==========

With ``saturation_flops = 60 GFLOP`` and ``saturation_elements = 50 M``
the power-of-two profiled thresholds land exactly on 16 / 16 / 64 / 2048.

The memory envelope reproduces the paper's footnote 3 ("while training a
complete VGG19 model ... the batch size larger than 32 has exceeded the
GPU memory" on a 12 GB K40c): parameters are held three times (weights,
gradients, optimizer state) and activations three times (forward
activations kept for backward, their gradients, and scratch).
"""

from __future__ import annotations

import dataclasses
import typing as _t

from repro.errors import CapacityError, ConfigurationError
from repro.models import BYTES_PER_FLOAT, LayerProfile

#: Forward+backward work as a multiple of forward work.
_TRAIN_FLOP_FACTOR = 3.0

#: Copies of the parameter tensor resident during training
#: (weights + gradients + SGD momentum).
_PARAM_RESIDENCY = 3.0

#: Copies of each activation tensor resident during training
#: (forward value + gradient + scratch).
_ACTIVATION_RESIDENCY = 3.0


@dataclasses.dataclass(frozen=True)
class GpuSpec:
    """Static description of one GPU.

    Defaults model the paper's NVIDIA Tesla K40c (12 GB).
    ``peak_flops`` is the *sustained* training throughput, not the
    datasheet peak; ~1.5 TFLOP/s is a typical convnet-sustained figure for
    the K40c's 4.29 TFLOP/s peak.
    """

    name: str = "tesla-k40c"
    peak_flops: float = 1.5e12
    memory_bytes: float = 12e9
    saturation_flops: float = 60e9
    saturation_elements: float = 50e6
    #: Fixed launch/framework overhead per layer kernel, seconds.  Also
    #: absorbs the paper's "virtual layer" hook overhead.
    kernel_overhead: float = 2e-4
    #: Memory reserved for the framework/cuDNN workspace, bytes.
    workspace_bytes: float = 0.5e9
    #: :meth:`train_time` memo, one per instance (set in
    #: ``__post_init__``, so ``dataclasses.replace`` starts a fresh one):
    #: ``(id(profiles), batch) -> (profiles, seconds)``.  Not a field, so
    #: equality, hashing, ``asdict`` and cache keys never see it.
    _train_memo: _t.ClassVar[
        dict[tuple[int, int], tuple[tuple[LayerProfile, ...], float]]
    ]

    def __post_init__(self) -> None:
        # Written as ``not x > 0`` / ``not x >= 0`` so NaN is rejected too.
        if not (self.peak_flops > 0 and self.memory_bytes > 0):
            raise ConfigurationError(
                f"GPU {self.name!r}: peak_flops and memory_bytes must be > 0"
            )
        if not (
            self.saturation_flops >= 0
            and self.saturation_elements >= 0
            and self.kernel_overhead >= 0
        ):
            raise ConfigurationError(
                f"GPU {self.name!r}: saturation/overhead must be >= 0"
            )
        object.__setattr__(self, "_train_memo", {})

    # -- saturation ---------------------------------------------------------

    def knee_batch(
        self, fwd_flops_per_sample: float, out_elements_per_sample: int
    ) -> float:
        """Continuous threshold batch size for a layer shape."""
        knee = float("inf")
        if fwd_flops_per_sample > 0 and self.saturation_flops > 0:
            knee = self.saturation_flops / fwd_flops_per_sample
        if out_elements_per_sample > 0 and self.saturation_elements > 0:
            knee = min(
                knee, self.saturation_elements / out_elements_per_sample
            )
        return max(1.0, knee) if knee != float("inf") else 1.0

    # -- compute ---------------------------------------------------------------

    def layer_train_time(self, profile: LayerProfile, batch: int) -> float:
        """Seconds to run forward+backward for one layer at ``batch``."""
        return self._layer_time(profile, batch, _TRAIN_FLOP_FACTOR)

    def layer_forward_time(self, profile: LayerProfile, batch: int) -> float:
        """Seconds to run only the forward pass of one layer."""
        return self._layer_time(profile, batch, 1.0)

    def layer_backward_time(self, profile: LayerProfile, batch: int) -> float:
        """Seconds to run only the backward pass of one layer."""
        return self._layer_time(profile, batch, _TRAIN_FLOP_FACTOR - 1.0)

    def _layer_time(
        self, profile: LayerProfile, batch: int, flop_factor: float
    ) -> float:
        if batch < 1:
            raise ConfigurationError(f"batch must be >= 1: {batch}")
        knee = self.knee_batch(
            profile.forward_flops, profile.activation_floats
        )
        effective_batch = max(float(batch), knee)
        return (
            self.kernel_overhead
            + flop_factor
            * profile.forward_flops
            * effective_batch
            / self.peak_flops
        )

    def train_time(
        self, profiles: _t.Sequence[LayerProfile], batch: int
    ) -> float:
        """Seconds to train (fwd+bwd) a stack of layers at ``batch``.

        Saturation applies per layer kernel, which is what makes deep
        narrow layers need large batches while wide early layers saturate
        at small ones.

        The sum is a pure function of the stack and the batch, so a
        tuple stack (a sub-model's ``layers``) is memoized by identity.
        The memo holds the tuple itself, so a recycled ``id`` can never
        alias it.  A list may change in place, and ``Model.layers``
        builds a fresh one per call, so lists are summed every time.
        """
        key = (id(profiles), batch)
        memo = self._train_memo
        entry = memo.get(key)
        if entry is not None and entry[0] is profiles:
            return entry[1]
        seconds = sum(self.layer_train_time(p, batch) for p in profiles)
        if type(profiles) is tuple:
            memo[key] = (profiles, seconds)
        return seconds

    def forward_time(
        self, profiles: _t.Sequence[LayerProfile], batch: int
    ) -> float:
        """Seconds for only the forward pass of a stack of layers."""
        return sum(self.layer_forward_time(p, batch) for p in profiles)

    def backward_time(
        self, profiles: _t.Sequence[LayerProfile], batch: int
    ) -> float:
        """Seconds for only the backward pass of a stack of layers."""
        return sum(self.layer_backward_time(p, batch) for p in profiles)

    def layer_throughput(self, profile: LayerProfile, batch: int) -> float:
        """Training throughput (samples/s) for a single layer — Fig. 1."""
        return batch / self.layer_train_time(profile, batch)

    # -- memory -------------------------------------------------------------------

    def memory_required(
        self,
        profiles: _t.Sequence[LayerProfile],
        batch: int,
        input_floats: int = 0,
    ) -> float:
        """Bytes of GPU memory needed to train ``profiles`` at ``batch``."""
        param_bytes = sum(p.param_bytes for p in profiles)
        act_bytes = sum(p.activation_bytes for p in profiles)
        return (
            self.workspace_bytes
            + _PARAM_RESIDENCY * param_bytes
            + _ACTIVATION_RESIDENCY * act_bytes * batch
            + input_floats * BYTES_PER_FLOAT * batch
        )

    def fits(
        self,
        profiles: _t.Sequence[LayerProfile],
        batch: int,
        input_floats: int = 0,
    ) -> bool:
        """Whether training ``profiles`` at ``batch`` fits in GPU memory."""
        return (
            self.memory_required(profiles, batch, input_floats)
            <= self.memory_bytes
        )

    def max_batch(
        self,
        profiles: _t.Sequence[LayerProfile],
        input_floats: int = 0,
        limit: int = 1 << 20,
    ) -> int:
        """Largest batch that fits in memory (0 if even batch 1 does not)."""
        if not self.fits(profiles, 1, input_floats):
            return 0
        high = 1
        while high < limit and self.fits(profiles, high * 2, input_floats):
            high *= 2
        low = high
        high = min(high * 2, limit)
        while low < high:
            mid = (low + high + 1) // 2
            if self.fits(profiles, mid, input_floats):
                low = mid
            else:
                high = mid - 1
        return low

    def require_fits(
        self,
        profiles: _t.Sequence[LayerProfile],
        batch: int,
        input_floats: int = 0,
    ) -> None:
        """Raise :class:`CapacityError` unless the workload fits."""
        needed = self.memory_required(profiles, batch, input_floats)
        if needed > self.memory_bytes:
            raise CapacityError(
                f"GPU {self.name!r}: batch {batch} needs "
                f"{needed / 1e9:.2f} GB > {self.memory_bytes / 1e9:.2f} GB"
            )
