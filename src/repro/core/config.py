"""Configuration of a Fela run: parallelism degrees, policies, sync mode.

The paper's terminology, mapped to fields here:

* *weights* ``w_i`` — the batch-size multiplier of sub-model *i* relative
  to sub-model 1 (``w_1 = 1`` always; candidates are powers of two with
  ``w_{i+1} >= w_i``).  A T-*i* token trains with ``w_i * batch_1``
  samples, and one T-*(i+1)* token is generated per ``w_{i+1}/w_i``
  completed T-*i* tokens.

  .. note:: Section IV-B of the paper writes ``n_i = (w_i/w_1) * n_1``
     (more tokens for deeper sub-models), which contradicts the worked
     example of Section III-B (8 / 4 / 2 tokens of batch 16 / 32 / 64) and
     the motivation that deeper layers need *larger* batches.  We follow
     the Section III-B semantics: ``n_i = n_1 / w_i``.

* *conditional subset size* — CTD policy trains communication-intensive
  sub-models only on the first ``conditional_subset_size`` workers.

* *policies* — ADS / HF / CTD toggles exist so the ablation study
  (Fig. 7 / Table III) can switch each off individually.
"""

from __future__ import annotations

import dataclasses
import typing as _t

from repro.errors import ConfigurationError, TokenCountError
from repro.partition import Partition


class SyncMode:
    """Parameter-synchronization modes (paper Section VI)."""

    BSP = "bsp"
    SSP = "ssp"
    ASP = "asp"


@dataclasses.dataclass(frozen=True)
class FelaConfig:
    """Full configuration of one Fela training run."""

    partition: Partition
    total_batch: int
    num_workers: int
    #: Batch-size multipliers per sub-model, w_1 .. w_M (w_1 must be 1).
    weights: tuple[int, ...]
    #: Number of workers allowed to train communication-intensive
    #: sub-models (CTD).  Equal to ``num_workers`` = CTD disabled.
    conditional_subset_size: int = 0  # 0 -> defaults to num_workers
    #: Policy toggles (for the ablation study).
    ads_enabled: bool = True
    hf_enabled: bool = True
    ctd_enabled: bool = True
    #: Synchronization mode and SSP staleness bound.
    sync_mode: str = SyncMode.BSP
    staleness: int = 0
    #: Gradient-sync collective: ``"ring"`` (one flat ring over all
    #: participants) or ``"hierarchical"`` (two-level, √k-sized groups —
    #: the BML/HiPS-style scheme of the paper's refs [4], [5]).  At
    #: hundreds-to-thousands of workers the flat ring's 2(k-1) rounds
    #: dominate; the hierarchical scheme trades them for two smaller
    #: rings plus a broadcast.
    collective: str = "ring"
    iterations: int = 100
    #: TS request service time, seconds (the paper: "at most hundreds of
    #: bytes during each transfer", so latency-dominated).
    ts_service_time: float = 1e-4
    #: Extra cost of a *fetching conflict* (lock retry + re-distribution),
    #: paid when a token request contends on the shared bucket (III-E).
    conflict_overhead: float = 5e-4

    def __post_init__(self) -> None:
        levels = len(self.partition)
        if len(self.weights) != levels:
            raise ConfigurationError(
                f"{levels} sub-models need {levels} weights, "
                f"got {self.weights}"
            )
        if self.weights[0] != 1:
            raise ConfigurationError(f"w_1 must be 1, got {self.weights[0]}")
        for i, (a, b) in enumerate(zip(self.weights, self.weights[1:])):
            if b < a:
                raise ConfigurationError(
                    f"weights must be non-decreasing: w_{i + 1}={a} > "
                    f"w_{i + 2}={b}"
                )
            if b % a:
                raise ConfigurationError(
                    f"w_{i + 2}={b} must be a multiple of w_{i + 1}={a} so "
                    "token generation ratios are integral"
                )
        for w in self.weights:
            if w < 1 or (w & (w - 1)):
                raise ConfigurationError(
                    f"weights must be powers of two, got {self.weights}"
                )
        if self.num_workers < 1:
            raise ConfigurationError(
                f"need at least one worker: {self.num_workers}"
            )
        if self.total_batch < self.num_workers:
            raise ConfigurationError(
                f"total batch {self.total_batch} smaller than worker "
                f"count {self.num_workers}"
            )
        if self.sync_mode not in (SyncMode.BSP, SyncMode.SSP, SyncMode.ASP):
            raise ConfigurationError(f"unknown sync mode {self.sync_mode!r}")
        if self.collective not in ("ring", "hierarchical"):
            raise ConfigurationError(
                f"unknown collective {self.collective!r} "
                "(expected 'ring' or 'hierarchical')"
            )
        if self.sync_mode == SyncMode.SSP and self.staleness < 1:
            raise ConfigurationError("SSP needs staleness >= 1")
        if self.iterations < 1:
            raise ConfigurationError(
                f"need at least one iteration: {self.iterations}"
            )
        if not 0 <= self.conditional_subset_size <= self.num_workers:
            raise ConfigurationError(
                f"conditional subset size {self.conditional_subset_size} "
                f"outside [0, {self.num_workers}]"
            )
        n_1 = self.token_counts()[0]
        if n_1 > self.total_batch:
            raise TokenCountError(
                f"largest weight {max(self.weights)} rounds the level-1 "
                f"token count up to {n_1}, more than total batch "
                f"{self.total_batch} (each token needs at least one "
                "sample)"
            )

    # -- derived quantities ---------------------------------------------------

    @property
    def levels(self) -> int:
        return len(self.partition)

    @property
    def subset_size(self) -> int:
        """Effective CTD subset size (0 means "all workers")."""
        if not self.ctd_enabled or self.conditional_subset_size == 0:
            return self.num_workers
        return self.conditional_subset_size

    @property
    def conditional_subset(self) -> frozenset[int]:
        """The worker set S of Section III-F (first ``subset_size`` ids)."""
        return frozenset(range(self.subset_size))

    def token_counts(self) -> tuple[int, ...]:
        """Number of tokens per level in one iteration (n_1 .. n_M).

        Per the paper's Equation 2, ``n_1 = max(total_batch /
        threshold_batch_1, N)`` — at least one T-1 token per worker —
        then ``n_i = n_1 / w_i``, floored at 1.
        """
        threshold_1 = self.partition[0].threshold_batch
        n_1 = max(self.total_batch // max(threshold_1, 1), self.num_workers)
        # Round n_1 up to a multiple of the largest weight so every level's
        # token count n_i = n_1 / w_i is integral and consecutive token
        # groups merge exactly into one higher-level token.
        w_max = max(self.weights)
        n_1 = ((n_1 + w_max - 1) // w_max) * w_max
        return tuple(n_1 // w for w in self.weights)

    def token_batches(self) -> tuple[int, ...]:
        """Batch size of one token per level."""
        return tuple(
            max(1, self.total_batch // n) for n in self.token_counts()
        )

    def generation_ratio(self, level: int) -> int:
        """Completed level-``level`` tokens needed per level+1 token."""
        counts = self.token_counts()
        if not 0 <= level < self.levels - 1:
            raise ConfigurationError(f"no generation ratio at level {level}")
        return max(1, counts[level] // counts[level + 1])

    def replace(self, **changes: _t.Any) -> "FelaConfig":
        """A copy with the given fields changed (re-validated)."""
        return dataclasses.replace(self, **changes)
