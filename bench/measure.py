"""Running ops, checking them, and folding timings into metrics.

Host times are normalized for host speed; see :mod:`speed`.
"""

from __future__ import annotations

import contextlib
import dataclasses
import gc
import statistics
import time
import typing as _t

from counting import COUNT_NAMES, CountingWrappers, per_op_counts
from sampling import ENTRY_NAMES, LAYERS, StackSampler
from speed import REF_SECONDS, SpeedProbe
from workloads import CheckFailed, Outcome, Variant

#: A percentile is reported only with at least ten samples beyond it.
MIN_P90_SAMPLES = 100

#: End-to-end metrics a ``--trace 0`` run reports, in print order.
END_TO_END = ("run_s_p50", "sim_s_per_wall_s", "setup_s", "peak_rss_mb")


@dataclasses.dataclass
class Tally:
    """Ops attempted and failed; a failure never aborts the run."""

    attempted: int = 0
    failed: int = 0
    errors: list[str] = dataclasses.field(default_factory=list)

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(message)


def run_op(
    variant: Variant,
    tally: Tally,
    checked: bool = False,
    reference: Outcome | None = None,
    pins: dict[str, _t.Any] | None = None,
) -> Outcome | None:
    """One op; its outcome, or ``None`` if it failed.

    An op fails if it raises, if its outputs differ from ``reference``
    (an earlier repeat of the same variant), or if they differ from
    ``pins``.
    """
    tally.attempted += 1
    try:
        outcome = variant.run(checked)
    except Exception as exc:  # a failed op is counted, never fatal
        tally.fail(f"{variant.name}: raised {type(exc).__name__}: {exc}")
        return None
    try:
        if reference is not None and outcome.outputs != reference.outputs:
            raise CheckFailed(
                f"drifted between repeats: {outcome.outputs} != "
                f"{reference.outputs}"
            )
        for key, want in (pins or {}).items():
            if outcome.outputs.get(key) != want:
                raise CheckFailed(
                    f"{key} = {outcome.outputs.get(key)!r}, pinned {want!r}"
                )
    except CheckFailed as exc:
        tally.fail(f"{variant.name}: {exc}")
        return None
    return outcome


@dataclasses.dataclass(frozen=True)
class OpTime:
    #: Host seconds of the op, the speed probe's own loops left out.
    seconds: float
    #: Mean speed-probe loop seconds while the op ran.
    loop_seconds: float
    sim_seconds: float

    @property
    def normalized(self) -> float:
        return self.seconds * REF_SECONDS / self.loop_seconds


def warm_up(
    variants: _t.Sequence[Variant],
    tally: Tally,
    pins: dict[str, dict[str, _t.Any]],
) -> dict[str, Outcome | None]:
    """One checked op per variant; its outputs become the reference."""
    return {
        variant.name: run_op(
            variant, tally, checked=True, pins=pins.get(variant.name)
        )
        for variant in variants
    }


def timed_ops(
    variants: _t.Sequence[Variant],
    references: dict[str, Outcome | None],
    tally: Tally,
    seconds: float | None = None,
    cycles: int | None = None,
    sampler: StackSampler | None = None,
) -> list[OpTime]:
    """Whole cycles over the variants, back to back, one client.

    Runs until ``seconds`` have passed or for ``cycles`` cycles.  Each
    op is timed alone, under the speed probe (and the stack sampler,
    given one).
    """
    times: list[OpTime] = []
    deadline = time.perf_counter() + (seconds or 0.0)
    done = 0
    while True:
        for variant in variants:
            gc.collect()
            reference = references.get(variant.name)
            with SpeedProbe() as probe, sampler or contextlib.nullcontext():
                outcome = run_op(variant, tally, reference=reference)
            if outcome is not None:
                if reference is None:
                    references[variant.name] = outcome
                times.append(
                    OpTime(probe.seconds, probe.loop_seconds, outcome.sim_seconds)
                )
        done += 1
        if cycles is not None and done >= cycles:
            return times
        if cycles is None and time.perf_counter() >= deadline:
            return times


def check_counts(
    variants: _t.Sequence[Variant],
    references: dict[str, Outcome | None],
    tally: Tally,
) -> dict[str, float]:
    """One op per variant under the counting wrappers."""
    sums: dict[str, float] = {}
    with CountingWrappers() as wrappers:
        for variant in variants:
            outcome = run_op(variant, tally, reference=references.get(variant.name))
            extra = outcome.counts if outcome is not None else {}
            for source in (wrappers.take(), extra):
                for key, value in source.items():
                    sums[key] = sums.get(key, 0) + value
    return per_op_counts(sums, len(variants))


# -- folding into metrics -----------------------------------------------------


def p90(values: _t.Sequence[float]) -> float | None:
    """90th percentile, or ``None`` below :data:`MIN_P90_SAMPLES`."""
    if len(values) < MIN_P90_SAMPLES:
        return None
    return statistics.quantiles(values, n=10)[-1]


def end_to_end(
    times: _t.Sequence[OpTime],
    setups: _t.Sequence[tuple[float, float]],
    peak_rss_mb: float,
) -> dict[str, float]:
    """The ``--trace 0`` metrics.

    ``setups`` holds one ``(setup seconds, reference seconds)`` pair per
    fresh process.
    """
    normalized = [t.normalized for t in times]
    return {
        "run_s_p50": statistics.median(normalized),
        "sim_s_per_wall_s": sum(t.sim_seconds for t in times) / sum(normalized),
        "setup_s": statistics.median(
            seconds * REF_SECONDS / ref for seconds, ref in setups
        ),
        "peak_rss_mb": peak_rss_mb,
    }


def per_layer(
    sampler: StackSampler,
    untraced: _t.Sequence[OpTime],
    traced: _t.Sequence[OpTime],
    counts: dict[str, float],
) -> dict[str, float]:
    """The ``--trace 1`` metrics.

    A layer's self time per op is its sample share of the untraced mean
    op time, so the layers add up to the cost of an op with tracing off.
    """
    untraced_s = statistics.fmean(t.normalized for t in untraced)
    traced_s = statistics.fmean(t.normalized for t in traced)
    metrics: dict[str, float] = {}
    for layer, share in sampler.layer_shares().items():
        metrics[f"layer.{layer}.share"] = share
        metrics[f"layer.{layer}.self_ms"] = share * untraced_s * 1000.0
    for entry, share in sampler.entry_shares().items():
        metrics[f"entry.{entry}.incl_share"] = share
    metrics["trace.overhead"] = traced_s / untraced_s
    metrics["trace.samples"] = sampler.samples
    metrics.update(counts)
    return metrics


def per_layer_names() -> tuple[str, ...]:
    """Every ``--trace 1`` metric name, in print order."""
    names = [
        f"layer.{layer}.{kind}" for layer in LAYERS for kind in ("share", "self_ms")
    ]
    names += [f"entry.{entry}.incl_share" for entry in ENTRY_NAMES]
    names += ["trace.overhead", "trace.samples"]
    return tuple(names) + COUNT_NAMES
