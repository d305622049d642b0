"""Counting wrappers for the check pass.

Installed only around the untimed check ops, then removed, so the timed
and traced passes run the program unmodified.  The wrappers capture every
fabric and every finished Fela run the op creates, and count calls into
the fabric, the GPU model and the cluster scheduler.  All counts are
properties of the simulation, not of the host.
"""

from __future__ import annotations

import collections
import functools
import typing as _t

#: Deterministic per-op counts the check pass reports, in print order.
COUNT_NAMES = (
    "sim.events",
    "net.flows",
    "net.solves_full",
    "net.solves_restricted",
    "net.transfer_calls",
    "net.bytes",
    "core.ts_requests",
    "core.ts_conflict_frac",
    "core.worker_idle_frac",
    "core.worker_fetch_frac",
    "hardware.train_time_calls",
    "faults.lost_compute_s",
    "cluster.resizes",
    "cluster.plan_calls",
    "tuning.cases_profiled",
    "tuning.cases_pruned",
)


class CountingWrappers:
    """Context manager that patches the counting wrappers in and out."""

    def __init__(self) -> None:
        from repro.cluster import SCHEDULER_NAMES, get_scheduler
        from repro.core import FelaRuntime
        from repro.hardware import GpuSpec
        from repro.net import Fabric

        self.calls: collections.Counter[str] = collections.Counter()
        self.fabrics: list[_t.Any] = []
        self.results: list[_t.Any] = []
        self._targets: list[tuple[type, str, _t.Callable[..., _t.Any]]] = [
            (Fabric, "__init__", self._capture(self.fabrics, keep="self")),
            (Fabric, "transfer", self._count("transfer")),
            (Fabric, "transfer_many", self._count("transfer")),
            (FelaRuntime, "finalize", self._capture(self.results, keep="result")),
            (GpuSpec, "train_time", self._count("train_time")),
        ]
        for scheduler in dict.fromkeys(
            type(get_scheduler(name)) for name in SCHEDULER_NAMES
        ):
            self._targets.append((scheduler, "plan", self._count("plan")))
        self._saved: list[tuple[type, str, _t.Any]] = []

    def _count(self, key: str) -> _t.Callable[..., _t.Any]:
        def wrap(original: _t.Callable[..., _t.Any]) -> _t.Callable[..., _t.Any]:
            @functools.wraps(original)
            def counted(*args: _t.Any, **kwargs: _t.Any) -> _t.Any:
                self.calls[key] += 1
                return original(*args, **kwargs)

            return counted

        return wrap

    @staticmethod
    def _capture(into: list[_t.Any], keep: str) -> _t.Callable[..., _t.Any]:
        def wrap(original: _t.Callable[..., _t.Any]) -> _t.Callable[..., _t.Any]:
            @functools.wraps(original)
            def captured(instance: _t.Any, *args: _t.Any, **kwargs: _t.Any) -> _t.Any:
                result = original(instance, *args, **kwargs)
                into.append(instance if keep == "self" else result)
                return result

            return captured

        return wrap

    def __enter__(self) -> "CountingWrappers":
        for cls, name, wrap in self._targets:
            self._saved.append((cls, name, cls.__dict__.get(name)))
            setattr(cls, name, wrap(getattr(cls, name)))
        return self

    def __exit__(self, *_exc: object) -> None:
        for cls, name, original in reversed(self._saved):
            if original is None:
                delattr(cls, name)
            else:
                setattr(cls, name, original)
        self._saved.clear()

    def take(self) -> dict[str, float]:
        """Raw sums for everything captured since the last ``take``."""
        envs = {id(fabric.env): fabric.env for fabric in self.fabrics}
        sums: dict[str, float] = {
            "sim.events": sum(env.scheduled_events for env in envs.values()),
            "net.flows": sum(f.stats.flows_started for f in self.fabrics),
            "net.solves_full": sum(f.stats.solves_full for f in self.fabrics),
            "net.solves_restricted": sum(
                f.stats.solves_restricted for f in self.fabrics
            ),
            "net.transfer_calls": self.calls["transfer"],
            "net.bytes": sum(f.stats.bytes_transferred for f in self.fabrics),
            "hardware.train_time_calls": self.calls["train_time"],
            "cluster.plan_calls": self.calls["plan"],
            "ts_requests": 0,
            "ts_conflicts": 0,
            "worker_idle_s": 0.0,
            "worker_fetch_s": 0.0,
            "worker_s": 0.0,
            "faults.lost_compute_s": 0.0,
        }
        for result in self.results:
            stats = result.stats
            sums["ts_requests"] += stats["ts_requests"]
            sums["ts_conflicts"] += stats["ts_conflicts"]
            sums["worker_idle_s"] += sum(stats["idle_seconds_by_worker"])
            sums["worker_fetch_s"] += sum(stats["fetch_seconds_by_worker"])
            sums["worker_s"] += result.total_time * len(
                stats["idle_seconds_by_worker"]
            )
            faults = stats.get("faults")
            if faults is not None:
                sums["faults.lost_compute_s"] += faults["lost_compute_seconds"]
        self.calls.clear()
        self.fabrics.clear()
        self.results.clear()
        return sums


def per_op_counts(sums: dict[str, float], ops: int) -> dict[str, float]:
    """Fold the raw sums of ``ops`` check ops into the reported counts.

    Counts are per op; the three fractions are ratios of the sums, so
    each variant weighs in by its size.
    """

    def ratio(numerator: str, denominator: str) -> float:
        return sums[numerator] / sums[denominator] if sums[denominator] else 0.0

    counts = {
        name: sums.get(name, 0) / ops
        for name in COUNT_NAMES
        if not name.endswith("_frac")
    }
    counts["core.ts_requests"] = sums["ts_requests"] / ops
    counts["core.ts_conflict_frac"] = ratio("ts_conflicts", "ts_requests")
    counts["core.worker_idle_frac"] = ratio("worker_idle_s", "worker_s")
    counts["core.worker_fetch_frac"] = ratio("worker_fetch_s", "worker_s")
    return {name: counts[name] for name in COUNT_NAMES}
