"""Picklable job specifications for the sweep executor.

A :class:`JobSpec` is a frozen, spawn-safe description of one
independent simulation: everything the job needs travels inside the
spec (config, cluster spec, seeded straggler), and :meth:`JobSpec.execute`
performs the heavy imports lazily so unpickling in a fresh worker
process stays cheap.  ``execute_job`` is the module-level entry point a
``ProcessPoolExecutor`` can pickle by reference.

Cacheable jobs also describe themselves for the content-addressed
cache: :meth:`JobSpec.cache_key` hashes the full input closure via the
``describe_*`` helpers below, and the ``encode_result`` /
``decode_result`` hooks translate results to and from JSON-safe
payloads.  A job returning ``None`` from ``cache_key`` is simply never
cached.
"""

from __future__ import annotations

import abc
import dataclasses
import typing as _t

from repro.errors import CacheError
from repro.exec.cache import canonical_key
from repro.exec.codec import (
    decode_run_result,
    encode_run_result,
)

if _t.TYPE_CHECKING:  # pragma: no cover - type-only imports
    from repro.core.config import FelaConfig
    from repro.hardware import ClusterSpec
    from repro.metrics import RunResult
    from repro.stragglers import StragglerInjector


# -- input describers (the hashed closure of a simulation) --------------------


def describe_straggler(straggler: _t.Any) -> dict[str, _t.Any]:
    """A straggler injector's identity + public parameters (incl. seed)."""
    if straggler is None:
        return {"type": "NoStraggler", "params": {}}
    params = {
        name: value
        for name, value in sorted(vars(straggler).items())
        if not name.startswith("_")
    }
    return {"type": type(straggler).__name__, "params": params}


def describe_cluster(spec: "ClusterSpec") -> dict[str, _t.Any]:
    """A cluster spec as nested plain data (includes the GPU spec)."""
    return dataclasses.asdict(spec)


def describe_partition(partition: _t.Any) -> dict[str, _t.Any]:
    """A partition plus the full shape/flop profile of its model."""
    model = partition.model
    return {
        "model": {
            "name": model.name,
            "input_shape": tuple(model.input_shape),
            "layers": [
                {
                    "index": profile.index,
                    "layer": type(profile.layer).__name__,
                    "shape_signature": profile.shape_signature,
                    "in_shape": tuple(profile.in_shape),
                    "out_shape": tuple(profile.out_shape),
                    "forward_flops": profile.forward_flops,
                    "train_flops": profile.train_flops,
                    "param_count": profile.param_count,
                    "activation_floats": profile.activation_floats,
                }
                for profile in model
            ],
        },
        "submodels": [
            {
                "index": submodel.index,
                "first_layer": submodel.first_layer_index,
                "last_layer": submodel.last_layer_index,
                "threshold_batch": submodel.threshold_batch,
            }
            for submodel in partition.submodels
        ],
    }


def describe_config(config: "FelaConfig") -> dict[str, _t.Any]:
    """Every ``FelaConfig`` field, with the partition fully expanded.

    Iterates ``dataclasses.fields`` so a future config field cannot be
    forgotten here — new knobs automatically change cache keys.
    """
    described: dict[str, _t.Any] = {}
    for field in dataclasses.fields(config):
        value = getattr(config, field.name)
        if field.name == "partition":
            value = describe_partition(value)
        described[field.name] = value
    return described


# -- job specs ----------------------------------------------------------------


class JobSpec(abc.ABC):
    """One independent, fully self-contained unit of sweep work."""

    def cache_key(self) -> str | None:
        """Content hash of the job's inputs; ``None`` = never cached."""
        return None

    def encode_result(self, value: _t.Any) -> _t.Any:
        return value

    def decode_result(self, payload: _t.Any) -> _t.Any:
        return payload

    @abc.abstractmethod
    def execute(self) -> _t.Any:
        """Run the job; must be deterministic and import lazily."""


def execute_job(job: JobSpec) -> _t.Any:
    """Module-level trampoline so pool workers can pickle the callable."""
    return job.execute()


@dataclasses.dataclass(frozen=True)
class TuningCaseJob(JobSpec):
    """Profile one configuration case: mean per-iteration time.

    Mirrors :meth:`repro.tuning.ConfigurationTuner.measure` exactly —
    infeasible (out-of-GPU-memory) cases profile as ``inf`` instead of
    raising, because the paper's testbed would simply OOM on them.
    """

    config: "FelaConfig"
    cluster_spec: "ClusterSpec"
    straggler: "StragglerInjector | None" = None

    def cache_key(self) -> str | None:
        try:
            return canonical_key(
                "tuning-case",
                {
                    "config": describe_config(self.config),
                    "cluster": describe_cluster(self.cluster_spec),
                    "straggler": describe_straggler(self.straggler),
                },
            )
        except CacheError:
            return None

    def decode_result(self, payload: _t.Any) -> float:
        if not isinstance(payload, float):
            raise CacheError(
                f"cached tuning case must be a float: {payload!r}"
            )
        return payload

    def execute(self) -> float:
        from repro.core import FelaRuntime
        from repro.errors import CapacityError
        from repro.hardware import Cluster

        cluster = Cluster(self.cluster_spec)
        try:
            runtime = FelaRuntime(
                self.config, cluster, straggler=self.straggler
            )
        except CapacityError:
            return float("inf")
        return runtime.run().mean_iteration_time


@dataclasses.dataclass(frozen=True)
class RunJob(JobSpec):
    """One full training run of any runtime kind.

    For ``fela`` the parent resolves the tuned :class:`FelaConfig`
    *before* building the job, so workers never re-tune; baselines
    carry their constructor ``overrides`` as a sorted item tuple.
    """

    kind: str
    model_name: str
    total_batch: int
    num_workers: int
    iterations: int
    cluster_spec: "ClusterSpec"
    straggler: "StragglerInjector"
    config: "FelaConfig | None" = None
    overrides: tuple[tuple[str, _t.Any], ...] = ()

    def cache_key(self) -> str | None:
        try:
            return canonical_key(
                "run",
                {
                    "kind": self.kind,
                    "model": self.model_name,
                    "total_batch": self.total_batch,
                    "num_workers": self.num_workers,
                    "iterations": self.iterations,
                    "cluster": describe_cluster(self.cluster_spec),
                    "straggler": describe_straggler(self.straggler),
                    "config": (
                        describe_config(self.config)
                        if self.config is not None
                        else None
                    ),
                    "overrides": [
                        [name, value] for name, value in self.overrides
                    ],
                },
            )
        except CacheError:
            return None

    def encode_result(self, value: "RunResult") -> _t.Any:
        return encode_run_result(value)

    def decode_result(self, payload: _t.Any) -> "RunResult":
        return decode_run_result(payload)

    def execute(self) -> "RunResult":
        from repro.baselines import (
            DataParallel,
            HybridParallel,
            ModelParallel,
            ProactiveElastic,
        )
        from repro.core import FelaRuntime
        from repro.errors import ConfigurationError
        from repro.hardware import Cluster
        from repro.models import get_model

        cluster = Cluster(self.cluster_spec)
        if self.kind == "fela":
            if self.config is None:
                raise ConfigurationError(
                    "fela RunJob needs a resolved FelaConfig"
                )
            return FelaRuntime(
                self.config, cluster, straggler=self.straggler
            ).run()
        baseline_cls = {
            "dp": DataParallel,
            "mp": ModelParallel,
            "hp": HybridParallel,
            "proactive": ProactiveElastic,
        }.get(self.kind)
        if baseline_cls is None:
            raise ConfigurationError(
                f"unknown runtime kind {self.kind!r}"
            )
        return baseline_cls(
            get_model(self.model_name),
            self.total_batch,
            self.num_workers,
            iterations=self.iterations,
            cluster=cluster,
            straggler=self.straggler,
            **dict(self.overrides),
        ).run()


@dataclasses.dataclass(frozen=True)
class ArtifactJob(JobSpec):
    """Regenerate one registry artifact in a worker process.

    Not cached itself — the underlying runs and tunings are, through
    the worker-local runner pointed at the shared ``cache_dir``.
    """

    artifact_id: str
    iterations: int
    cache_dir: str | None = None

    def execute(self) -> str:
        from repro.exec.cache import ResultCache
        from repro.harness.experiment import ExperimentRunner
        from repro.harness.registry import generate_artifact

        runner = ExperimentRunner(cache=ResultCache(self.cache_dir))
        return generate_artifact(
            self.artifact_id, runner=runner, iterations=self.iterations
        )
