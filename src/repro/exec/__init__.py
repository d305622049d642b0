"""Deterministic parallel sweep engine (executor + persistent cache).

The one sanctioned fan-out point of the package: independent,
fully-seeded simulation jobs (:mod:`repro.exec.jobs`) run through a
:class:`SweepExecutor` (:mod:`repro.exec.executor`) over an optional
content-addressed :class:`ResultCache` (:mod:`repro.exec.cache`), with
exact-round-trip JSON codecs (:mod:`repro.exec.codec`) keeping cached
reruns byte-identical to fresh simulations.
"""

import typing as _t

from repro._lazy import lazy_exports

if _t.TYPE_CHECKING:
    from repro.exec.cache import (
        CACHE_DIR_ENV,
        CACHE_SCHEMA,
        ResultCache,
        canonical_key,
        default_cache_dir,
    )
    from repro.exec.codec import (
        decode_run_result,
        decode_tuning_result,
        decode_value,
        encode_run_result,
        encode_tuning_result,
        encode_value,
    )
    from repro.exec.executor import SweepExecutor, resolve_jobs
    from repro.exec.jobs import (
        ArtifactJob,
        JobSpec,
        RunJob,
        TuningCaseJob,
        describe_cluster,
        describe_config,
        describe_partition,
        describe_straggler,
        execute_job,
    )

__all__ = [
    "ArtifactJob",
    "CACHE_DIR_ENV",
    "CACHE_SCHEMA",
    "JobSpec",
    "ResultCache",
    "RunJob",
    "SweepExecutor",
    "TuningCaseJob",
    "canonical_key",
    "decode_run_result",
    "decode_tuning_result",
    "decode_value",
    "default_cache_dir",
    "describe_cluster",
    "describe_config",
    "describe_partition",
    "describe_straggler",
    "encode_run_result",
    "encode_tuning_result",
    "encode_value",
    "execute_job",
    "resolve_jobs",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.exec.cache": (
            "CACHE_DIR_ENV", "CACHE_SCHEMA", "ResultCache", "canonical_key",
            "default_cache_dir",
        ),
        "repro.exec.codec": (
            "decode_run_result", "decode_tuning_result", "decode_value",
            "encode_run_result", "encode_tuning_result", "encode_value",
        ),
        "repro.exec.executor": ("SweepExecutor", "resolve_jobs"),
        "repro.exec.jobs": (
            "ArtifactJob", "JobSpec", "RunJob", "TuningCaseJob",
            "describe_cluster", "describe_config", "describe_partition",
            "describe_straggler", "execute_job",
        ),
    },
)
