"""Reproduction of *Fela: Incorporating Flexible Parallelism and Elastic
Tuning to Accelerate Large-Scale DML* (Geng, Li, Wang — ICDE 2020).

The paper's system is a distributed-training runtime for GPU clusters;
this package reproduces it end-to-end on a deterministic simulated
substrate:

* :mod:`repro.sim` — discrete-event simulation kernel;
* :mod:`repro.net` — max-min fair flow-level network fabric;
* :mod:`repro.hardware` — GPU saturation/memory model, nodes, clusters;
* :mod:`repro.models` — CNN layer algebra and the model zoo;
* :mod:`repro.profiling` / :mod:`repro.partition` — threshold-batch-size
  profiling and the bin-partitioned method;
* :mod:`repro.core` — Fela itself: tokens, the Token Server, the ADS/HF/
  CTD scheduling policies, workers, and the BSP/SSP/ASP runtime;
* :mod:`repro.tuning` — the two-phase runtime configuration tuner;
* :mod:`repro.baselines` — the DP / MP / HP baselines;
* :mod:`repro.stragglers` — straggler injection;
* :mod:`repro.metrics` / :mod:`repro.harness` — the paper's metrics and a
  generator per published table and figure;
* :mod:`repro.analysis` — the whole-program determinism analyzer
  (``repro analyze``) and the opt-in runtime invariant checker;
* :mod:`repro.obs` — structured tracing (Chrome trace / Perfetto
  export) and the plain-text run report (see
  ``docs/observability.md``).

Quickstart::

    from repro import ExperimentRunner, ExperimentSpec

    runner = ExperimentRunner()
    spec = ExperimentSpec(model_name="vgg19", total_batch=256,
                          iterations=10)
    results = runner.run_all(spec)
    for kind, result in results.items():
        print(kind, result.average_throughput)
"""

import typing as _t

from repro._lazy import lazy_exports

if _t.TYPE_CHECKING:
    from repro.analysis import InvariantChecker
    from repro.baselines import DataParallel, HybridParallel, ModelParallel
    from repro.core import (
        FelaConfig,
        FelaRuntime,
        PipelinedFelaRuntime,
        SyncMode,
    )
    from repro.errors import (
        AnalysisError,
        BenchmarkError,
        CapacityError,
        ConfigurationError,
        InvariantViolation,
        ObservabilityError,
        PartitionError,
        ReproError,
        SchedulingError,
        SimulationError,
        TuningError,
    )
    from repro.hardware import Cluster, ClusterSpec, GpuSpec
    from repro.harness import ExperimentRunner, ExperimentSpec
    from repro.metrics import RunResult, average_throughput, per_iteration_delay
    from repro.models import ModelGraph, available_models, get_model
    from repro.obs import NullTracer, TraceEvent, Tracer
    from repro.partition import Partition, SubModel, bin_partition, paper_partition
    from repro.profiling import ThroughputProfiler
    from repro.stragglers import (
        NoStraggler,
        ProbabilityStraggler,
        RoundRobinStraggler,
        TransientStraggler,
    )
    from repro.tuning import ConfigurationTuner

__version__ = "1.0.0"

__all__ = [
    "AnalysisError",
    "BenchmarkError",
    "CapacityError",
    "Cluster",
    "ClusterSpec",
    "ConfigurationError",
    "ConfigurationTuner",
    "DataParallel",
    "ExperimentRunner",
    "ExperimentSpec",
    "FelaConfig",
    "FelaRuntime",
    "GpuSpec",
    "HybridParallel",
    "InvariantChecker",
    "InvariantViolation",
    "ModelGraph",
    "ModelParallel",
    "NoStraggler",
    "NullTracer",
    "ObservabilityError",
    "Partition",
    "PipelinedFelaRuntime",
    "PartitionError",
    "ProbabilityStraggler",
    "ReproError",
    "RoundRobinStraggler",
    "RunResult",
    "SchedulingError",
    "SimulationError",
    "SubModel",
    "SyncMode",
    "ThroughputProfiler",
    "TraceEvent",
    "Tracer",
    "TransientStraggler",
    "TuningError",
    "available_models",
    "average_throughput",
    "bin_partition",
    "get_model",
    "paper_partition",
    "per_iteration_delay",
    "__version__",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.analysis": ("InvariantChecker",),
        "repro.baselines": ("DataParallel", "HybridParallel", "ModelParallel"),
        "repro.core": (
            "FelaConfig", "FelaRuntime", "PipelinedFelaRuntime", "SyncMode",
        ),
        "repro.errors": (
            "AnalysisError", "BenchmarkError", "CapacityError",
            "ConfigurationError", "InvariantViolation", "ObservabilityError",
            "PartitionError", "ReproError", "SchedulingError",
            "SimulationError", "TuningError",
        ),
        "repro.hardware": ("Cluster", "ClusterSpec", "GpuSpec"),
        "repro.harness": ("ExperimentRunner", "ExperimentSpec"),
        "repro.metrics": (
            "RunResult", "average_throughput", "per_iteration_delay",
        ),
        "repro.models": ("ModelGraph", "available_models", "get_model"),
        "repro.obs": ("NullTracer", "TraceEvent", "Tracer"),
        "repro.partition": (
            "Partition", "SubModel", "bin_partition", "paper_partition",
        ),
        "repro.profiling": ("ThroughputProfiler",),
        "repro.stragglers": (
            "NoStraggler", "ProbabilityStraggler", "RoundRobinStraggler",
            "TransientStraggler",
        ),
        "repro.tuning": ("ConfigurationTuner",),
    },
)
