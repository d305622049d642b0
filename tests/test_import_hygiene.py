"""Import hygiene: a simulation imports only the modules it executes.

The package ``__init__``s of ``repro``, ``repro.analysis``,
``repro.exec``, ``repro.faults``, ``repro.harness``, ``repro.metrics``
and ``repro.obs`` re-export lazily (:mod:`repro._lazy`), and the CLI
imports the simulator inside the handlers that run it.  Each check that
depends on what is *not* imported runs in a fresh interpreter.
"""

from __future__ import annotations

import ast
import importlib
import json
import os
import pathlib
import subprocess
import sys
import textwrap

import pytest

import repro

SOURCE_ROOT = pathlib.Path(repro.__file__).resolve().parents[1]

#: The public names of each lazy package, as its eager ``__init__``
#: exported them.  Lazy resolution must keep every one importable.
PUBLIC_NAMES = {
    "repro": """
        AnalysisError BenchmarkError CapacityError Cluster ClusterSpec
        ConfigurationError ConfigurationTuner DataParallel ExperimentRunner
        ExperimentSpec FelaConfig FelaRuntime GpuSpec HybridParallel
        InvariantChecker InvariantViolation ModelGraph ModelParallel
        NoStraggler NullTracer ObservabilityError Partition
        PartitionError PipelinedFelaRuntime ProbabilityStraggler ReproError
        RoundRobinStraggler RunResult SchedulingError SimulationError SubModel
        SyncMode ThroughputProfiler TraceEvent Tracer TransientStraggler
        TuningError __version__ available_models average_throughput
        bin_partition get_model paper_partition per_iteration_delay
    """,
    "repro.analysis": """
        Finding InvariantChecker RULES Report analyze_paths analyze_sources
    """,
    "repro.exec": """
        ArtifactJob CACHE_DIR_ENV CACHE_SCHEMA JobSpec ResultCache RunJob
        SweepExecutor TuningCaseJob canonical_key decode_run_result
        decode_tuning_result decode_value default_cache_dir describe_cluster
        describe_config describe_partition describe_straggler encode_run_result
        encode_tuning_result encode_value execute_job resolve_jobs
    """,
    "repro.faults": """
        ACTIVE CompositeFaultInjector DRAINING FAILED FailureRecord
        FaultController FaultEvent FaultInjector FaultScript FaultSignal JOINING
        KIND_CRASH KIND_JOIN KIND_LEAVE LEFT Membership NoFaults
        ProbabilisticCrashes ReviveWork WorkerCrash parse_faults
    """,
    "repro.harness": """
        AblationResult Artifact ComparisonResult DEFAULT_BATCHES
        ExperimentRunner ExperimentSpec Fig1Result Fig5Result Fig6Result
        GOOGLENET_DELAYS PROBABILITIES REGISTRY RUNTIME_KINDS RunRequest
        STRAGGLER_BATCH SolutionRow StragglerResult TABLE_II TableIResult
        VGG_DELAYS bar_chart fig1 fig10 fig5 fig6 fig7_ablation fig8 fig9
        format_speedup generate_artifact generate_artifacts get_artifact
        line_chart paper_artifacts predict_dp_iteration predict_pipeline_flush
        predict_ring_allreduce probe_layer relative_error render_series
        render_table render_table_ii table1
    """,
    "repro.metrics": """
        IterationRecord KIND_COMPUTE KIND_FETCH RunResult Span TimelineRecorder
        average_throughput per_iteration_delay
    """,
    "repro.obs": """
        CAT_FAULT CAT_NETWORK CAT_STRAGGLER CAT_SYNC CAT_TOKEN CAT_TS CAT_WORKER
        EV_ALLREDUCE EV_ASSIGNED EV_BUFFERED EV_DELAY EV_FETCH
        EV_ITERATION_END EV_LEVEL_SYNCED EV_MINTED EV_REPORTED EV_SYNC_START
        EV_TOKEN_INVALIDATED EV_TOKEN_RECLAIMED EV_TOKEN_REMINTED EV_TRAINED
        EV_TRANSFER EV_TS_REQUEST EV_WORKER_FAILED EV_WORKER_JOINED
        EV_WORKER_LEFT NULL_SAMPLER NULL_TRACER NullSampler NullTracer
        PHASE_CODES PHASE_NAMES SERIES Sample Sampler TOKEN_LIFECYCLE TS_TRACK
        TraceEvent Tracer chrome_trace complete_events critical_path
        dump_chrome_trace read_chrome_trace render_run_report series_keys
        series_points straggler_attribution timeline_spans
        validate_chrome_trace verify_causal_chains write_chrome_trace
    """,
}

#: Modules a simulation never executes: the determinism analyzer, the
#: figure registry, trace export, the run report, the ledger and the
#: CLI.  (``ast`` itself is not listed: the standard library's
#: ``dataclasses`` imports ``inspect``, which imports ``ast``.)
NOT_IN_A_SIMULATION = (
    "repro.analysis.engine",
    "repro.analysis.facts",
    "repro.harness.figures",
    "repro.harness.registry",
    "repro.obs.exporters",
    "repro.obs.report",
    "repro.store",
    "repro.cli",
    "sqlite3",
)

TINY_RUN = """
import json, sys
import repro
from repro import (
    Cluster, ClusterSpec, FelaConfig, FelaRuntime, get_model,
    paper_partition,
)
config = FelaConfig(
    partition=paper_partition(get_model("vgg19")), total_batch=128,
    num_workers=8, weights=(1, 2, 8), conditional_subset_size=2,
    iterations=2,
)
result = FelaRuntime(config, Cluster(ClusterSpec(num_nodes=8))).run()
assert result.total_time > 0
print(json.dumps(sorted(sys.modules)))
"""


def run_fresh(code: str, *args: str) -> str:
    """Run ``code`` in a fresh interpreter importing this ``repro``."""
    completed = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code), *args],
        capture_output=True,
        text=True,
        check=False,
        env={**os.environ, "PYTHONPATH": str(SOURCE_ROOT)},
        timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
    return completed.stdout


def defining_modules(package: str) -> dict[str, str]:
    """name -> module, from the package's ``if TYPE_CHECKING:`` block."""
    module = importlib.import_module(package)
    tree = ast.parse(pathlib.Path(module.__file__).read_text("utf-8"))
    (block,) = [node for node in tree.body if isinstance(node, ast.If)]
    return {
        alias.name: node.module
        for node in block.body
        if isinstance(node, ast.ImportFrom) and node.module
        for alias in node.names
    }


class TestFreshProcess:
    def test_simulation_skips_tooling_modules(self):
        loaded = set(json.loads(run_fresh(TINY_RUN)))
        assert "repro.core.runtime" in loaded
        assert sorted(loaded.intersection(NOT_IN_A_SIMULATION)) == []

    def test_experiment_runner_builds_the_sweep_engine_on_first_use(self):
        loaded = json.loads(run_fresh(
            "import json, sys\n"
            "from repro import ExperimentRunner\n"
            "runner = ExperimentRunner()\n"
            "runner.partition('vgg19')\n"
            "before = sorted(sys.modules)\n"
            "runner.executor\n"
            "print(json.dumps([before, sorted(sys.modules)]))\n"
        ))
        before, after = (
            [name for name in names if name.split(".")[:2] == ["repro", "exec"]]
            for names in loaded
        )
        assert before == []
        assert "repro.exec.executor" in after

    def test_cli_import_skips_the_simulator(self):
        loaded = json.loads(run_fresh(
            "import json, sys\n"
            "import repro.cli\n"
            "print(json.dumps(sorted(sys.modules)))\n"
        ))
        assert [
            name for name in loaded
            if name.split(".")[:2] in (["repro", "core"], ["repro", "net"])
        ] == []

    def test_subpackages_resolve_as_attributes(self):
        out = run_fresh(
            "import repro\n"
            "print(repro.sim.Environment.__module__,"
            " repro.cluster.ClusterSimulator.__name__)\n"
        )
        assert out.split() == ["repro.sim.core", "ClusterSimulator"]

    def test_every_public_name_resolves_to_its_definition(self):
        table = {
            package: defining_modules(package) for package in PUBLIC_NAMES
        }
        out = run_fresh(
            """
            import importlib, json, sys
            wrong = []
            for package, names in json.loads(sys.argv[1]).items():
                module = importlib.import_module(package)
                for name, source in sorted(names.items()):
                    want = getattr(importlib.import_module(source), name)
                    if getattr(module, name) is not want:
                        wrong.append(f"{package}.{name}")
                    elif name not in vars(module):
                        wrong.append(f"{package}.{name} (not cached)")
            print(json.dumps(wrong))
            """,
            json.dumps(table),
        )
        assert json.loads(out) == []


@pytest.mark.parametrize("package", sorted(PUBLIC_NAMES))
class TestLazyPackage:
    def test_all_is_unchanged(self, package):
        module = importlib.import_module(package)
        assert sorted(module.__all__) == sorted(PUBLIC_NAMES[package].split())

    def test_type_checking_block_covers_all(self, package):
        module = importlib.import_module(package)
        exported = set(module.__all__) - {"__version__"}
        assert set(defining_modules(package)) == exported

    def test_dir_lists_every_public_name(self, package):
        module = importlib.import_module(package)
        assert set(module.__all__) <= set(dir(module))

    def test_star_import(self, package):
        namespace: dict[str, object] = {}
        exec(f"from {package} import *", namespace)
        module = importlib.import_module(package)
        for name in module.__all__:
            assert namespace[name] is getattr(module, name)

    def test_unknown_name_raises_attribute_error(self, package):
        module = importlib.import_module(package)
        with pytest.raises(AttributeError, match="no_such_name"):
            getattr(module, "no_such_name")
        assert not hasattr(module, "no_such_name")
