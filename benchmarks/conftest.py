"""Shared benchmark fixtures.

Every benchmark regenerates one table or figure of the paper.  The
rendered rows/series are written to ``benchmarks/output/<name>.txt`` so a
full ``pytest benchmarks/ --benchmark-only`` run leaves an inspectable
record of the reproduced evaluation, and the pytest-benchmark timings
measure the cost of regenerating each artifact on the simulator.

Workload construction goes through one session-scoped
:class:`~repro.harness.ExperimentRunner`, so the expensive two-phase
tunings are computed once per workload and shared across figures (the
paper's one-off warm-up), and a baseline runs through the same
``runner.run`` path as ``repro compare``.
"""

from __future__ import annotations

import pathlib

import pytest

from repro.core import FelaConfig, FelaRuntime
from repro.hardware import Cluster, ClusterSpec
from repro.harness import ExperimentRunner, ExperimentSpec
from repro.metrics import RunResult

OUTPUT_DIR = pathlib.Path(__file__).parent / "output"


@pytest.fixture(scope="session")
def runner() -> ExperimentRunner:
    return ExperimentRunner()


@pytest.fixture(scope="session")
def fela_vs_dp(runner: ExperimentRunner):
    """One sweep point: tuned Fela vs the DP baseline on a cluster spec.

    The shared body of the bandwidth / scalability / network-trend
    extension sweeps.  Pass ``config`` to pin an explicit
    :class:`FelaConfig` instead of the cached two-phase tuning.
    """

    def sweep_point(
        model_name: str,
        total_batch: int,
        num_workers: int = 8,
        cluster_spec: ClusterSpec | None = None,
        iterations: int = 4,
        config: FelaConfig | None = None,
    ) -> tuple[RunResult, RunResult]:
        spec = ExperimentSpec(
            model_name,
            total_batch,
            num_workers,
            iterations=iterations,
            cluster_spec=cluster_spec,
        )
        if config is None:
            config = runner.fela_config(spec)
        fela = FelaRuntime(config, Cluster(spec.resolved_cluster_spec())).run()
        return fela, runner.run("dp", spec)

    return sweep_point


@pytest.fixture(scope="session")
def output_dir() -> pathlib.Path:
    OUTPUT_DIR.mkdir(exist_ok=True)
    return OUTPUT_DIR


@pytest.fixture()
def record_output(output_dir, request):
    """Write a figure's rendered text under the benchmark's name."""

    def write(text: str, name: str | None = None) -> None:
        stem = name or request.node.name.replace("/", "_")
        path = output_dir / f"{stem}.txt"
        path.write_text(text + "\n")

    return write
