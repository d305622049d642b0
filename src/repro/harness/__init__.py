"""Experiment harness: per-figure/table generators and runners."""

import typing as _t

from repro._lazy import lazy_exports

if _t.TYPE_CHECKING:
    from repro.harness.charts import bar_chart, line_chart
    from repro.harness.comparison_matrix import TABLE_II, SolutionRow, render_table_ii
    from repro.harness.experiment import (
        RUNTIME_KINDS,
        ExperimentRunner,
        ExperimentSpec,
        RunRequest,
    )
    from repro.harness.figures import (
        DEFAULT_BATCHES,
        GOOGLENET_DELAYS,
        PROBABILITIES,
        STRAGGLER_BATCH,
        VGG_DELAYS,
        AblationResult,
        ComparisonResult,
        Fig1Result,
        Fig5Result,
        Fig6Result,
        StragglerResult,
        TableIResult,
        fig1,
        fig5,
        fig6,
        fig7_ablation,
        fig8,
        fig9,
        fig10,
        probe_layer,
        table1,
    )
    from repro.harness.report import format_speedup, render_series, render_table
    from repro.harness.registry import (
        REGISTRY,
        Artifact,
        generate_artifact,
        generate_artifacts,
        get_artifact,
        paper_artifacts,
    )
    from repro.harness.validation import (
        predict_dp_iteration,
        predict_pipeline_flush,
        predict_ring_allreduce,
        relative_error,
    )

__all__ = [
    "AblationResult",
    "Artifact",
    "REGISTRY",
    "bar_chart",
    "line_chart",
    "ComparisonResult",
    "DEFAULT_BATCHES",
    "ExperimentRunner",
    "ExperimentSpec",
    "Fig1Result",
    "Fig5Result",
    "Fig6Result",
    "GOOGLENET_DELAYS",
    "PROBABILITIES",
    "RUNTIME_KINDS",
    "RunRequest",
    "STRAGGLER_BATCH",
    "SolutionRow",
    "StragglerResult",
    "TABLE_II",
    "TableIResult",
    "VGG_DELAYS",
    "fig1",
    "fig5",
    "fig6",
    "fig7_ablation",
    "fig8",
    "fig9",
    "fig10",
    "format_speedup",
    "generate_artifact",
    "generate_artifacts",
    "get_artifact",
    "paper_artifacts",
    "predict_dp_iteration",
    "predict_pipeline_flush",
    "predict_ring_allreduce",
    "probe_layer",
    "relative_error",
    "render_series",
    "render_table",
    "render_table_ii",
    "table1",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.harness.charts": ("bar_chart", "line_chart"),
        "repro.harness.comparison_matrix": (
            "TABLE_II", "SolutionRow", "render_table_ii",
        ),
        "repro.harness.experiment": (
            "RUNTIME_KINDS", "ExperimentRunner", "ExperimentSpec", "RunRequest",
        ),
        "repro.harness.figures": (
            "DEFAULT_BATCHES", "GOOGLENET_DELAYS", "PROBABILITIES",
            "STRAGGLER_BATCH", "VGG_DELAYS", "AblationResult",
            "ComparisonResult", "Fig1Result", "Fig5Result", "Fig6Result",
            "StragglerResult", "TableIResult", "fig1", "fig5", "fig6",
            "fig7_ablation", "fig8", "fig9", "fig10", "probe_layer", "table1",
        ),
        "repro.harness.report": (
            "format_speedup", "render_series", "render_table",
        ),
        "repro.harness.registry": (
            "REGISTRY", "Artifact", "generate_artifact", "generate_artifacts",
            "get_artifact", "paper_artifacts",
        ),
        "repro.harness.validation": (
            "predict_dp_iteration", "predict_pipeline_flush",
            "predict_ring_allreduce", "relative_error",
        ),
    },
)
