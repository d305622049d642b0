"""Determinism regression: same seed, byte-identical output.

Fela's elastic-tuning comparisons (Fig. 6-10) are meaningful only if a
seeded experiment reproduces exactly.  This runs the full pipeline —
two-phase configuration tuning, then a straggler-injected training run
with its timeline rebuilt from the trace — twice from scratch, and asserts the
serialized metrics, tuning table, and timeline are byte-identical.
"""

import json

from repro.core import FelaRuntime
from repro.harness import ExperimentRunner, ExperimentSpec
from repro.metrics.timeline import TimelineRecorder
from repro.obs import Tracer
from repro.stragglers import ProbabilityStraggler

SPEC = ExperimentSpec(
    model_name="vgg19", total_batch=256, num_workers=8, iterations=3
)


def _serialize_run() -> str:
    """One complete tuned + straggler-injected experiment, as JSON."""
    runner = ExperimentRunner()  # fresh caches: tuning re-runs too
    tuning = runner.tuning(SPEC)
    config = runner.fela_config(SPEC)
    tracer = Tracer()
    result = FelaRuntime(
        config,
        straggler=ProbabilityStraggler(0.3, 2.0, seed=7),
        tracer=tracer,
    ).run()
    recorder = TimelineRecorder.from_events(tracer.events)
    payload = {
        "tuning": [
            {
                "index": case.index,
                "phase": case.phase,
                "weights": list(case.weights),
                "subset_size": case.subset_size,
                "per_iteration_time": case.per_iteration_time,
            }
            for case in tuning.cases
        ],
        "best": {
            "weights": list(tuning.best_weights),
            "subset_size": tuning.best_subset_size,
        },
        "total_time": result.total_time,
        "throughput": result.average_throughput,
        "records": [
            {
                "iteration": record.iteration,
                "start": record.start,
                "end": record.end,
                "work": list(record.work_by_worker),
            }
            for record in result.records
        ],
        "stats": {
            "ts_requests": result.stats["ts_requests"],
            "ts_conflicts": result.stats["ts_conflicts"],
            "network_bytes": result.stats["network_bytes"],
            "tokens_by_worker": result.stats["tokens_by_worker"],
        },
        "timeline": [
            {
                "worker": span.worker,
                "kind": span.kind,
                "start": span.start,
                "end": span.end,
                "label": span.label,
            }
            for span in recorder.spans()
        ],
        "gantt": recorder.render_gantt(),
    }
    return json.dumps(payload, sort_keys=True)


def test_seeded_experiment_is_byte_identical():
    first = _serialize_run()
    second = _serialize_run()
    assert first == second
