#!/usr/bin/env python3
"""Visualize token scheduling: a Gantt view of one Fela iteration.

Traces each run, rebuilds a :class:`~repro.metrics.TimelineRecorder`
from the trace events and renders per-worker activity, with and without a straggler.  The second
chart makes the paper's elasticity claim visible: worker 0 sleeps, and
the helpers' rows grow by exactly its stolen tokens.

Run:
    python examples/token_timeline.py
"""

from repro import FelaConfig, FelaRuntime, get_model, paper_partition
from repro.metrics import TimelineRecorder
from repro.obs import Tracer
from repro.stragglers import RoundRobinStraggler


def run_and_render(title, straggler=None):
    partition = paper_partition(get_model("vgg19"))
    config = FelaConfig(
        partition=partition,
        total_batch=512,
        num_workers=8,
        weights=(1, 2, 8),
        conditional_subset_size=2,
        iterations=1,
    )
    tracer = Tracer()
    result = FelaRuntime(config, straggler=straggler, tracer=tracer).run()
    recorder = TimelineRecorder.from_events(tracer.events)
    print(title)
    print(recorder.render_gantt(width=72))
    print(
        f"iteration time {result.total_time:.2f}s, "
        f"load imbalance (CV of compute time) "
        f"{recorder.load_imbalance():.3f}, "
        f"tokens/worker {list(result.records[0].work_by_worker)}"
    )
    print()


def main() -> None:
    run_and_render("No stragglers:")
    run_and_render(
        "Worker 0 sleeps 4 s at iteration start:",
        straggler=RoundRobinStraggler(4.0),
    )
    print(
        "'#' = token computation, '~' = remote input fetch, '.' = idle.\n"
        "With the straggler, helpers finish their own sub-token-buckets\n"
        "and then drain worker 0's — the reactive mitigation of III-C."
    )


if __name__ == "__main__":
    main()
