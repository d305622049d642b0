"""Observability: structured tracing for the token lifecycle.

The paper's central claims — elastic straggler absorption, sync/compute
overlap, the two-phase tuner's cost model — are temporal claims; this
package makes them *visible*:

* :mod:`repro.obs.events` / :mod:`repro.obs.tracer` — causally-linked
  structured events for the full token lifecycle (minted -> buffered ->
  assigned -> trained -> reported -> level-synced) plus network-transfer,
  straggler-delay, and TS-request spans.  The default
  :class:`NullTracer` makes instrumentation free when tracing is off.
* :mod:`repro.obs.timeseries` — a sim-time-driven :class:`Sampler`
  (null-object pair, like the tracer) snapshotting gauges — worker
  phase, buffer depth, fabric utilization, membership, staleness — at a
  fixed sim-second interval with zero schedule perturbation.
* :mod:`repro.obs.exporters` — Chrome trace-event JSON (open in
  Perfetto or ``chrome://tracing``), schema validation, and the bridge
  feeding the ASCII timeline from the trace stream.
* :mod:`repro.obs.report` — plain-text run report with critical-path and
  straggler-attribution analysis.

Run totals (TS requests and conflicts, per-worker seconds, sync bytes)
are not here: ``RunResult.stats`` reads them from the counters the
token server, the workers and the runtime keep.

CLI entry points: ``--trace-out`` on ``repro run`` (trace file plus the
run report) and ``python -m repro.obs.validate`` for trace files.
"""

import typing as _t

from repro._lazy import lazy_exports

if _t.TYPE_CHECKING:
    from repro.obs.events import (
        CAT_FAULT,
        CAT_NETWORK,
        CAT_STRAGGLER,
        CAT_SYNC,
        CAT_TOKEN,
        CAT_TS,
        CAT_WORKER,
        EV_ALLREDUCE,
        EV_ASSIGNED,
        EV_BUFFERED,
        EV_DELAY,
        EV_FETCH,
        EV_ITERATION_END,
        EV_LEVEL_SYNCED,
        EV_MINTED,
        EV_REPORTED,
        EV_SYNC_START,
        EV_TOKEN_INVALIDATED,
        EV_TOKEN_RECLAIMED,
        EV_TOKEN_REMINTED,
        EV_TRAINED,
        EV_TRANSFER,
        EV_TS_REQUEST,
        EV_WORKER_FAILED,
        EV_WORKER_JOINED,
        EV_WORKER_LEFT,
        TOKEN_LIFECYCLE,
        TS_TRACK,
        TraceEvent,
    )
    from repro.obs.exporters import (
        chrome_trace,
        complete_events,
        dump_chrome_trace,
        read_chrome_trace,
        timeline_spans,
        validate_chrome_trace,
        verify_causal_chains,
        write_chrome_trace,
    )
    from repro.obs.report import (
        critical_path,
        render_run_report,
        straggler_attribution,
    )
    from repro.obs.timeseries import (
        NULL_SAMPLER,
        PHASE_CODES,
        PHASE_NAMES,
        SERIES,
        NullSampler,
        Sample,
        Sampler,
        series_keys,
        series_points,
    )
    from repro.obs.tracer import NULL_TRACER, NullTracer, Tracer

__all__ = [
    "CAT_FAULT",
    "CAT_NETWORK",
    "CAT_STRAGGLER",
    "CAT_SYNC",
    "CAT_TOKEN",
    "CAT_TS",
    "CAT_WORKER",
    "EV_ALLREDUCE",
    "EV_ASSIGNED",
    "EV_BUFFERED",
    "EV_DELAY",
    "EV_FETCH",
    "EV_ITERATION_END",
    "EV_LEVEL_SYNCED",
    "EV_MINTED",
    "EV_REPORTED",
    "EV_SYNC_START",
    "EV_TOKEN_INVALIDATED",
    "EV_TOKEN_RECLAIMED",
    "EV_TOKEN_REMINTED",
    "EV_TRAINED",
    "EV_TRANSFER",
    "EV_TS_REQUEST",
    "EV_WORKER_FAILED",
    "EV_WORKER_JOINED",
    "EV_WORKER_LEFT",
    "NULL_SAMPLER",
    "NULL_TRACER",
    "NullSampler",
    "NullTracer",
    "PHASE_CODES",
    "PHASE_NAMES",
    "SERIES",
    "Sample",
    "Sampler",
    "TOKEN_LIFECYCLE",
    "TS_TRACK",
    "TraceEvent",
    "Tracer",
    "chrome_trace",
    "complete_events",
    "critical_path",
    "dump_chrome_trace",
    "read_chrome_trace",
    "render_run_report",
    "series_keys",
    "series_points",
    "straggler_attribution",
    "timeline_spans",
    "validate_chrome_trace",
    "verify_causal_chains",
    "write_chrome_trace",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.obs.events": (
            "CAT_FAULT", "CAT_NETWORK", "CAT_STRAGGLER", "CAT_SYNC",
            "CAT_TOKEN", "CAT_TS", "CAT_WORKER", "EV_ALLREDUCE", "EV_ASSIGNED",
            "EV_BUFFERED", "EV_DELAY", "EV_FETCH", "EV_ITERATION_END",
            "EV_LEVEL_SYNCED", "EV_MINTED", "EV_REPORTED", "EV_SYNC_START",
            "EV_TOKEN_INVALIDATED", "EV_TOKEN_RECLAIMED", "EV_TOKEN_REMINTED",
            "EV_TRAINED", "EV_TRANSFER", "EV_TS_REQUEST", "EV_WORKER_FAILED",
            "EV_WORKER_JOINED", "EV_WORKER_LEFT", "TOKEN_LIFECYCLE", "TS_TRACK",
            "TraceEvent",
        ),
        "repro.obs.exporters": (
            "chrome_trace", "complete_events", "dump_chrome_trace",
            "read_chrome_trace", "timeline_spans", "validate_chrome_trace",
            "verify_causal_chains", "write_chrome_trace",
        ),
        "repro.obs.report": (
            "critical_path", "render_run_report", "straggler_attribution",
        ),
        "repro.obs.timeseries": (
            "NULL_SAMPLER", "PHASE_CODES", "PHASE_NAMES", "SERIES",
            "NullSampler", "Sample", "Sampler", "series_keys", "series_points",
        ),
        "repro.obs.tracer": ("NULL_TRACER", "NullTracer", "Tracer"),
    },
)
