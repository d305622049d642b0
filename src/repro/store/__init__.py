"""The run ledger: one append-only store for every experiment artifact.

Every ``repro run/trace/compare/tune/figures/cluster`` invocation can
land its config, result stats, fault accounting, sampled time-series,
and trace events in one schema-versioned SQLite :class:`RunLedger`
(stdlib ``sqlite3``).  ``SweepExecutor`` streams per-job heartbeat rows
into the same ledger, so long sweeps are observable while still
running, and ``repro dashboard`` renders the whole thing — utilization
heatmaps, throughput/buffer curves with fault markers, sweep progress,
cluster-run schedules — from the ledger alone.  Benchmark timings are
not ledger rows: ``repro bench --out`` appends them to the
``BENCH_core.json`` regression store (:mod:`repro.perf.store`).

CLI entry points: ``--ledger`` on ``run``/``trace``/``cluster`` and the
sweep commands (``compare``/``tune``/``figures``), ``repro dashboard``,
and ``python -m repro.store.validate`` for schema validation.
"""

from repro.store.dashboard import (
    load_dashboard,
    render_html_dashboard,
    render_text_dashboard,
)
from repro.store.ledger import (
    LEDGER_SCHEMA_VERSION,
    RunLedger,
    run_row_from_result,
)

__all__ = [
    "LEDGER_SCHEMA_VERSION",
    "RunLedger",
    "load_dashboard",
    "render_html_dashboard",
    "render_text_dashboard",
    "run_row_from_result",
]
