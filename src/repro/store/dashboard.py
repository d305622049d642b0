"""Dashboards rendered from the run ledger alone.

``load_dashboard`` pulls everything out of a :class:`RunLedger` into a
plain-dict model; ``render_text_dashboard`` and
``render_html_dashboard`` turn that model into, respectively, an ASCII
report and a single self-contained HTML file (inline CSS + inline SVG —
no scripts, no external assets, safe to attach as a CI artifact).

Per recorded run (when sampled): a worker × sim-time utilization
heatmap from the ``worker.phase`` series, a throughput curve (tokens
completed per tick), and per-level buffer-depth curves — all annotated
with fault/join markers taken from the run's ``fault``-category trace
events.  Plus: sweep progress and cache-hit tables from the heartbeat
rows, and — per recorded cluster run — a job Gantt
(queued/running/resizing), the pool-utilization curve, and a JCT CDF
table from the ``cluster_runs``/``cluster_jobs`` tables.
"""

from __future__ import annotations

import html as _html
import typing as _t

from repro.harness.report import render_table
from repro.obs.timeseries import (
    PHASE_CODES,
    PHASE_NAMES,
    SER_BUFFER_DEPTH,
    SER_TOKENS_DONE,
    SER_WORKER_PHASE,
)

if _t.TYPE_CHECKING:  # pragma: no cover - type-only imports
    from repro.store.ledger import RunLedger

#: Heatmap/legend colors per phase name (idle grey, compute green,
#: fetch blue, delay orange, dead red).
PHASE_COLORS: dict[str, str] = {
    "idle": "#e8e8e8",
    "compute": "#4caf50",
    "fetch": "#2196f3",
    "delay": "#ff9800",
    "dead": "#e53935",
}

#: One-character heatmap glyphs per phase for the text dashboard.
PHASE_GLYPHS: dict[str, str] = {
    "idle": ".",
    "compute": "#",
    "fetch": "f",
    "delay": "d",
    "dead": "X",
}

_SPARK_BLOCKS = "▁▂▃▄▅▆▇█"

#: Event names drawn as markers on the curves (all CAT_FAULT).
_MARKER_GLYPHS = {
    "worker.failed": "x",
    "worker.joined": "+",
    "worker.left": "-",
}


def sparkline(values: _t.Sequence[float]) -> str:
    """Unicode block sparkline; flat series render as a mid-level bar."""
    if not values:
        return ""
    low, high = min(values), max(values)
    if high <= low:
        return _SPARK_BLOCKS[3] * len(values)
    scale = (len(_SPARK_BLOCKS) - 1) / (high - low)
    return "".join(
        _SPARK_BLOCKS[int((value - low) * scale)] for value in values
    )


# -- the data model ------------------------------------------------------------


def load_dashboard(ledger: "RunLedger") -> dict[str, _t.Any]:
    """Everything the renderers need, as one plain-dict model."""
    runs = []
    for row in ledger.runs():
        run_id = row["run_id"]
        samples = ledger.samples(run_id)
        events = ledger.events(run_id)
        runs.append({
            "run": row,
            "samples": samples,
            "markers": [
                event for event in events
                if event["category"] == "fault"
                and event["name"] in _MARKER_GLYPHS
            ],
        })
    sweeps = []
    for sweep in ledger.sweeps():
        jobs = ledger.sweep_jobs(sweep["sweep_id"])
        finished = [
            job for job in jobs if job["status"] in ("done", "cached")
        ]
        sweeps.append({
            "sweep": sweep,
            "jobs": jobs,
            "completed": len(finished),
            "cache_hits": sum(
                1 for job in finished if job["cache_hit"]
            ),
            "elapsed_wall": sum(
                job["elapsed_wall"] for job in finished
            ),
        })
    cluster = [
        {
            "run": row,
            "jobs": ledger.cluster_jobs(row["cluster_run_id"]),
        }
        for row in ledger.cluster_runs()
    ]
    return {
        "runs": runs,
        "sweeps": sweeps,
        "cluster": cluster,
    }


def _phase_grid(
    samples: _t.Sequence[dict],
) -> tuple[list[str], list[float], dict[tuple[str, float], int]]:
    """(worker keys, tick times, (worker, tick) -> phase code)."""
    workers: list[str] = []
    ticks: list[float] = []
    grid: dict[tuple[str, float], int] = {}
    for sample in samples:
        if sample["series"] != SER_WORKER_PHASE:
            continue
        if sample["key"] not in workers:
            workers.append(sample["key"])
        if sample["time"] not in ticks:
            ticks.append(sample["time"])
        grid[(sample["key"], sample["time"])] = int(sample["value"])
    return workers, sorted(ticks), grid


def _series(
    samples: _t.Sequence[dict], series: str, key: str = ""
) -> list[tuple[float, float]]:
    return [
        (sample["time"], sample["value"])
        for sample in samples
        if sample["series"] == series and sample["key"] == key
    ]


def _throughput(samples: _t.Sequence[dict]) -> list[tuple[float, float]]:
    """Tokens completed per tick (differenced cumulative counter)."""
    points = _series(samples, SER_TOKENS_DONE)
    return [
        (now, value - previous)
        for (_, previous), (now, value) in zip(points, points[1:])
    ]


def _levels(samples: _t.Sequence[dict]) -> list[str]:
    seen: dict[str, None] = {}
    for sample in samples:
        if sample["series"] == SER_BUFFER_DEPTH:
            seen.setdefault(sample["key"])
    return list(seen)


# -- text renderer -------------------------------------------------------------

#: Heatmap width budget: downsample ticks beyond this many columns.
_TEXT_COLUMNS = 72


def render_text_dashboard(data: dict[str, _t.Any]) -> str:
    sections = []
    for entry in data["runs"]:
        sections.append(_text_run_section(entry))
    if data["sweeps"]:
        sections.append(_text_sweep_section(data["sweeps"]))
    for entry in data.get("cluster", []):
        sections.append(_text_cluster_section(entry))
    if not sections:
        return "(ledger holds no runs, sweeps, or cluster records)"
    return "\n\n".join(sections)


def _text_run_section(entry: dict[str, _t.Any]) -> str:
    run = entry["run"]
    lines = [
        f"== run {run['run_id']}: {run['runtime']} {run['model']} "
        f"batch {run['total_batch']} x{run['iterations']} "
        f"(total_time {run['total_time']:.3f}s)"
    ]
    faults = run["stats"].get("faults")
    if faults:
        lines.append(
            f"   faults: {len(faults['failures'])} failed, "
            f"{len(faults['joined'])} joined, "
            f"{len(faults['left'])} left; lost compute "
            f"{faults['lost_compute_seconds']:.3f}s"
        )
    samples = entry["samples"]
    if not samples:
        lines.append("   (run was not sampled)")
        return "\n".join(lines)
    workers, ticks, grid = _phase_grid(samples)
    shown = ticks
    if len(ticks) > _TEXT_COLUMNS:
        step = -(-len(ticks) // _TEXT_COLUMNS)  # ceil division
        shown = ticks[::step]
    idle = PHASE_CODES["idle"]
    lines.append("   utilization (worker x sim-time):")
    for worker in workers:
        cells = "".join(
            PHASE_GLYPHS[PHASE_NAMES[grid.get((worker, tick), idle)]]
            for tick in shown
        )
        lines.append(f"     w{worker:>3} {cells}")
    legend = "  ".join(
        f"{PHASE_GLYPHS[name]}={name}" for name in sorted(PHASE_GLYPHS)
    )
    lines.append(f"     t={shown[0]:g}..{shown[-1]:g}s  {legend}")
    throughput = _throughput(samples)
    if throughput:
        lines.append(
            "   throughput (tokens/tick): "
            + sparkline([value for _, value in throughput])
        )
    for level in _levels(samples):
        depth = _series(samples, SER_BUFFER_DEPTH, key=level)
        lines.append(
            f"   buffer depth L{level}:       "
            + sparkline([value for _, value in depth])
        )
    for marker in entry["markers"]:
        glyph = _MARKER_GLYPHS[marker["name"]]
        lines.append(
            f"   [{glyph}] {marker['name']} at t={marker['start']:.3f}s "
            f"{marker['args']}"
        )
    return "\n".join(lines)


def _text_sweep_section(sweeps: _t.Sequence[dict]) -> str:
    rows = []
    for entry in sweeps:
        sweep = entry["sweep"]
        total = sweep["total_jobs"]
        rows.append([
            sweep["sweep_id"],
            sweep["label"],
            f"{entry['completed']}/{total}",
            entry["cache_hits"],
            f"{entry['elapsed_wall']:.2f}",
        ])
    return render_table(
        ["Sweep", "Label", "Progress", "Cache hits", "Busy wall (s)"],
        rows,
        title="== sweeps",
    )


# -- cluster helpers -----------------------------------------------------------

#: Gantt glyphs for allocations 0..35; counts beyond 35 clamp to "z".
_WORKER_GLYPHS = "0123456789abcdefghijklmnopqrstuvwxyz"

#: JCT CDF percentiles shown in both backends.
_CDF_POINTS = (0.10, 0.25, 0.50, 0.75, 0.90, 0.99)


def _worker_glyph(count: int) -> str:
    return _WORKER_GLYPHS[min(max(count, 0), len(_WORKER_GLYPHS) - 1)]


def _job_segments(job: dict) -> list[tuple[float, float, int]]:
    """``(start, end, workers)`` allocation spans of one cluster job.

    Reconstructed from ``initial_workers`` plus the recorded
    ``(time, delta, held_after)`` resize triples.
    """
    segments: list[tuple[float, float, int]] = []
    at = job["start_time"]
    workers = job["initial_workers"]
    for when, _delta, held_after in job["resizes"]:
        if when > at:
            segments.append((at, when, workers))
            at = when
        workers = held_after
    if job["finish_time"] > at:
        segments.append((at, job["finish_time"], workers))
    return segments


def _workers_at(segments: _t.Sequence[tuple[float, float, int]],
                time: float) -> int:
    for start, end, workers in segments:
        if start <= time < end:
            return workers
    return segments[-1][2] if segments else 0


def _nearest_rank(sorted_values: _t.Sequence[float], q: float) -> float:
    """Nearest-rank percentile of an ascending-sorted sequence."""
    if not sorted_values:
        return 0.0
    rank = max(1, -(-int(q * len(sorted_values) * 100) // 100))
    return sorted_values[min(len(sorted_values) - 1, rank - 1)]


def _jct_cdf_rows(jobs: _t.Sequence[dict]) -> list[list[str]]:
    jcts = sorted(job["jct"] for job in jobs)
    rows = [
        [f"p{int(q * 100)}", f"{_nearest_rank(jcts, q):.3f}"]
        for q in _CDF_POINTS
    ]
    if jcts:
        rows.append(["max", f"{jcts[-1]:.3f}"])
    return rows


def _pool_step_points(
    timeline: _t.Sequence[_t.Sequence[float]], makespan: float
) -> list[tuple[float, float]]:
    """Breakpoints -> step-function polyline points for plotting."""
    points: list[tuple[float, float]] = []
    for time, used in timeline:
        if points:
            points.append((time, points[-1][1]))
        points.append((time, used))
    if points and makespan > points[-1][0]:
        points.append((makespan, points[-1][1]))
    return points


def _text_cluster_section(entry: dict[str, _t.Any]) -> str:
    run = entry["run"]
    jobs = entry["jobs"]
    label = f" [{run['label']}]" if run["label"] else ""
    trace = f" on {run['trace']}" if run["trace"] else ""
    lines = [
        f"== cluster run {run['cluster_run_id']}{label}: "
        f"{run['scheduler']}{trace}, pool {run['pool_gpus']} GPUs, "
        f"{run['num_jobs']} jobs",
        f"   makespan {run['makespan']:.3f}s  "
        f"mean JCT {run['mean_jct']:.3f}s  "
        f"mean queue {run['mean_queue_delay']:.3f}s  "
        f"util {run['mean_utilization']:.2f}  "
        f"resizes {run['total_resizes']}  "
        f"lost {run['lost_compute_seconds']:.3f}s",
    ]
    makespan = run["makespan"]
    if jobs and makespan > 0:
        width = min(_TEXT_COLUMNS - 8, max(8, len(jobs) * 4))
        bucket = makespan / width
        lines.append(
            "   job schedule (q=queued, digit=granted workers):"
        )
        for job in jobs:
            segments = _job_segments(job)
            cells = []
            for column in range(width):
                time = (column + 0.5) * bucket
                if time < job["submit_time"]:
                    cells.append(" ")
                elif time < job["start_time"]:
                    cells.append("q")
                elif time < job["finish_time"]:
                    cells.append(_worker_glyph(
                        _workers_at(segments, time)
                    ))
                else:
                    cells.append(".")
            lines.append(
                f"     j{job['job_id']:>3} {''.join(cells)} "
                f"{job['model']}"
            )
        lines.append(f"     t=0..{makespan:g}s")
    timeline = run["pool_timeline"]
    if timeline:
        lines.append(
            "   pool GPUs in use: "
            + sparkline([used for _, used in timeline])
        )
    cdf = _jct_cdf_rows(jobs)
    if cdf:
        lines.append(
            "   JCT CDF (s): "
            + "  ".join(f"{name}={value}" for name, value in cdf)
        )
    return "\n".join(lines)


# -- HTML renderer -------------------------------------------------------------

_CSS = """
body { font-family: -apple-system, 'Segoe UI', sans-serif; margin: 2em;
       color: #222; }
h1 { font-size: 1.4em; } h2 { font-size: 1.1em; margin-top: 1.6em; }
table { border-collapse: collapse; margin: 0.6em 0; }
th, td { border: 1px solid #ccc; padding: 2px 8px; font-size: 0.85em;
         text-align: left; }
th { background: #f4f4f4; }
table.heatmap td { border: none; width: 9px; height: 14px; padding: 0; }
table.heatmap th { border: none; background: none; font-weight: normal;
                   padding: 0 6px 0 0; font-size: 0.75em; }
.legend span { display: inline-block; margin-right: 1em;
               font-size: 0.8em; }
.legend i { display: inline-block; width: 10px; height: 10px;
            margin-right: 4px; }
.spark { font-family: monospace; font-size: 1.0em; }
svg { background: #fafafa; border: 1px solid #ddd; margin: 0.4em 0; }
.note { color: #777; font-size: 0.8em; }
"""


def _svg_curve(
    points: _t.Sequence[tuple[float, float]],
    markers: _t.Sequence[dict],
    *,
    title: str,
    color: str = "#2196f3",
    width: int = 640,
    height: int = 120,
) -> str:
    """One polyline chart with vertical fault/join marker lines."""
    if not points:
        return ""
    pad = 6
    xs = [x for x, _ in points]
    ys = [y for _, y in points]
    x_low, x_high = min(xs), max(xs)
    y_low, y_high = min(ys), max(ys)
    x_span = (x_high - x_low) or 1.0
    y_span = (y_high - y_low) or 1.0

    def sx(x: float) -> float:
        return pad + (x - x_low) / x_span * (width - 2 * pad)

    def sy(y: float) -> float:
        return height - pad - (y - y_low) / y_span * (height - 2 * pad)

    path = " ".join(f"{sx(x):.1f},{sy(y):.1f}" for x, y in points)
    parts = [
        f'<svg width="{width}" height="{height}" role="img" '
        f'aria-label="{_html.escape(title)}">',
        f'<title>{_html.escape(title)}</title>',
        f'<polyline fill="none" stroke="{color}" stroke-width="1.5" '
        f'points="{path}"/>',
    ]
    for marker in markers:
        at = marker["start"]
        if not x_low <= at <= x_high:
            continue
        stroke = (
            "#e53935" if marker["name"] == "worker.failed" else "#4caf50"
        )
        parts.append(
            f'<line x1="{sx(at):.1f}" y1="{pad}" x2="{sx(at):.1f}" '
            f'y2="{height - pad}" stroke="{stroke}" '
            f'stroke-dasharray="3,2">'
            f'<title>{_html.escape(marker["name"])} @ {at:.3f}s</title>'
            f'</line>'
        )
    parts.append(
        f'<text x="{pad + 2}" y="{pad + 9}" font-size="9" fill="#777">'
        f'{_html.escape(title)} (max {y_high:g})</text>'
    )
    parts.append("</svg>")
    return "".join(parts)


def _html_table(
    headers: _t.Sequence[str], rows: _t.Sequence[_t.Sequence[_t.Any]]
) -> str:
    head = "".join(f"<th>{_html.escape(str(h))}</th>" for h in headers)
    body = "".join(
        "<tr>" + "".join(
            f"<td>{_html.escape(str(cell))}</td>" for cell in row
        ) + "</tr>"
        for row in rows
    )
    return f"<table><tr>{head}</tr>{body}</table>"


def _html_run_section(entry: dict[str, _t.Any]) -> str:
    run = entry["run"]
    parts = [
        f"<h2>Run {run['run_id']}: {_html.escape(str(run['runtime']))} "
        f"{_html.escape(str(run['model']))} batch {run['total_batch']} "
        f"&times; {run['iterations']} iters "
        f"(total_time {run['total_time']:.3f}s)</h2>"
    ]
    faults = run["stats"].get("faults")
    if faults:
        parts.append(_html_table(
            ["Failed", "Joined", "Left", "Detection (s)",
             "Lost compute (s)", "Reclaimed", "Re-minted"],
            [[
                len(faults["failures"]),
                len(faults["joined"]),
                len(faults["left"]),
                f"{sum(faults['recovery_detection_seconds']):.3f}",
                f"{faults['lost_compute_seconds']:.3f}",
                faults["tokens_reclaimed"],
                faults["tokens_reminted"],
            ]],
        ))
    samples = entry["samples"]
    if not samples:
        parts.append('<p class="note">Run was not sampled — rerun with '
                     "<code>--sample</code> for heatmap and curves.</p>")
        return "".join(parts)
    workers, ticks, grid = _phase_grid(samples)
    idle = PHASE_CODES["idle"]
    rows = []
    for worker in workers:
        cells = "".join(
            f'<td style="background:'
            f'{PHASE_COLORS[PHASE_NAMES[grid.get((worker, tick), idle)]]}"'
            f' title="w{worker} t={tick:g}"></td>'
            for tick in ticks
        )
        rows.append(f"<tr><th>w{worker}</th>{cells}</tr>")
    legend = "".join(
        f'<span><i style="background:{PHASE_COLORS[name]}"></i>'
        f"{name}</span>"
        for name in sorted(PHASE_COLORS)
    )
    parts.append(
        "<h3>Utilization (worker &times; sim-time, "
        f"t={ticks[0]:g}&ndash;{ticks[-1]:g}s)</h3>"
        f'<table class="heatmap">{"".join(rows)}</table>'
        f'<div class="legend">{legend}</div>'
    )
    markers = entry["markers"]
    throughput = _throughput(samples)
    parts.append(_svg_curve(
        throughput, markers, title="throughput (tokens/tick)",
        color="#4caf50",
    ))
    for level in _levels(samples):
        depth = _series(samples, SER_BUFFER_DEPTH, key=level)
        parts.append(_svg_curve(
            depth, markers, title=f"buffer depth, level {level}",
        ))
    if markers:
        parts.append(_html_table(
            ["Event", "Sim-time (s)", "Args"],
            [[m["name"], f"{m['start']:.3f}", m["args"]]
             for m in markers],
        ))
    return "".join(parts)


def _svg_cluster_gantt(
    jobs: _t.Sequence[dict],
    makespan: float,
    *,
    width: int = 640,
    row_height: int = 14,
) -> str:
    """Per-job timeline bars: queued (orange) then running (green,
    darker while more workers are granted; one rect per allocation
    span, so every resize shows as a shade change)."""
    if not jobs or makespan <= 0:
        return ""
    pad = 6
    label_w = 46
    span = width - label_w - pad

    def sx(time: float) -> float:
        return label_w + time / makespan * span

    height = pad * 2 + row_height * len(jobs)
    max_workers = max(job["max_workers"] for job in jobs)
    parts = [
        f'<svg width="{width}" height="{height}" role="img" '
        f'aria-label="job schedule">',
        "<title>job schedule (queued, then running; darker = more "
        "workers)</title>",
    ]
    for position, job in enumerate(jobs):
        y = pad + position * row_height
        bar_h = row_height - 3
        parts.append(
            f'<text x="2" y="{y + bar_h - 1}" font-size="9" '
            f'fill="#555">j{job["job_id"]}</text>'
        )
        queued = sx(job["start_time"]) - sx(job["submit_time"])
        if queued > 0.1:
            parts.append(
                f'<rect x="{sx(job["submit_time"]):.1f}" y="{y}" '
                f'width="{queued:.1f}" height="{bar_h}" '
                f'fill="#ff9800" opacity="0.55">'
                f'<title>j{job["job_id"]} queued '
                f'{job["queue_delay"]:.3f}s</title></rect>'
            )
        for start, end, workers in _job_segments(job):
            opacity = 0.35 + 0.65 * min(workers / max_workers, 1.0)
            parts.append(
                f'<rect x="{sx(start):.1f}" y="{y}" '
                f'width="{max(sx(end) - sx(start), 0.5):.1f}" '
                f'height="{bar_h}" fill="#4caf50" '
                f'opacity="{opacity:.2f}">'
                f'<title>j{job["job_id"]} ({_html.escape(job["model"])})'
                f' {workers} workers, t={start:.1f}-{end:.1f}s</title>'
                f'</rect>'
            )
    parts.append("</svg>")
    return "".join(parts)


def _html_cluster_section(entry: dict[str, _t.Any]) -> str:
    run = entry["run"]
    jobs = entry["jobs"]
    label = f" [{_html.escape(str(run['label']))}]" if run["label"] else ""
    trace = (
        f" on {_html.escape(str(run['trace']))}" if run["trace"] else ""
    )
    parts = [
        f"<h2>Cluster run {run['cluster_run_id']}{label}: "
        f"{_html.escape(str(run['scheduler']))}{trace}, "
        f"pool {run['pool_gpus']} GPUs</h2>",
        _html_table(
            ["Jobs", "Makespan (s)", "Mean JCT (s)", "p50 JCT (s)",
             "p99 JCT (s)", "Mean queue (s)", "Mean util", "Resizes",
             "Lost compute (s)"],
            [[
                run["num_jobs"],
                f"{run['makespan']:.3f}",
                f"{run['mean_jct']:.3f}",
                f"{run['p50_jct']:.3f}",
                f"{run['p99_jct']:.3f}",
                f"{run['mean_queue_delay']:.3f}",
                f"{run['mean_utilization']:.2f}",
                run["total_resizes"],
                f"{run['lost_compute_seconds']:.3f}",
            ]],
        ),
    ]
    gantt = _svg_cluster_gantt(jobs, run["makespan"])
    if gantt:
        parts.append("<h3>Job schedule</h3>")
        parts.append(gantt)
    points = _pool_step_points(run["pool_timeline"], run["makespan"])
    if points:
        parts.append(_svg_curve(
            points, [],
            title=f"pool GPUs in use (of {run['pool_gpus']})",
        ))
    cdf = _jct_cdf_rows(jobs)
    if cdf:
        parts.append("<h3>JCT CDF</h3>")
        parts.append(_html_table(
            ["Percentile", "JCT (s)"], cdf,
        ))
    return "".join(parts)


def render_html_dashboard(data: dict[str, _t.Any]) -> str:
    parts = [
        "<!DOCTYPE html><html><head><meta charset='utf-8'>",
        "<title>fela-repro dashboard</title>",
        f"<style>{_CSS}</style></head><body>",
        "<h1>fela-repro run ledger dashboard</h1>",
    ]
    if not (data["runs"] or data["sweeps"] or data.get("cluster")):
        parts.append('<p class="note">Ledger holds no runs, sweeps, '
                     "or cluster records.</p>")
    for entry in data["runs"]:
        parts.append(_html_run_section(entry))
    if data["sweeps"]:
        parts.append("<h2>Sweeps</h2>")
        parts.append(_html_table(
            ["Sweep", "Label", "Progress", "Cache hits",
             "Busy wall (s)"],
            [[
                entry["sweep"]["sweep_id"],
                entry["sweep"]["label"],
                f"{entry['completed']}/{entry['sweep']['total_jobs']}",
                entry["cache_hits"],
                f"{entry['elapsed_wall']:.2f}",
            ] for entry in data["sweeps"]],
        ))
    for entry in data.get("cluster", []):
        parts.append(_html_cluster_section(entry))
    parts.append("</body></html>")
    return "".join(parts)
