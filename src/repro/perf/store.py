"""The regression store: schema-versioned benchmark history + comparator.

``BENCH_core.json`` at the repository root holds an append-only list of
labelled benchmark *runs* (each a set of per-scenario records), so the
performance trajectory of the engine is part of the repository's
history: every optimization PR appends a before/after pair, and CI
compares fresh measurements against the last committed run.

The file format is deliberately strict: a missing file, malformed JSON,
a wrong/old ``schema`` field, or structurally broken records all raise
:class:`~repro.errors.BenchmarkError` with a message naming the problem
— a corrupt baseline must never silently pass a regression gate.
"""

from __future__ import annotations

import dataclasses
import json
import pathlib
import typing as _t

from repro.errors import BenchmarkError

#: Bump on any backwards-incompatible change to the store layout.
SCHEMA_VERSION = 1

#: Default classification/gate threshold: a scenario regresses when its
#: median wall-clock grows by more than this percentage.
DEFAULT_REGRESSION_PCT = 20.0


@dataclasses.dataclass(frozen=True)
class ScenarioRecord:
    """One scenario's stored measurement."""

    name: str
    kind: str
    repeats: int
    warmup: int
    wall_seconds: tuple[float, ...]
    wall_seconds_median: float
    wall_seconds_iqr: float
    simulated_seconds: float
    events: int
    sim_seconds_per_wall_second: float
    events_per_second: float
    peak_rss_kb: float

    def to_dict(self) -> dict[str, _t.Any]:
        payload = dataclasses.asdict(self)
        payload["wall_seconds"] = list(self.wall_seconds)
        return payload

    @classmethod
    def from_dict(cls, payload: dict[str, _t.Any]) -> "ScenarioRecord":
        try:
            return cls(
                name=payload["name"],
                kind=payload["kind"],
                repeats=int(payload["repeats"]),
                warmup=int(payload["warmup"]),
                wall_seconds=tuple(
                    float(wall) for wall in payload["wall_seconds"]
                ),
                wall_seconds_median=float(payload["wall_seconds_median"]),
                wall_seconds_iqr=float(payload["wall_seconds_iqr"]),
                simulated_seconds=float(payload["simulated_seconds"]),
                events=int(payload["events"]),
                sim_seconds_per_wall_second=float(
                    payload["sim_seconds_per_wall_second"]
                ),
                events_per_second=float(payload["events_per_second"]),
                peak_rss_kb=float(payload["peak_rss_kb"]),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise BenchmarkError(
                f"malformed scenario record in benchmark store: {exc!r}"
            ) from None


@dataclasses.dataclass(frozen=True)
class BenchRun:
    """One labelled benchmark invocation over a set of scenarios."""

    label: str
    records: tuple[ScenarioRecord, ...]

    def record_for(self, name: str) -> ScenarioRecord | None:
        for record in self.records:
            if record.name == name:
                return record
        return None

    def to_dict(self) -> dict[str, _t.Any]:
        return {
            "label": self.label,
            "results": [record.to_dict() for record in self.records],
        }

    @classmethod
    def from_dict(cls, payload: dict[str, _t.Any]) -> "BenchRun":
        if not isinstance(payload, dict):
            raise BenchmarkError(
                f"malformed benchmark run: expected object, got "
                f"{type(payload).__name__}"
            )
        label = payload.get("label")
        results = payload.get("results")
        if not isinstance(label, str) or not isinstance(results, list):
            raise BenchmarkError(
                "malformed benchmark run: needs a string 'label' and a "
                "'results' list"
            )
        return cls(
            label=label,
            records=tuple(
                ScenarioRecord.from_dict(entry) for entry in results
            ),
        )


# -- persistence --------------------------------------------------------------


def load_store(path: str | pathlib.Path) -> list[BenchRun]:
    """Read all runs from a store file; strict about schema and shape."""
    path = pathlib.Path(path)
    if not path.exists():
        raise BenchmarkError(f"no benchmark baseline at {path}")
    try:
        payload = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise BenchmarkError(
            f"malformed benchmark store {path}: {exc}"
        ) from None
    if not isinstance(payload, dict):
        raise BenchmarkError(
            f"malformed benchmark store {path}: top level must be an "
            "object"
        )
    schema = payload.get("schema")
    if schema != SCHEMA_VERSION:
        raise BenchmarkError(
            f"benchmark store {path} has schema {schema!r}; this tool "
            f"reads schema {SCHEMA_VERSION} — regenerate with "
            "'repro bench --out'"
        )
    runs = payload.get("runs")
    if not isinstance(runs, list):
        raise BenchmarkError(
            f"malformed benchmark store {path}: 'runs' must be a list"
        )
    return [BenchRun.from_dict(entry) for entry in runs]


def save_store(
    path: str | pathlib.Path, runs: _t.Sequence[BenchRun]
) -> None:
    """Write the full store (schema envelope + runs), byte-stable."""
    _write_store(path, [run.to_dict() for run in runs])


def _write_store(
    path: str | pathlib.Path, runs: _t.Sequence[dict[str, _t.Any]]
) -> None:
    payload = {"schema": SCHEMA_VERSION, "runs": list(runs)}
    pathlib.Path(path).write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n"
    )


def append_run(
    path: str | pathlib.Path, run: BenchRun
) -> list[BenchRun]:
    """Append ``run`` to the store (creating it if absent); returns all.

    Stored runs are written back verbatim: a round trip through
    :class:`BenchRun` would drop the keys of since-deleted fields from
    older runs and rewrite the history the store exists to keep.
    """
    path = pathlib.Path(path)
    runs: list[BenchRun] = []
    stored: list[dict[str, _t.Any]] = []
    if path.exists():
        runs = load_store(path)
        stored = json.loads(path.read_text())["runs"]
    runs.append(run)
    stored.append(run.to_dict())
    _write_store(path, stored)
    return runs


def run_for_label(
    runs: _t.Sequence[BenchRun], label: str
) -> BenchRun:
    """The most recent run stored under ``label``.

    Labels are not unique in an append-only store (every PR may append
    another ``optimized`` run); the latest occurrence is the one a gate
    should measure against.  Unknown labels raise
    :class:`~repro.errors.BenchmarkError` naming the labels that exist.
    """
    for run in reversed(runs):
        if run.label == label:
            return run
    known = ", ".join(
        dict.fromkeys(run.label for run in runs)
    ) or "(nothing)"
    raise BenchmarkError(
        f"no benchmark run labelled {label!r} in the store; "
        f"stored labels: {known}"
    )


# -- history ------------------------------------------------------------------


def scenario_history(
    runs: _t.Sequence[BenchRun], scenario: str
) -> list[tuple[str, float]]:
    """``(run label, median wall seconds)`` for every run measuring it."""
    history = [
        (run.label, record.wall_seconds_median)
        for run in runs
        for record in run.records
        if record.name == scenario
    ]
    if not history:
        known = sorted(
            {record.name for run in runs for record in run.records}
        )
        raise BenchmarkError(
            f"no recorded runs measure scenario {scenario!r}; store "
            f"holds: {', '.join(known) or '(nothing)'}"
        )
    return history


def render_history(
    runs: _t.Sequence[BenchRun], scenario: str
) -> str:
    """Trend report over the full store history of one scenario.

    Complements the last-run-only comparator: first/min/median/last
    median-wall values plus a per-run sparkline, so a slow drift that
    never trips the single-step regression gate is still visible.
    """
    from repro.store.dashboard import sparkline

    history = scenario_history(runs, scenario)
    walls = [wall for _, wall in history]
    if not walls:  # scenario_history raises first; keep the gate local too
        raise BenchmarkError(
            f"no recorded runs measure scenario {scenario!r}"
        )
    ordered = sorted(walls)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        median = ordered[mid]
    else:
        # True median: even-length histories average the two middles
        # (indexing [len // 2] alone reports the upper one).
        median = (ordered[mid - 1] + ordered[mid]) / 2.0
    from repro.harness import render_table

    trend = render_table(
        ["Run", "Label", "Wall med (s)", "vs first"],
        [
            [
                position,
                label,
                f"{wall:.4f}",
                f"{(wall / walls[0] - 1) * 100:+.1f}%"
                if walls[0] > 0 else "-",
            ]
            for position, (label, wall) in enumerate(history)
        ],
        title=f"History of {scenario!r} ({len(history)} runs)",
    )
    summary = (
        f"first {walls[0]:.4f}s  min {min(walls):.4f}s  "
        f"median {median:.4f}s  last {walls[-1]:.4f}s\n"
        f"trend {sparkline(walls)}"
    )
    return f"{trend}\n{summary}"


# -- comparison ---------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class ComparisonRow:
    """One scenario's current-vs-baseline wall-clock verdict."""

    scenario: str
    baseline_wall: float | None
    current_wall: float
    #: Positive = slower than baseline, negative = faster (percent).
    delta_pct: float | None
    #: baseline / current (>1 = speedup); None without a baseline.
    speedup: float | None
    #: "regression" | "improvement" | "ok" | "new"
    status: str


@dataclasses.dataclass(frozen=True)
class Comparison:
    """Comparator output: per-scenario rows + the gate threshold used."""

    rows: tuple[ComparisonRow, ...]
    threshold_pct: float
    baseline_label: str

    @property
    def regressions(self) -> list[ComparisonRow]:
        return [row for row in self.rows if row.status == "regression"]

    @property
    def improvements(self) -> list[ComparisonRow]:
        return [row for row in self.rows if row.status == "improvement"]

    def render(self) -> str:
        from repro.harness import render_table

        rows = []
        for row in self.rows:
            rows.append(
                [
                    row.scenario,
                    "-" if row.baseline_wall is None
                    else f"{row.baseline_wall:.4f}",
                    f"{row.current_wall:.4f}",
                    "-" if row.delta_pct is None
                    else f"{row.delta_pct:+.1f}%",
                    "-" if row.speedup is None
                    else f"{row.speedup:.2f}x",
                    row.status,
                ]
            )
        table = render_table(
            ["Scenario", "Base wall (s)", "Now wall (s)", "Delta",
             "Speedup", "Status"],
            rows,
            title=(
                f"vs baseline {self.baseline_label!r} "
                f"(gate: +{self.threshold_pct:g}%)"
            ),
        )
        if self.regressions:
            names = ", ".join(row.scenario for row in self.regressions)
            table += f"\nREGRESSION: {names}"
        return table


def compare_runs(
    current: BenchRun,
    baseline: BenchRun,
    threshold_pct: float = DEFAULT_REGRESSION_PCT,
) -> Comparison:
    """Classify every current scenario against the baseline run.

    A scenario regresses when its median wall-clock exceeds the
    baseline's by more than ``threshold_pct`` percent, improves when it
    undercuts it by the same margin, and is ``new`` when the baseline
    run never measured it.
    """
    if threshold_pct < 0:
        raise BenchmarkError(
            f"regression threshold must be >= 0: {threshold_pct}"
        )
    rows: list[ComparisonRow] = []
    for record in current.records:
        base = baseline.record_for(record.name)
        if base is None:
            rows.append(
                ComparisonRow(
                    scenario=record.name,
                    baseline_wall=None,
                    current_wall=record.wall_seconds_median,
                    delta_pct=None,
                    speedup=None,
                    status="new",
                )
            )
            continue
        if base.wall_seconds_median <= 0:
            raise BenchmarkError(
                f"baseline for {record.name!r} has non-positive wall "
                f"time {base.wall_seconds_median}"
            )
        delta_pct = (
            (record.wall_seconds_median - base.wall_seconds_median)
            / base.wall_seconds_median
            * 100.0
        )
        if delta_pct > threshold_pct:
            status = "regression"
        elif delta_pct < -threshold_pct:
            status = "improvement"
        else:
            status = "ok"
        rows.append(
            ComparisonRow(
                scenario=record.name,
                baseline_wall=base.wall_seconds_median,
                current_wall=record.wall_seconds_median,
                delta_pct=delta_pct,
                speedup=(
                    base.wall_seconds_median / record.wall_seconds_median
                    if record.wall_seconds_median > 0
                    else None
                ),
                status=status,
            )
        )
    return Comparison(
        rows=tuple(rows),
        threshold_pct=threshold_pct,
        baseline_label=baseline.label,
    )
