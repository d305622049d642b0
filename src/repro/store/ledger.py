"""Append-only, schema-versioned run ledger (one SQLite file).

One ledger file accumulates every experiment artifact the repro
produces:

========== ==================================================== ========
table      one row per                                          written by
========== ==================================================== ========
runs       completed training run (config + ``RunResult.stats``) ``repro run/trace``
samples    sampler tick × gauge (see :mod:`repro.obs.timeseries`) ``--sample``
events     trace event of a recorded run                         ``--trace-out``
sweeps     ``SweepExecutor.map`` invocation                      sweep commands
sweep_jobs per-job heartbeat (started / finished / cache-hit)    ``SweepExecutor``
cluster_runs ``repro cluster`` scheduler run over one trace      ``cluster --ledger``
cluster_jobs per-job completion record of a cluster run          ``cluster --ledger``
========== ==================================================== ========

Design rules:

* **Append-only.**  The API exposes no update or delete; history is the
  point.  Identifiers (``run_id``, ``sweep_id``, ``cluster_run_id``) are
  assigned sequentially per table, so two identically-scripted sessions
  produce identical rows — the *only* nondeterministic columns are the
  wall-clock timestamps, and every one of those is named ``*_wall`` so
  consumers (and the determinism test) can mask them mechanically.
* **Schema-versioned.**  The ``meta`` table pins
  :data:`LEDGER_SCHEMA_VERSION`; opening a ledger written by a
  different schema raises :class:`~repro.errors.LedgerError` instead of
  misreading it.
* **Plain SQLite.**  The file is a stdlib ``sqlite3`` database, one
  table per row kind; a file that is not one raises
  :class:`~repro.errors.LedgerError`.  Readers return plain dicts, so
  the dashboard and the validator never touch SQL.
"""

from __future__ import annotations

import json
import pathlib
import sqlite3
import time
import typing as _t

from repro.errors import LedgerError
from repro.obs.timeseries import PHASE_CODES, SERIES

if _t.TYPE_CHECKING:  # pragma: no cover - type-only imports
    from repro.cluster.simulator import ClusterResult
    from repro.metrics import RunResult
    from repro.obs.events import TraceEvent
    from repro.obs.timeseries import Sample

#: Bump on any backwards-incompatible change to the ledger layout.
LEDGER_SCHEMA_VERSION = 2

#: table -> ordered column tuple.  The first column of ``runs``,
#: ``sweeps``, and ``cluster_runs`` is that table's sequential id.
TABLES: dict[str, tuple[str, ...]] = {
    "runs": (
        "run_id", "created_wall", "command", "kind", "label", "model",
        "runtime", "total_batch", "num_workers", "iterations",
        "total_time", "seed", "config", "stats",
    ),
    "samples": ("run_id", "time", "series", "key", "value"),
    "events": (
        "run_id", "seq", "name", "category", "start", "duration",
        "track", "args",
    ),
    "sweeps": ("sweep_id", "created_wall", "label", "total_jobs"),
    "sweep_jobs": (
        "sweep_id", "job_index", "job_kind", "status", "cache_hit",
        "elapsed_wall", "created_wall",
    ),
    "cluster_runs": (
        "cluster_run_id", "created_wall", "label", "scheduler",
        "trace", "pool_gpus", "num_jobs", "makespan", "mean_jct",
        "p50_jct", "p99_jct", "mean_queue_delay", "mean_utilization",
        "total_resizes", "lost_compute_seconds", "pool_timeline",
    ),
    "cluster_jobs": (
        "cluster_run_id", "job_id", "model", "total_batch",
        "iterations", "min_workers", "max_workers", "submit_time",
        "start_time", "finish_time", "jct", "queue_delay",
        "initial_workers", "final_workers", "resize_count", "resizes",
        "faults",
    ),
}

#: Columns holding host wall-clock timestamps — the only columns two
#: identically-scripted sessions may disagree on.
WALL_COLUMNS: frozenset[str] = frozenset(
    {"created_wall", "elapsed_wall"}
)

_SWEEP_JOB_STATUSES = ("started", "done", "cached")


def _canonical_json(payload: _t.Any) -> str:
    return json.dumps(
        payload, sort_keys=True, separators=(",", ":"), default=repr
    )


# -- the ledger ----------------------------------------------------------------


class RunLedger:
    """One append-only experiment store; see the module docstring."""

    def __init__(self, path: str | pathlib.Path) -> None:
        self.path = pathlib.Path(path)
        try:
            self._conn = sqlite3.connect(self.path)
        except sqlite3.Error as exc:
            raise LedgerError(
                f"cannot open run ledger {self.path}: {exc}"
            ) from None
        try:
            self._conn.execute(
                "CREATE TABLE IF NOT EXISTS meta (key TEXT PRIMARY KEY, "
                "value TEXT)"
            )
            row = self._conn.execute(
                "SELECT value FROM meta WHERE key = 'schema'"
            ).fetchone()
        except sqlite3.DatabaseError as exc:
            self._conn.close()
            raise LedgerError(
                f"cannot open run ledger {self.path}: {exc}"
            ) from None
        if row is None:
            self._conn.execute(
                "INSERT INTO meta (key, value) VALUES ('schema', ?)",
                (str(LEDGER_SCHEMA_VERSION),),
            )
        elif str(row[0]) != str(LEDGER_SCHEMA_VERSION):
            self._conn.close()
            raise LedgerError(
                f"ledger {self.path} has schema {row[0]}; this tool "
                f"reads schema {LEDGER_SCHEMA_VERSION}"
            )
        # Tables are created only once the schema is known to match, so
        # opening a foreign ledger leaves its layout untouched.
        for table in sorted(TABLES):
            columns = ", ".join(f'"{col}"' for col in TABLES[table])
            self._conn.execute(
                f"CREATE TABLE IF NOT EXISTS {table} ({columns})"
            )
        self._conn.commit()

    # -- storage -------------------------------------------------------------

    def _insert(self, table: str, rows: _t.Sequence[dict]) -> None:
        columns = TABLES[table]
        placeholders = ", ".join("?" for _ in columns)
        self._conn.executemany(
            f"INSERT INTO {table} VALUES ({placeholders})",
            [tuple(row[col] for col in columns) for row in rows],
        )
        self._conn.commit()

    def _rows(self, table: str) -> list[dict]:
        columns = TABLES[table]
        names = ", ".join(f'"{col}"' for col in columns)
        fetched = self._conn.execute(
            f"SELECT {names} FROM {table} ORDER BY rowid"
        ).fetchall()
        return [dict(zip(columns, row)) for row in fetched]

    def _count(self, table: str) -> int:
        row = self._conn.execute(
            f"SELECT COUNT(*) FROM {table}"
        ).fetchone()
        return int(row[0])

    def is_empty(self) -> bool:
        """Whether no row of any kind has been recorded."""
        return not any(self._count(table) for table in TABLES)

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> None:
        self._conn.close()

    def __enter__(self) -> "RunLedger":
        return self

    def __exit__(self, *_exc: object) -> bool:
        self.close()
        return False

    # -- writers -------------------------------------------------------------

    def record_run(
        self,
        *,
        command: str,
        kind: str,
        result: "RunResult",
        label: str = "",
        seed: int | None = None,
        config: dict[str, _t.Any] | None = None,
        samples: _t.Sequence["Sample"] = (),
        events: _t.Sequence["TraceEvent"] = (),
    ) -> int:
        """Land one completed run (+ its series and events); returns its id."""
        run_id = self._count("runs")
        self._insert("runs", [{
            "run_id": run_id,
            "created_wall": time.time(),
            "command": command,
            "kind": kind,
            "label": label,
            "model": result.model_name,
            "runtime": result.runtime_name,
            "total_batch": result.total_batch,
            "num_workers": len(
                result.stats.get("compute_seconds_by_worker", ())
            ),
            "iterations": result.iterations,
            "total_time": result.total_time,
            "seed": seed,
            "config": _canonical_json(config or {}),
            "stats": _canonical_json(result.stats),
        }])
        if samples:
            self._insert("samples", [{
                "run_id": run_id,
                "time": sample.time,
                "series": sample.series,
                "key": sample.key,
                "value": sample.value,
            } for sample in samples])
        if events:
            self._insert("events", [{
                "run_id": run_id,
                "seq": event.seq,
                "name": event.name,
                "category": event.category,
                "start": event.start,
                "duration": event.duration,
                "track": event.track,
                "args": _canonical_json(event.args),
            } for event in events])
        return run_id

    def start_sweep(self, *, label: str, total_jobs: int) -> int:
        """Open a sweep heartbeat group; returns its id."""
        sweep_id = self._count("sweeps")
        self._insert("sweeps", [{
            "sweep_id": sweep_id,
            "created_wall": time.time(),
            "label": label,
            "total_jobs": total_jobs,
        }])
        return sweep_id

    def record_sweep_job(
        self,
        sweep_id: int,
        *,
        index: int,
        kind: str,
        status: str,
        cache_hit: bool = False,
        elapsed_wall: float = 0.0,
    ) -> None:
        """One heartbeat row: a job started, finished, or hit the cache."""
        if status not in _SWEEP_JOB_STATUSES:
            raise LedgerError(
                f"unknown sweep-job status {status!r}; expected one of "
                f"{_SWEEP_JOB_STATUSES}"
            )
        self._insert("sweep_jobs", [{
            "sweep_id": sweep_id,
            "job_index": index,
            "job_kind": kind,
            "status": status,
            "cache_hit": int(cache_hit),
            "elapsed_wall": elapsed_wall,
            "created_wall": time.time(),
        }])

    def record_cluster_run(
        self,
        result: "ClusterResult",
        *,
        label: str = "",
        trace: str = "",
    ) -> int:
        """Land one cluster scheduler run (+ per-job rows); returns its id.

        ``trace`` is a free-form description of the arrival trace (kind,
        size, seed) so two runs over the same stream are groupable.
        """
        cluster_run_id = self._count("cluster_runs")
        row: dict[str, _t.Any] = {
            "cluster_run_id": cluster_run_id,
            "created_wall": time.time(),
            "label": label,
            "trace": trace,
        }
        row.update(result.summary_row())
        self._insert("cluster_runs", [row])
        self._insert("cluster_jobs", [
            {"cluster_run_id": cluster_run_id, **job}
            for job in result.jobs
        ])
        return cluster_run_id

    # -- readers -------------------------------------------------------------

    def runs(self) -> list[dict]:
        rows = self._rows("runs")
        for row in rows:
            row["config"] = json.loads(row["config"])
            row["stats"] = json.loads(row["stats"])
        return rows

    def samples(self, run_id: int | None = None) -> list[dict]:
        rows = self._rows("samples")
        if run_id is None:
            return rows
        return [row for row in rows if row["run_id"] == run_id]

    def events(self, run_id: int | None = None) -> list[dict]:
        rows = self._rows("events")
        for row in rows:
            row["args"] = json.loads(row["args"])
        if run_id is None:
            return rows
        return [row for row in rows if row["run_id"] == run_id]

    def sweeps(self) -> list[dict]:
        return self._rows("sweeps")

    def sweep_jobs(self, sweep_id: int | None = None) -> list[dict]:
        rows = self._rows("sweep_jobs")
        if sweep_id is None:
            return rows
        return [row for row in rows if row["sweep_id"] == sweep_id]

    def cluster_runs(self) -> list[dict]:
        rows = self._rows("cluster_runs")
        for row in rows:
            row["pool_timeline"] = json.loads(row["pool_timeline"])
        return rows

    def cluster_jobs(
        self, cluster_run_id: int | None = None
    ) -> list[dict]:
        rows = self._rows("cluster_jobs")
        for row in rows:
            row["resizes"] = json.loads(row["resizes"])
            row["faults"] = (
                json.loads(row["faults"])
                if row["faults"] is not None
                else None
            )
        if cluster_run_id is None:
            return rows
        return [
            row
            for row in rows
            if row["cluster_run_id"] == cluster_run_id
        ]

    # -- validation ----------------------------------------------------------

    def validate(self) -> list[str]:
        """Structural + referential checks; returns human-readable problems.

        An empty list means the ledger conforms to the schema: ids are
        dense and sequential, every child row references a recorded
        parent, sample rows use known series (worker phases restricted
        to the :data:`~repro.obs.timeseries.PHASE_CODES` codes), and
        sweep heartbeats use known statuses with in-range indices.
        """
        problems: list[str] = []
        runs = self.runs()
        for position, row in enumerate(runs):
            if row["run_id"] != position:
                problems.append(
                    f"runs: row {position} has run_id {row['run_id']} "
                    f"(ids must be dense and sequential)"
                )
            if not isinstance(row["stats"], dict):
                problems.append(
                    f"runs: run {row['run_id']} stats is not an object"
                )
            if row["total_time"] is None or row["total_time"] < 0:
                problems.append(
                    f"runs: run {row['run_id']} has invalid total_time "
                    f"{row['total_time']!r}"
                )
        run_ids = {row["run_id"] for row in runs}
        phase_codes = {float(code) for code in PHASE_CODES.values()}
        for row in self._rows("samples"):
            if row["run_id"] not in run_ids:
                problems.append(
                    f"samples: row references unknown run "
                    f"{row['run_id']}"
                )
                continue
            if row["series"] not in SERIES:
                problems.append(
                    f"samples: unknown series {row['series']!r} in run "
                    f"{row['run_id']}"
                )
            elif (
                row["series"] == "worker.phase"
                and row["value"] not in phase_codes
            ):
                problems.append(
                    f"samples: run {row['run_id']} worker {row['key']} "
                    f"has invalid phase code {row['value']!r}"
                )
            if row["time"] < 0:
                problems.append(
                    f"samples: negative time {row['time']} in run "
                    f"{row['run_id']}"
                )
        for row in self._rows("events"):
            if row["run_id"] not in run_ids:
                problems.append(
                    f"events: row references unknown run {row['run_id']}"
                )
            if row["duration"] is not None and row["duration"] < 0:
                problems.append(
                    f"events: negative duration on seq {row['seq']} in "
                    f"run {row['run_id']}"
                )
        sweeps = self.sweeps()
        for position, row in enumerate(sweeps):
            if row["sweep_id"] != position:
                problems.append(
                    f"sweeps: row {position} has sweep_id "
                    f"{row['sweep_id']} (ids must be dense and "
                    f"sequential)"
                )
        totals = {row["sweep_id"]: row["total_jobs"] for row in sweeps}
        for row in self._rows("sweep_jobs"):
            total = totals.get(row["sweep_id"])
            if total is None:
                problems.append(
                    f"sweep_jobs: row references unknown sweep "
                    f"{row['sweep_id']}"
                )
                continue
            if row["status"] not in _SWEEP_JOB_STATUSES:
                problems.append(
                    f"sweep_jobs: unknown status {row['status']!r} in "
                    f"sweep {row['sweep_id']}"
                )
            if not 0 <= row["job_index"] < total:
                problems.append(
                    f"sweep_jobs: job index {row['job_index']} out of "
                    f"range for sweep {row['sweep_id']} "
                    f"({total} jobs)"
                )
        from repro.cluster.schedulers import SCHEDULER_NAMES

        cluster_runs = self.cluster_runs()
        job_counts: dict[int, int] = {}
        for position, row in enumerate(cluster_runs):
            if row["cluster_run_id"] != position:
                problems.append(
                    f"cluster_runs: row {position} has cluster_run_id "
                    f"{row['cluster_run_id']} (ids must be dense and "
                    f"sequential)"
                )
            if row["scheduler"] not in SCHEDULER_NAMES:
                problems.append(
                    f"cluster_runs: run {row['cluster_run_id']} has "
                    f"unknown scheduler {row['scheduler']!r}"
                )
            if row["makespan"] is None or row["makespan"] <= 0:
                problems.append(
                    f"cluster_runs: run {row['cluster_run_id']} has "
                    f"invalid makespan {row['makespan']!r}"
                )
            if not 0 <= row["mean_utilization"] <= 1:
                problems.append(
                    f"cluster_runs: run {row['cluster_run_id']} has "
                    f"utilization {row['mean_utilization']!r} outside "
                    f"[0, 1]"
                )
            job_counts[row["cluster_run_id"]] = 0
        for row in self.cluster_jobs():
            run_id = row["cluster_run_id"]
            if run_id not in job_counts:
                problems.append(
                    f"cluster_jobs: row references unknown cluster run "
                    f"{run_id}"
                )
                continue
            job_counts[run_id] += 1
            if row["queue_delay"] < 0:
                problems.append(
                    f"cluster_jobs: job {row['job_id']} of run {run_id} "
                    f"has negative queue delay {row['queue_delay']!r}"
                )
            if not (
                row["submit_time"]
                <= row["start_time"]
                <= row["finish_time"]
            ):
                problems.append(
                    f"cluster_jobs: job {row['job_id']} of run {run_id} "
                    f"violates submit <= start <= finish"
                )
        for row in cluster_runs:
            run_id = row["cluster_run_id"]
            if (
                run_id in job_counts
                and job_counts[run_id] != row["num_jobs"]
            ):
                problems.append(
                    f"cluster_runs: run {run_id} claims "
                    f"{row['num_jobs']} jobs but has "
                    f"{job_counts[run_id]} cluster_jobs rows"
                )
        return problems


# -- helpers -------------------------------------------------------------------


def run_row_from_result(result: "RunResult") -> dict[str, _t.Any]:
    """The config-description dict ``record_run`` stores for a result.

    Kept deliberately derivable from the result alone, so every caller
    (CLI run/trace, scenario jobs, tests) lands the same shape.
    """
    return {
        "model": result.model_name,
        "runtime": result.runtime_name,
        "total_batch": result.total_batch,
        "iterations": result.iterations,
        "weights": list(result.stats.get("weights", ())),
        "subset_size": result.stats.get("subset_size"),
    }
