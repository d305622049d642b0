"""Run ledger: append-only history, schema pin, determinism, checks."""

import sqlite3

import pytest

from repro.core import FelaConfig, FelaRuntime
from repro.errors import LedgerError
from repro.faults import FaultController, parse_faults
from repro.hardware import Cluster, ClusterSpec
from repro.obs import Sampler, Tracer
from repro.store import (
    LEDGER_SCHEMA_VERSION,
    RunLedger,
    run_row_from_result,
)
from repro.store.ledger import TABLES, WALL_COLUMNS
from repro.store.validate import main as validate_main


def _run(partition, *, sampler=None, tracer=None, faults=None):
    config = FelaConfig(
        partition=partition,
        total_batch=128,
        num_workers=4,
        weights=(1, 2, 8),
        conditional_subset_size=2,
        iterations=2,
    )
    return FelaRuntime(
        config,
        Cluster(ClusterSpec(num_nodes=4)),
        sampler=sampler,
        tracer=tracer,
        faults=faults,
    ).run()


def _insert(path, table, row):
    """Append one raw row behind the ledger API's back."""
    columns = ", ".join(f'"{column}"' for column in row)
    marks = ", ".join("?" for _ in row)
    with sqlite3.connect(path) as conn:
        conn.execute(
            f"INSERT INTO {table} ({columns}) VALUES ({marks})",
            tuple(row.values()),
        )
    conn.close()


class TestRoundTrip:
    def test_run_with_samples_and_events_round_trips(
        self, tmp_path, vgg19_partition
    ):
        path = tmp_path / "ledger.sqlite"
        sampler = Sampler(0.5)
        tracer = Tracer()
        result = _run(vgg19_partition, sampler=sampler, tracer=tracer)
        with RunLedger(path) as ledger:
            run_id = ledger.record_run(
                command="run",
                kind="fela",
                result=result,
                label="vgg19",
                config=run_row_from_result(result),
                samples=sampler.samples,
                events=tracer.events,
            )
        with RunLedger(path) as ledger:
            rows = ledger.runs()
            assert len(rows) == 1
            row = rows[0]
            assert row["run_id"] == run_id == 0
            assert row["model"] == "vgg19"
            assert row["total_time"] == result.total_time
            assert row["config"]["weights"] == [1, 2, 8]
            assert row["stats"]["ts_requests"] == (
                result.stats["ts_requests"]
            )
            samples = ledger.samples(run_id)
            assert len(samples) == len(sampler.samples)
            assert samples[0]["time"] == 0.0
            events = ledger.events(run_id)
            assert len(events) == len(tracer.events)
            assert events[0]["args"] == dict(tracer.events[0].args)
            assert ledger.validate() == []

    def test_sweep_round_trip(self, tmp_path):
        path = tmp_path / "ledger.sqlite"
        with RunLedger(path) as ledger:
            sweep_id = ledger.start_sweep(label="tune", total_jobs=2)
            ledger.record_sweep_job(
                sweep_id, index=0, kind="RunJob", status="cached",
                cache_hit=True,
            )
            ledger.record_sweep_job(
                sweep_id, index=1, kind="RunJob", status="started"
            )
            ledger.record_sweep_job(
                sweep_id, index=1, kind="RunJob", status="done",
                elapsed_wall=0.25,
            )
        with RunLedger(path) as ledger:
            assert ledger.sweeps()[0]["total_jobs"] == 2
            jobs = ledger.sweep_jobs(sweep_id)
            assert [job["status"] for job in jobs] == [
                "cached", "started", "done"
            ]
            assert jobs[0]["cache_hit"] == 1
            assert jobs[2]["elapsed_wall"] == 0.25
            assert ledger.validate() == []

    def test_ids_are_sequential_across_reopens(self, tmp_path):
        path = tmp_path / "ledger.sqlite"
        with RunLedger(path) as ledger:
            assert ledger.start_sweep(label="a", total_jobs=1) == 0
        with RunLedger(path) as ledger:
            assert ledger.start_sweep(label="b", total_jobs=1) == 1
            assert [row["label"] for row in ledger.sweeps()] == ["a", "b"]

    def test_unknown_sweep_status_is_rejected(self, tmp_path):
        with RunLedger(tmp_path / "ledger.sqlite") as ledger:
            sweep_id = ledger.start_sweep(label="s", total_jobs=1)
            with pytest.raises(LedgerError, match="status"):
                ledger.record_sweep_job(
                    sweep_id, index=0, kind="J", status="finished"
                )


def _schema_of(path):
    with sqlite3.connect(path) as conn:
        rows = conn.execute("SELECT key, value FROM meta").fetchall()
    conn.close()
    return rows


def _set_schema(path, value):
    with sqlite3.connect(path) as conn:
        conn.execute("UPDATE meta SET value = ? WHERE key = 'schema'",
                     (value,))
    conn.close()


class TestSchema:
    def test_schema_version_is_pinned_at_creation(self, tmp_path):
        path = tmp_path / "ledger.sqlite"
        RunLedger(path).close()
        assert _schema_of(path) == [
            ("schema", str(LEDGER_SCHEMA_VERSION))
        ]

    def test_schema_mismatch_raises(self, tmp_path):
        path = tmp_path / "ledger.sqlite"
        RunLedger(path).close()
        _set_schema(path, "999")
        with pytest.raises(LedgerError, match="schema 999"):
            RunLedger(path)

    def test_schema_one_ledger_raises(self, tmp_path):
        # Schema 1 still carried the bench tables; schema 2 dropped
        # them, so an old ledger is refused rather than half-read.
        path = tmp_path / "ledger.sqlite"
        RunLedger(path).close()
        _set_schema(path, "1")
        with pytest.raises(LedgerError, match="has schema 1"):
            RunLedger(path)

    def test_non_database_file_raises(self, tmp_path):
        # A line-per-row JSON ledger (or any other non-SQLite file) is
        # refused with the path named, not a raw sqlite3 traceback.
        path = tmp_path / "ledger.jsonl"
        path.write_text(
            '{"table": "meta", "key": "schema", "value": "1"}\n'
        )
        with pytest.raises(LedgerError, match="ledger.jsonl"):
            RunLedger(path)

    def test_missing_directory_raises(self, tmp_path):
        # sqlite3 cannot create a file in a directory that does not
        # exist: the ledger names the path instead of a raw traceback.
        with pytest.raises(LedgerError, match="nodir"):
            RunLedger(tmp_path / "nodir" / "x.sqlite")

    def test_wall_columns_are_the_only_timestamps(self):
        # The determinism contract: every nondeterministic column is
        # named *_wall, so consumers can mask them mechanically.
        for table, columns in TABLES.items():
            for column in columns:
                if column.endswith("_wall"):
                    assert column in WALL_COLUMNS, (table, column)


class TestDeterminism:
    def test_rows_identical_modulo_wall_columns(
        self, tmp_path, vgg19_partition
    ):
        paths = (tmp_path / "a.sqlite", tmp_path / "b.sqlite")
        for path in paths:
            sampler = Sampler(0.5)
            faults = FaultController(parse_faults("crash:0@1.0"))
            result = _run(
                vgg19_partition, sampler=sampler, faults=faults
            )
            with RunLedger(path) as ledger:
                ledger.record_run(
                    command="run",
                    kind="fela",
                    result=result,
                    config=run_row_from_result(result),
                    samples=sampler.samples,
                )
                sweep_id = ledger.start_sweep(label="s", total_jobs=1)
                ledger.record_sweep_job(
                    sweep_id, index=0, kind="RunJob", status="done",
                    elapsed_wall=0.125,
                )

        def masked(path):
            dump = {}
            with sqlite3.connect(path) as conn:
                for table, columns in TABLES.items():
                    kept = ", ".join(
                        f'"{column}"' for column in columns
                        if column not in WALL_COLUMNS
                    )
                    dump[table] = conn.execute(
                        f"SELECT {kept} FROM {table} ORDER BY rowid"
                    ).fetchall()
            conn.close()
            return dump

        first, second = masked(paths[0]), masked(paths[1])
        assert first["runs"] and first["samples"] and first["sweep_jobs"]
        assert first == second


class TestValidate:
    def test_flags_unknown_series_and_bad_references(self, tmp_path):
        path = tmp_path / "ledger.sqlite"
        RunLedger(path).close()
        _insert(path, "samples", {
            "run_id": 7, "time": -1.0, "series": "nope", "key": "",
            "value": 0.0,
        })
        _insert(path, "sweep_jobs", {
            "sweep_id": 3, "job_index": 0, "job_kind": "J",
            "status": "started", "cache_hit": 0, "elapsed_wall": 0.0,
            "created_wall": 0.0,
        })
        with RunLedger(path) as ledger:
            problems = ledger.validate()
        assert any("unknown run 7" in problem for problem in problems)
        assert any("unknown sweep 3" in problem for problem in problems)

    def test_flags_invalid_phase_codes(self, tmp_path, vgg19_partition):
        path = tmp_path / "ledger.sqlite"
        result = _run(vgg19_partition)
        with RunLedger(path) as ledger:
            ledger.record_run(command="run", kind="fela", result=result)
        _insert(path, "samples", {
            "run_id": 0, "time": 0.0, "series": "worker.phase",
            "key": "0", "value": 42.0,
        })
        with RunLedger(path) as ledger:
            problems = ledger.validate()
        assert any("phase code" in problem for problem in problems)


class TestValidateCli:
    def test_missing_file_fails_and_creates_nothing(self, tmp_path, capsys):
        path = tmp_path / "missing.sqlite"
        assert validate_main([str(path)]) == 1
        assert "no such file" in capsys.readouterr().out
        assert not path.exists()

    def test_missing_directory_fails_without_traceback(self, tmp_path, capsys):
        assert validate_main([str(tmp_path / "nodir" / "x.sqlite")]) == 1
        assert "no such file" in capsys.readouterr().out

    def test_valid_ledger_passes(self, tmp_path, capsys):
        path = tmp_path / "ledger.sqlite"
        RunLedger(path).close()
        assert validate_main([str(path)]) == 0
        assert "OK (0 runs" in capsys.readouterr().out
