"""The multi-tenant simulator: completion, accounting, determinism."""

import json

import pytest

from repro.cluster import (
    SCHEDULER_NAMES,
    ClusterSimulator,
    TraceSpec,
    generate_trace,
)
from repro.errors import ConfigurationError
from repro.store import RunLedger
from repro.store.ledger import WALL_COLUMNS

#: One small bursty trace shared by most tests: bursts force queueing
#: and rebalancing even on a small pool, exercising every code path.
TRACE = generate_trace(
    TraceSpec(kind="bursty", num_jobs=8, seed=3, mean_interarrival=10.0)
)


def _simulate(scheduler, trace=TRACE, pool=6, **kwargs):
    return ClusterSimulator(trace, scheduler, pool, **kwargs).run()


def _strip_wall(rows):
    return [
        {k: v for k, v in row.items() if k not in WALL_COLUMNS}
        for row in rows
    ]


class TestCompletion:
    @pytest.mark.parametrize("scheduler", SCHEDULER_NAMES)
    def test_every_job_completes(self, scheduler):
        result = _simulate(scheduler)
        assert len(result.jobs) == len(TRACE)
        for job in result.jobs:
            assert job["submit_time"] <= job["start_time"]
            assert job["start_time"] < job["finish_time"]
            assert job["jct"] == pytest.approx(
                job["finish_time"] - job["submit_time"]
            )
            assert job["queue_delay"] >= 0
            assert job["initial_workers"] >= job["min_workers"]

    @pytest.mark.parametrize("scheduler", SCHEDULER_NAMES)
    def test_accounting_is_consistent(self, scheduler):
        result = _simulate(scheduler)
        assert result.makespan == max(
            job["finish_time"] for job in result.jobs
        )
        assert 0.0 < result.mean_utilization <= 1.0
        # All GPUs are back in the pool at the end.
        assert result.pool_timeline[-1][1] == 0
        assert 0 < result.p50_jct <= result.p99_jct
        assert result.mean_queue_delay >= 0.0

    def test_job_events_are_emitted(self):
        result = _simulate("elastic")
        names = [event.name for event in result.events]
        assert names.count("job.submitted") == len(TRACE)
        assert names.count("job.started") == len(TRACE)
        assert names.count("job.finished") == len(TRACE)


class TestPolicyBehavior:
    def test_fifo_never_resizes(self):
        assert _simulate("fifo").total_resizes == 0

    def test_elastic_schedulers_resize(self):
        # Bursty arrivals force shrinks at each burst and grows as the
        # burst drains; both elastic policies must actually exercise the
        # membership join/drain path.
        assert _simulate("fair").total_resizes > 0
        assert _simulate("elastic").total_resizes > 0

    def test_elastic_beats_fifo_on_bursty_mean_jct(self):
        fifo = _simulate("fifo")
        elastic = _simulate("elastic")
        assert elastic.mean_jct < fifo.mean_jct

    def test_fifo_queues_behind_the_head(self):
        result = _simulate("fifo")
        assert result.mean_queue_delay > 0


class TestDeterminism:
    @pytest.mark.parametrize("scheduler", SCHEDULER_NAMES)
    def test_rerun_is_bit_identical(self, scheduler):
        first = _simulate(scheduler)
        second = _simulate(scheduler)
        assert first.jobs == second.jobs
        assert first.makespan == second.makespan
        assert first.pool_timeline == second.pool_timeline
        assert first.events_scheduled == second.events_scheduled

    def test_ledger_rows_identical_modulo_wall(self, tmp_path):
        paths = []
        for index in range(2):
            path = tmp_path / f"ledger{index}.sqlite"
            with RunLedger(path) as ledger:
                ledger.record_cluster_run(
                    _simulate("elastic"), label="pin", trace="bursty"
                )
            paths.append(path)
        rows = []
        for path in paths:
            with RunLedger(path) as ledger:
                rows.append((
                    _strip_wall(ledger.cluster_runs()),
                    _strip_wall(ledger.cluster_jobs()),
                ))
        assert rows[0] == rows[1]

    def test_simulator_instance_runs_once(self):
        simulator = ClusterSimulator(TRACE, "fifo", 6)
        simulator.run()
        with pytest.raises(ConfigurationError):
            simulator.run()


class TestFaults:
    def test_crashes_roll_up_into_job_rows(self):
        result = _simulate(
            "fair", crash_probability=0.2, crash_seed=5
        )
        # Every job still completes (recovery is PR 3's job) and the
        # fault summaries land in the per-job accounting.
        assert len(result.jobs) == len(TRACE)
        failures = sum(
            json.loads(job["faults"])["failures"]
            for job in result.jobs
            if job["faults"] is not None
        )
        assert failures > 0

    def test_crash_runs_are_deterministic(self):
        kwargs = dict(crash_probability=0.2, crash_seed=5)
        assert (
            _simulate("fair", **kwargs).jobs
            == _simulate("fair", **kwargs).jobs
        )


class TestValidation:
    def test_empty_trace_rejected(self):
        with pytest.raises(ConfigurationError):
            ClusterSimulator((), "fifo", 4)

    def test_pool_smaller_than_a_min_rejected(self):
        trace = generate_trace(
            TraceSpec(num_jobs=2, seed=0, min_workers_range=(2, 2))
        )
        with pytest.raises(ConfigurationError):
            ClusterSimulator(trace, "fifo", 1)

    @pytest.mark.parametrize("lease", [float("nan"), 0.0, -1.0])
    def test_bad_lease_timeout_rejected(self, lease):
        with pytest.raises(ConfigurationError, match="lease"):
            ClusterSimulator(TRACE, "fifo", 6, lease_timeout=lease)

    def test_bad_crash_probability_rejected(self):
        with pytest.raises(ConfigurationError):
            ClusterSimulator(TRACE, "fifo", 4, crash_probability=1.0)


class TestLedgerIntegration:
    def test_round_trip_and_validate(self, tmp_path):
        path = tmp_path / "cluster.sqlite"
        with RunLedger(path) as ledger:
            run_id = ledger.record_cluster_run(
                _simulate("elastic"), label="smoke", trace="bursty"
            )
            assert run_id == 0
            assert ledger.validate() == []
            runs = ledger.cluster_runs()
            assert len(runs) == 1
            assert runs[0]["scheduler"] == "elastic"
            assert runs[0]["num_jobs"] == len(TRACE)
            jobs = ledger.cluster_jobs(run_id)
            assert len(jobs) == len(TRACE)
            assert all(
                isinstance(job["resizes"], list) for job in jobs
            )
