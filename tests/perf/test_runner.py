"""Benchmark runner: timing summary + the determinism tripwire."""

import pytest

from repro.errors import BenchmarkError
from repro.perf import measure_scenario, run_benchmarks
from repro.perf.scenarios import Scenario, ScenarioStats


def make_scenario(builder, name="test.scenario"):
    return Scenario(name=name, description="test-only", _builder=builder)


def constant_scenario():
    def build(_ctx):
        def run_once():
            return ScenarioStats(simulated_seconds=4.0, events=200)

        return run_once

    return make_scenario(build)


class TestMeasureScenario:
    def test_summary_fields(self):
        m = measure_scenario(constant_scenario(), repeats=3, warmup=1)
        assert m.name == "test.scenario"
        assert m.repeats == 3 and m.warmup == 1
        assert len(m.wall_seconds) == 3
        assert m.wall_seconds_median > 0
        assert m.wall_seconds_iqr >= 0
        assert m.simulated_seconds == 4.0
        assert m.events == 200
        assert m.sim_seconds_per_wall_second > 0
        assert m.events_per_second > 0
        assert m.peak_rss_kb > 0
        # The measurement is the stored record itself.
        assert m.kind == "macro"

    def test_nondeterministic_scenario_raises(self):
        def build(_ctx):
            counter = iter(range(100))

            def run_once():
                return ScenarioStats(
                    simulated_seconds=1.0, events=next(counter)
                )

            return run_once

        with pytest.raises(BenchmarkError, match="nondeterministic"):
            measure_scenario(make_scenario(build), repeats=2, warmup=0)

    def test_single_repeat_has_zero_iqr(self):
        m = measure_scenario(constant_scenario(), repeats=1, warmup=0)
        assert m.wall_seconds_iqr == 0.0

    def test_bad_repeats_and_warmup(self):
        with pytest.raises(BenchmarkError, match="repeat"):
            measure_scenario(constant_scenario(), repeats=0)
        with pytest.raises(BenchmarkError, match="warmup"):
            measure_scenario(constant_scenario(), warmup=-1)

    def test_unknown_scenario_name(self):
        with pytest.raises(BenchmarkError, match="unknown scenario"):
            measure_scenario("micro.does_not_exist")


class TestRunBenchmarks:
    def test_empty_selection_rejected(self):
        with pytest.raises(BenchmarkError, match="no scenarios"):
            run_benchmarks([], label="x")

    def test_registered_scenario_end_to_end(self, fast_scenario):
        run = run_benchmarks([fast_scenario], label="t", repeats=1, warmup=0)
        assert run.label == "t"
        (rec,) = run.records
        assert rec.name == fast_scenario
        assert rec.kind == "macro"
        assert rec.events > 0
