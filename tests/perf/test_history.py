"""Bench trend reporting over the full regression-store history."""

import pytest

from repro.errors import BenchmarkError
from repro.perf import (
    append_run,
    load_store,
    render_history,
    save_store,
    scenario_history,
)
from repro.perf.store import BenchRun, ScenarioRecord


def _bench_run(label="bench"):
    return BenchRun(
        label=label,
        records=(
            ScenarioRecord(
                name="micro.example",
                kind="micro",
                repeats=3,
                warmup=1,
                wall_seconds=(0.1, 0.2, 0.3),
                wall_seconds_median=0.2,
                wall_seconds_iqr=0.1,
                simulated_seconds=5.0,
                events=100,
                sim_seconds_per_wall_second=25.0,
                events_per_second=500.0,
                peak_rss_kb=1024.0,
            ),
        ),
    )


def _record(run, median):
    import dataclasses

    return dataclasses.replace(
        run, records=tuple(
            dataclasses.replace(record, wall_seconds_median=median)
            for record in run.records
        )
    )


@pytest.fixture()
def store(tmp_path):
    path = tmp_path / "bench.json"
    for label, median in (("v0", 0.4), ("v1", 0.2), ("v2", 0.3)):
        append_run(path, _record(_bench_run(label), median))
    return path


class TestScenarioHistory:
    def test_one_point_per_run_in_order(self, store):
        history = scenario_history(load_store(store), "micro.example")
        assert history == [("v0", 0.4), ("v1", 0.2), ("v2", 0.3)]

    def test_unknown_scenario_names_the_known_ones(self, store):
        with pytest.raises(BenchmarkError, match="micro.example"):
            scenario_history(load_store(store), "nope")


class TestRenderHistory:
    def test_summary_and_sparkline(self, store):
        text = render_history(load_store(store), "micro.example")
        assert "History of 'micro.example' (3 runs)" in text
        assert "first 0.4000s" in text
        assert "min 0.2000s" in text
        assert "last 0.3000s" in text
        assert "trend " in text
        # Percent-vs-first column: v1 halved the wall clock.
        assert "-50.0%" in text

    def test_cli_history_flag(self, store, capsys):
        from repro.cli import main

        assert main(
            ["bench", "--history", "micro.example",
             "--compare", str(store)]
        ) == 0
        out = capsys.readouterr().out
        assert "History of 'micro.example'" in out

    def test_cli_history_missing_store(self, tmp_path, capsys):
        from repro.cli import main

        assert main(
            ["bench", "--history", "x",
             "--compare", str(tmp_path / "none.json")]
        ) == 2
        assert "no benchmark baseline" in capsys.readouterr().err

    def test_even_length_history_averages_the_middles(self, store):
        # Sorted walls 0.2 / 0.3 / 0.4 / 0.8: the median must be the
        # mean of the two middles (0.35), not the upper one (0.4).
        append_run(store, _record(_bench_run("v3"), 0.8))
        text = render_history(load_store(store), "micro.example")
        assert "median 0.3500s" in text

    def test_odd_length_history_keeps_exact_middle(self, store):
        text = render_history(load_store(store), "micro.example")
        assert "median 0.3000s" in text

    def test_cli_unknown_scenario_is_a_clean_error(self, store, capsys):
        from repro.cli import main

        assert main(
            ["bench", "--history", "micro.nope",
             "--compare", str(store)]
        ) == 2
        err = capsys.readouterr().err
        assert "no recorded runs measure scenario 'micro.nope'" in err
        assert "Traceback" not in err

    def test_cli_empty_store_is_a_clean_error(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "empty.json"
        save_store(path, [])
        assert main(
            ["bench", "--history", "micro.example",
             "--compare", str(path)]
        ) == 2
        err = capsys.readouterr().err
        assert "no recorded runs measure" in err
        assert "Traceback" not in err

    def test_render_history_empty_walls_raises_cleanly(self):
        with pytest.raises(BenchmarkError, match="no recorded runs"):
            render_history([], "micro.example")
