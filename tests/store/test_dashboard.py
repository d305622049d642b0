"""Dashboard rendering from a populated ledger, plus the two CLIs."""

import pytest

from repro.cli import main
from repro.core import FelaConfig, FelaRuntime
from repro.faults import FaultController, parse_faults
from repro.hardware import Cluster, ClusterSpec
from repro.obs import Sampler, Tracer
from repro.store import (
    RunLedger,
    load_dashboard,
    render_html_dashboard,
    render_text_dashboard,
    run_row_from_result,
)
from repro.store.dashboard import sparkline

from tests.store.test_ledger import _insert


@pytest.fixture()
def populated(tmp_path, vgg19_partition):
    """A ledger holding one faulted+sampled+traced run, one sweep, and
    one cluster scheduler run."""
    path = tmp_path / "ledger.sqlite"
    sampler = Sampler(0.5)
    tracer = Tracer()
    faults = FaultController(parse_faults("crash:0@1.0"))
    config = FelaConfig(
        partition=vgg19_partition,
        total_batch=128,
        num_workers=4,
        weights=(1, 2, 8),
        conditional_subset_size=2,
        iterations=2,
    )
    result = FelaRuntime(
        config,
        Cluster(ClusterSpec(num_nodes=4)),
        sampler=sampler,
        tracer=tracer,
        faults=faults,
    ).run()
    with RunLedger(path) as ledger:
        ledger.record_run(
            command="run",
            kind="fela",
            result=result,
            label="vgg19",
            config=run_row_from_result(result),
            samples=sampler.samples,
            events=tracer.events,
        )
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
            elapsed_wall=0.5,
        )
        from repro.cluster import (
            ClusterSimulator,
            TraceSpec,
            generate_trace,
        )

        trace = generate_trace(
            TraceSpec(kind="bursty", num_jobs=4, seed=3,
                      mean_interarrival=10.0)
        )
        ledger.record_cluster_run(
            ClusterSimulator(trace, "fair", 4).run(),
            label="smoke",
            trace="bursty/jobs=4/seed=3",
        )
    return path


class TestSparkline:
    def test_scales_to_the_block_range(self):
        assert sparkline([0.0, 1.0]) == "▁█"

    def test_flat_series_is_mid_level(self):
        assert sparkline([2.0, 2.0, 2.0]) == "▄▄▄"

    def test_empty_is_empty(self):
        assert sparkline([]) == ""


class TestLoadDashboard:
    def test_model_holds_runs_sweeps_and_cluster_runs(self, populated):
        with RunLedger(populated) as ledger:
            data = load_dashboard(ledger)
        assert len(data["runs"]) == 1
        entry = data["runs"][0]
        assert entry["run"]["model"] == "vgg19"
        assert entry["samples"], "sampled run must carry series rows"
        # Fault-category events become curve markers.
        assert any(
            marker["name"] == "worker.failed"
            for marker in entry["markers"]
        )
        sweep = data["sweeps"][0]
        assert sweep["completed"] == 2  # one cached + one done
        assert sweep["cache_hits"] == 1
        cluster = data["cluster"][0]
        assert cluster["run"]["scheduler"] == "fair"
        assert len(cluster["jobs"]) == 4

    def test_empty_ledger_renders_placeholder(self, tmp_path):
        with RunLedger(tmp_path / "empty.sqlite") as ledger:
            data = load_dashboard(ledger)
        assert "holds no runs" in render_text_dashboard(data)
        assert "<html" in render_html_dashboard(data)


class TestTextDashboard:
    def test_sections_and_heatmap(self, populated):
        with RunLedger(populated) as ledger:
            text = render_text_dashboard(load_dashboard(ledger))
        assert "run 0: fela vgg19" in text
        # Heatmap rows for all four workers, with a dead tail for the
        # crashed one.
        for wid in range(4):
            assert f"w  {wid}" in text
        assert "X" in text
        assert "worker.failed" in text
        assert "throughput" in text
        assert "buffer depth" in text
        # Sweep section.
        assert "tune" in text
        # Cluster section: summary, Gantt, utilization, JCT CDF.
        assert "cluster run 0 [smoke]: fair" in text
        assert "job schedule" in text
        assert "pool GPUs in use" in text
        assert "JCT CDF" in text

    def test_deterministic_rendering(self, populated):
        with RunLedger(populated) as ledger:
            first = render_text_dashboard(load_dashboard(ledger))
        with RunLedger(populated) as ledger:
            second = render_text_dashboard(load_dashboard(ledger))
        assert first == second


class TestHtmlDashboard:
    def test_self_contained_document(self, populated):
        with RunLedger(populated) as ledger:
            html = render_html_dashboard(load_dashboard(ledger))
        assert html.startswith("<!DOCTYPE html>")
        assert "<style>" in html
        # No external fetches: everything inline.
        assert "http://" not in html
        assert "https://" not in html
        assert "<svg" in html
        assert "Run 0" in html
        assert "worker.failed" in html
        # Cluster section: summary table, Gantt bars, JCT CDF.
        assert "Cluster run 0" in html
        assert "Job schedule" in html
        assert "JCT CDF" in html

    def test_parses_cleanly(self, populated):
        from html.parser import HTMLParser

        seen = []

        class Collector(HTMLParser):
            def handle_starttag(self, tag, attrs):
                seen.append(tag)

        with RunLedger(populated) as ledger:
            Collector().feed(
                render_html_dashboard(load_dashboard(ledger))
            )
        assert "svg" in seen and "table" in seen


class TestDashboardCli:
    def test_text_to_stdout(self, populated, capsys):
        assert main(["dashboard", str(populated)]) == 0
        out = capsys.readouterr().out
        assert "run 0: fela vgg19" in out

    def test_html_to_file(self, populated, tmp_path, capsys):
        out_path = tmp_path / "dash.html"
        assert main(
            ["dashboard", str(populated), "--out", str(out_path)]
        ) == 0
        assert "wrote dashboard" in capsys.readouterr().out
        assert out_path.read_text().startswith("<!DOCTYPE html>")

    def test_missing_ledger_is_an_error(self, tmp_path, capsys):
        assert main(["dashboard", str(tmp_path / "nope.sqlite")]) == 2
        assert "no run ledger" in capsys.readouterr().err

    def test_non_database_file_is_an_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.sqlite"
        bad.write_text("not a database\n")
        assert main(["dashboard", str(bad)]) == 2
        assert f"cannot open run ledger {bad}" in capsys.readouterr().err


class TestValidatorCli:
    def test_ok_and_invalid_exit_codes(self, populated, tmp_path, capsys):
        from repro.store.validate import main as validate_main

        assert validate_main([str(populated)]) == 0
        assert "OK" in capsys.readouterr().out
        bad = tmp_path / "bad.sqlite"
        RunLedger(bad).close()
        _insert(bad, "samples", {
            "run_id": 9, "time": 0.0, "series": "nope", "key": "",
            "value": 0.0,
        })
        assert validate_main([str(bad)]) == 1
        assert "INVALID" in capsys.readouterr().out

    def test_non_database_file_cannot_load(self, tmp_path, capsys):
        from repro.store.validate import main as validate_main

        bad = tmp_path / "bad.sqlite"
        bad.write_text("not a database\n")
        assert validate_main([str(bad)]) == 1
        out = capsys.readouterr().out
        assert "INVALID" in out
        assert f"cannot load {bad}" in out
