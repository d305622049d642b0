"""CLI coverage for ``repro run --trace-out`` and the validator."""

import json

import pytest

from repro.cli import main
from repro.obs import validate_chrome_trace, verify_causal_chains
from repro.obs.validate import main as validate_main


def _small_args(extra):
    return [
        "vgg19",
        "--batch",
        "64",
        "--workers",
        "2",
        "--iterations",
        "1",
    ] + extra


class TestTraceCommand:
    def test_writes_valid_trace_and_prints_report(self, tmp_path, capsys):
        trace_path = tmp_path / "trace.json"
        code = main(
            ["run"] + _small_args(["--trace-out", str(trace_path)])
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Run report" in out
        assert "Critical path" in out
        payload = json.loads(trace_path.read_text())
        assert validate_chrome_trace(payload) == []
        assert verify_causal_chains(payload) == []

    def test_run_with_trace_out(self, tmp_path, capsys):
        trace_path = tmp_path / "run-trace.json"
        code = main(
            ["run"] + _small_args(["--trace-out", str(trace_path)])
        )
        assert code == 0
        out = capsys.readouterr().out
        # The metric table, then the trace line, then the report.
        table = out.index("AT (samples/s)")
        wrote = out.index(f"trace events to {trace_path}")
        report = out.index("== Run report: fela on vgg19")
        assert table < wrote < report
        assert "-- Token server --" in out[report:]

    def test_trace_subcommand_is_gone(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["trace"] + _small_args([]))
        assert exc.value.code == 2
        assert "invalid choice: 'trace'" in capsys.readouterr().err

    def test_run_trace_out_rejected_for_baselines(self, tmp_path, capsys):
        code = main(
            ["run"]
            + _small_args(
                ["--runtime", "dp", "--trace-out", str(tmp_path / "x.json")]
            )
        )
        assert code == 2
        assert "fela" in capsys.readouterr().err


class TestValidatorCli:
    def test_accepts_fresh_trace(self, tmp_path, capsys):
        trace_path = tmp_path / "trace.json"
        assert main(
            ["run"] + _small_args(["--trace-out", str(trace_path)])
        ) == 0
        capsys.readouterr()
        assert validate_main(["--chains", str(trace_path)]) == 0
        assert "OK" in capsys.readouterr().out

    def test_rejects_garbage(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"traceEvents": [{"ph": "Z"}]}))
        assert validate_main([str(bad)]) == 1
        assert "phase" in capsys.readouterr().out
