"""Tests for the command-line interface."""

import pytest

from repro.cli import main, parse_batches, parse_straggler
from repro.errors import ConfigurationError
from repro.harness import ExperimentRunner
from repro.stragglers import (
    NoStraggler,
    ProbabilityStraggler,
    RoundRobinStraggler,
)


class TestParsers:
    def test_straggler_none(self):
        assert isinstance(parse_straggler(None), NoStraggler)
        assert isinstance(parse_straggler("none"), NoStraggler)

    def test_straggler_round_robin(self):
        injector = parse_straggler("rr:6")
        assert isinstance(injector, RoundRobinStraggler)
        assert injector.delay == 6.0

    def test_straggler_probability(self):
        injector = parse_straggler("prob:0.3:6")
        assert isinstance(injector, ProbabilityStraggler)
        assert injector.probability == 0.3
        assert injector.delay == 6.0

    def test_straggler_garbage_rejected(self):
        for bad in ("rr", "rr:x", "prob:0.3", "what:1:2"):
            with pytest.raises(ConfigurationError):
                parse_straggler(bad)

    def test_batches(self):
        assert parse_batches("64,128") == [64, 128]
        with pytest.raises(ConfigurationError):
            parse_batches("64,abc")
        with pytest.raises(ConfigurationError):
            parse_batches("")


class TestCommands:
    def test_list_models(self, capsys):
        assert main(["list-models"]) == 0
        out = capsys.readouterr().out
        assert "vgg19" in out
        assert "googlenet" in out

    def test_profile(self, capsys):
        assert main(["profile", "vgg19"]) == 0
        out = capsys.readouterr().out
        assert "conv1" in out and "fc3" in out

    def test_partition(self, capsys):
        assert main(["partition", "vgg19"]) == 0
        out = capsys.readouterr().out
        assert "SM-1" in out
        assert "Paper partition" in out

    def test_partition_without_paper_split(self, capsys):
        assert main(["partition", "alexnet"]) == 0
        out = capsys.readouterr().out
        assert "no published partition" in out

    def test_run_dp(self, capsys):
        code = main(
            ["run", "vgg19", "--runtime", "dp", "--batch", "128",
             "--iterations", "2"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "AT (samples/s)" in out

    def test_run_fela_with_straggler(self, capsys):
        code = main(
            ["run", "vgg19", "--batch", "128", "--iterations", "2",
             "--straggler", "rr:4"]
        )
        assert code == 0

    def test_bad_ledger_path_fails_before_simulating(
        self, tmp_path, capsys, monkeypatch
    ):
        def no_run(*_args, **_kwargs):
            raise AssertionError("simulated despite a bad ledger path")

        monkeypatch.setattr(ExperimentRunner, "run", no_run)
        code = main(
            ["run", "vgg19", "--batch", "128", "--workers", "4",
             "--iterations", "2", "--ledger",
             str(tmp_path / "nodir" / "x.sqlite")]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot open run ledger")
        assert len(err.strip().splitlines()) == 1

    # "trace" is a ``run --trace-out`` run.
    @pytest.mark.parametrize("command", ["run", "trace"])
    @pytest.mark.parametrize("interval", ["0", "-1"])
    def test_non_positive_sample_interval_is_rejected(
        self, command, interval, tmp_path, capsys, monkeypatch
    ):
        # 0 is an interval like any other, not "sampling off".
        def no_run(*_args, **_kwargs):
            raise AssertionError("simulated despite a bad --sample")

        monkeypatch.setattr(ExperimentRunner, "run", no_run)
        args = ["run", "vgg19", "--batch", "128", "--workers", "4",
                "--iterations", "2", "--sample", interval]
        if command == "trace":
            args += ["--trace-out", str(tmp_path / "trace.json")]
        assert main(args) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: sample interval must be > 0")
        assert len(err.strip().splitlines()) == 1

    def test_unknown_model_is_clean_error(self, capsys):
        assert main(["profile", "nonexistent"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_tune(self, capsys):
        code = main(
            ["tune", "vgg19", "--batch", "128",
             "--profile-iterations", "1"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "best: weights=" in out

    def test_compare(self, capsys):
        code = main(
            ["compare", "vgg19", "--batches", "128", "--iterations", "2"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "FELA" in out and "DP" in out

    def test_tune_prints_search_diagnostics(self, capsys):
        code = main(
            ["tune", "vgg19", "--batch", "128",
             "--profile-iterations", "2"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "case measurements" in out
        assert "candidates pruned" in out
        assert "cache hits" in out

    def test_tune_exhaustive_flag(self, capsys):
        code = main(
            ["tune", "vgg19", "--batch", "128",
             "--profile-iterations", "1", "--exhaustive"]
        )
        assert code == 0
        assert "exhaustive phase 1" in capsys.readouterr().out


class TestSweepFlags:
    @staticmethod
    def best_line(out):
        # Winner + measured time only: the trailing gap percentages
        # summarize the profiled case set, which halving legitimately
        # shrinks.
        line = next(
            line for line in out.splitlines()
            if line.startswith("best: weights=")
        )
        return line.split("gaps:")[0].strip()

    def test_parallel_tune_matches_serial_exhaustive(self, capsys):
        # The CI smoke in .github/workflows/ci.yml re-runs this exact
        # comparison from the shell.
        assert main(
            ["tune", "vgg19", "--batch", "128",
             "--profile-iterations", "2", "--jobs", "1", "--exhaustive"]
        ) == 0
        serial = self.best_line(capsys.readouterr().out)
        assert main(
            ["tune", "vgg19", "--batch", "128",
             "--profile-iterations", "2", "--jobs", "2"]
        ) == 0
        parallel = self.best_line(capsys.readouterr().out)
        assert parallel == serial

    def test_jobs_must_be_positive(self, capsys):
        assert main(
            ["tune", "vgg19", "--batch", "128", "--jobs", "0"]
        ) == 2
        assert "error:" in capsys.readouterr().err

    def test_oversubscribed_jobs_warns_and_caps(self, capsys):
        import os

        huge = str((os.cpu_count() or 1) + 7)
        code = main(
            ["tune", "vgg19", "--batch", "128",
             "--profile-iterations", "1", "--jobs", huge]
        )
        assert code == 0
        assert "capping" in capsys.readouterr().err


class TestCacheCommand:
    def run_tune(self):
        assert main(
            ["tune", "vgg19", "--batch", "128",
             "--profile-iterations", "1"]
        ) == 0

    def test_stats_and_ls_after_tune(self, capsys):
        self.run_tune()
        capsys.readouterr()
        assert main(["cache", "stats"]) == 0
        stats_out = capsys.readouterr().out
        assert "entries" in stats_out
        assert main(["cache", "ls"]) == 0
        ls_out = capsys.readouterr().out
        assert "Bytes" in ls_out

    def test_clear_empties_the_store(self, capsys):
        self.run_tune()
        capsys.readouterr()
        assert main(["cache", "clear"]) == 0
        assert "removed" in capsys.readouterr().out
        assert main(["cache", "ls"]) == 0
        assert "(cache is empty)" in capsys.readouterr().out

    def test_no_cache_flag_keeps_store_empty(self, capsys):
        assert main(
            ["tune", "vgg19", "--batch", "128",
             "--profile-iterations", "1", "--no-cache"]
        ) == 0
        capsys.readouterr()
        assert main(["cache", "ls"]) == 0
        assert "(cache is empty)" in capsys.readouterr().out


class TestLedgerOnFailure:
    """A failing command closes its ``--ledger`` and leaves no stray file."""

    FAILING = {
        "run": ["run", "vgg19", "--batch", "3", "--workers", "8"],
        # A ``run --trace-out`` run (the output path is added below).
        "trace": ["run", "vgg19", "--batch", "3", "--workers", "8"],
        "cluster": ["cluster", "run", "--jobs", "2", "--pool", "0"],
        "tune": ["tune", "nosuchmodel"],
    }

    @pytest.mark.parametrize("command", sorted(FAILING))
    def test_created_ledger_is_removed(self, command, tmp_path, capsys):
        path = tmp_path / "new.sqlite"
        args = self.FAILING[command] + ["--ledger", str(path)]
        if command == "trace":
            args += ["--trace-out", str(tmp_path / "trace.json")]
        assert main(args) == 2
        assert capsys.readouterr().err.startswith("error:")
        assert not path.exists()

    def test_existing_ledger_keeps_its_rows(self, tmp_path, capsys):
        from repro.store import RunLedger

        path = tmp_path / "runs.sqlite"
        assert main(
            ["run", "vgg19", "--batch", "128", "--workers", "4",
             "--iterations", "2", "--ledger", str(path)]
        ) == 0
        before = path.read_bytes()
        assert main(self.FAILING["run"] + ["--ledger", str(path)]) == 2
        assert path.read_bytes() == before
        with RunLedger(path) as ledger:
            assert len(ledger.runs()) == 1

    def test_existing_empty_ledger_is_kept(self, tmp_path, capsys):
        from repro.store import RunLedger

        path = tmp_path / "empty.sqlite"
        RunLedger(path).close()
        assert main(self.FAILING["run"] + ["--ledger", str(path)]) == 2
        with RunLedger(path) as ledger:
            assert ledger.is_empty()
