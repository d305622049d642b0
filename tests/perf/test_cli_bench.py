"""The ``repro bench`` command: listing, measuring, comparing, gating."""

import json

import pytest

from repro.cli import build_parser, main
from repro.perf import SCHEMA_VERSION, BenchRun, save_store
from repro.perf.scenarios import SCENARIOS, Scenario
from tests.perf.conftest import FAST_SCENARIO as SCENARIO

FAST_ARGS = ["--scenarios", SCENARIO, "--repeats", "1", "--warmup", "0"]

pytestmark = pytest.mark.usefixtures("fast_scenario")


class TestBenchCommand:
    def test_list_scenarios(self, capsys):
        assert main(["bench", "--list"]) == 0
        out = capsys.readouterr().out
        assert "macro.vgg19_fela" in out
        assert "macro.tune_vgg19" in out

    def test_unknown_scenario_is_an_error(self, capsys):
        assert main(["bench", "--scenarios", "micro.nope"]) == 2
        err = capsys.readouterr().err
        assert "unknown scenario" in err

    def test_measure_and_write_store(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["bench", *FAST_ARGS, "--out", "bench.json"]) == 0
        out = capsys.readouterr().out
        assert SCENARIO in out
        payload = json.loads((tmp_path / "bench.json").read_text())
        assert payload["schema"] == SCHEMA_VERSION
        assert payload["runs"][0]["results"][0]["name"] == SCENARIO

    def test_compare_without_regression_exits_zero(
        self, capsys, tmp_path, monkeypatch
    ):
        monkeypatch.chdir(tmp_path)
        assert main(["bench", *FAST_ARGS, "--out", "bench.json"]) == 0
        capsys.readouterr()
        # A generous gate: back-to-back runs of the same build only
        # differ by host noise, which must not flip the exit code.
        assert (
            main(
                [
                    "bench",
                    *FAST_ARGS,
                    "--compare",
                    "bench.json",
                    "--fail-on-regress",
                    "200",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "vs baseline" in out

    def test_injected_regression_exits_nonzero(
        self, capsys, tmp_path, monkeypatch
    ):
        monkeypatch.chdir(tmp_path)
        assert main(["bench", *FAST_ARGS, "--out", "bench.json"]) == 0
        capsys.readouterr()
        # Doctor the baseline to claim the scenario used to be 10x
        # faster: the fresh measurement must trip the gate.
        payload = json.loads((tmp_path / "bench.json").read_text())
        rec = payload["runs"][-1]["results"][0]
        rec["wall_seconds_median"] /= 10.0
        (tmp_path / "bench.json").write_text(json.dumps(payload))
        assert main(["bench", *FAST_ARGS, "--compare", "bench.json"]) == 1
        out = capsys.readouterr().out
        assert f"REGRESSION: {SCENARIO}" in out

    def test_missing_baseline_is_an_error(self, capsys, tmp_path):
        assert (
            main(
                [
                    "bench",
                    *FAST_ARGS,
                    "--compare",
                    str(tmp_path / "absent.json"),
                ]
            )
            == 2
        )
        assert "no benchmark baseline" in capsys.readouterr().err

    def test_profile_report(self, capsys):
        assert main(["bench", *FAST_ARGS, "--profile", "--top", "5"]) == 0
        out = capsys.readouterr().out
        assert "hotspots for" in out


@pytest.mark.parametrize(
    "flags",
    [
        ["--baseline", "before"],
        ["--compare", "absent.json"],
        ["--compare", "empty.json"],
        ["--compare", "store.json", "--fail-on-regress", "-5"],
        ["--compare", "store.json", "--baseline", "no-such-label"],
    ],
    ids=["baseline-without-compare", "missing-store", "empty-store",
         "negative-threshold", "unknown-label"],
)
def test_bad_input_is_rejected_before_measuring(
    flags, capsys, tmp_path, monkeypatch
):
    monkeypatch.chdir(tmp_path)
    save_store("empty.json", [])
    save_store("store.json", [BenchRun(label="before", records=())])
    built = []

    def build(_runner):
        built.append(True)
        raise AssertionError("a scenario was built")

    monkeypatch.setitem(
        SCENARIOS, "test.raises", Scenario("test.raises", "raises", build)
    )
    assert main(["bench", "--scenarios", "test.raises", *flags]) == 2
    assert "error:" in capsys.readouterr().err
    assert built == []


class TestBaselineLabel:
    """``--baseline LABEL``: gate against a named run, not just the last."""

    def _record(self, label):
        assert (
            main(
                [
                    "bench",
                    *FAST_ARGS,
                    "--label",
                    label,
                    "--out",
                    "bench.json",
                ]
            )
            == 0
        )

    def test_gates_against_the_named_run(
        self, capsys, tmp_path, monkeypatch
    ):
        monkeypatch.chdir(tmp_path)
        self._record("before")
        capsys.readouterr()
        # Doctor the *last* run to be absurdly fast; gating against the
        # honest "before" label must ignore it and pass.
        self._record("doctored")
        payload = json.loads((tmp_path / "bench.json").read_text())
        assert payload["runs"][-1]["label"] == "doctored"
        payload["runs"][-1]["results"][0]["wall_seconds_median"] /= 100.0
        (tmp_path / "bench.json").write_text(json.dumps(payload))
        capsys.readouterr()
        assert (
            main(
                [
                    "bench",
                    *FAST_ARGS,
                    "--compare",
                    "bench.json",
                    "--baseline",
                    "before",
                    "--fail-on-regress",
                    "400",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "vs baseline 'before'" in out

    def test_latest_occurrence_of_a_repeated_label_wins(
        self, capsys, tmp_path, monkeypatch
    ):
        monkeypatch.chdir(tmp_path)
        self._record("before")
        self._record("before")
        payload = json.loads((tmp_path / "bench.json").read_text())
        # Doctor the *older* duplicate: it must not be the one compared.
        payload["runs"][0]["results"][0]["wall_seconds_median"] /= 1e6
        (tmp_path / "bench.json").write_text(json.dumps(payload))
        capsys.readouterr()
        assert (
            main(
                [
                    "bench",
                    *FAST_ARGS,
                    "--compare",
                    "bench.json",
                    "--baseline",
                    "before",
                    "--fail-on-regress",
                    "400",
                ]
            )
            == 0
        )

    def test_unknown_label_is_a_clean_error(
        self, capsys, tmp_path, monkeypatch
    ):
        monkeypatch.chdir(tmp_path)
        self._record("before")
        capsys.readouterr()
        assert (
            main(
                [
                    "bench",
                    *FAST_ARGS,
                    "--compare",
                    "bench.json",
                    "--baseline",
                    "no-such-label",
                ]
            )
            == 2
        )
        err = capsys.readouterr().err
        assert "no benchmark run labelled 'no-such-label'" in err
        assert "before" in err  # the stored labels are listed

    def test_baseline_without_compare_is_an_error(self, capsys):
        assert (
            main(["bench", *FAST_ARGS, "--baseline", "before"]) == 2
        )
        err = capsys.readouterr().err
        assert "--compare" in err


class TestSweepFlags:
    """Bench timings are serial and land only in the JSON store, so the
    sweep flags belong to the sweep commands and not to ``bench``."""

    @pytest.mark.parametrize(
        "flag",
        ["--jobs=2", "--ledger=ledger.sqlite", "--progress", "--no-cache",
         "--cache-dir=cache"],
    )
    def test_bench_rejects_sweep_flags(
        self, flag, capsys, tmp_path, monkeypatch
    ):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exit_info:
            main(["bench", *FAST_ARGS, flag])
        assert exit_info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command", [["compare", "vgg19"], ["tune", "vgg19"], ["figures"]]
    )
    def test_sweep_commands_keep_sweep_flags(self, command):
        args = build_parser().parse_args([
            *command, "--jobs", "2", "--ledger", "ledger.sqlite",
            "--progress",
        ])
        assert (args.jobs, args.ledger, args.progress) == (
            2, "ledger.sqlite", True
        )
