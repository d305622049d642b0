import json
import subprocess
import sys

import pytest

import measure
import run

SPEC = run.load_spec()


def _fake_child(args, _deadline):
    """A child report as child.py would print it, without simulating."""
    if "--setup-only" in args:
        return {"setup": [0.5, measure.REF_SECONDS]}
    report = {
        "setup": [0.6, measure.REF_SECONDS],
        "timed": [[0.2, measure.REF_SECONDS, 100.0]] * 8,
        "peak_rss_mb": 25.0,
        "attempted": 9,
        "failed": 0,
        "errors": [],
        "warm_up_ops": 1,
    }
    if args[args.index("--trace") + 1] == "1":
        report["traced_ops"] = 2
        report["per_layer"] = {name: 0.5 for name in measure.per_layer_names()}
    return report


@pytest.mark.parametrize(("trace", "section"), [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metric_names_equal_benchmark_json(
    trace, section, monkeypatch, capsys
):
    monkeypatch.setattr(run, "_child", _fake_child)
    code = run.main(["--workload", "testbed8", "--trace", str(trace)])
    lines = capsys.readouterr().out.strip().splitlines()
    assert code == 0
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    expected = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for name in expected:
        assert any(line.split()[0] == name for line in lines[:-1])


def test_p90_is_reported_only_with_enough_ops(monkeypatch, capsys):
    monkeypatch.setattr(run, "_child", _fake_child)
    run.main(["--workload", "testbed8"])
    out = capsys.readouterr().out
    assert f"(below {measure.MIN_P90_SAMPLES} ops)" in out
    assert "run_s_p90" not in out.strip().splitlines()[-1]


def test_setup_only_child_imports_repro_from_the_checkout():
    done = subprocess.run(
        [
            sys.executable,
            str(run.BENCH_DIR / "child.py"),
            "--workload",
            "tune_vgg19",
            "--seed",
            "11",
            "--seconds",
            "1",
            "--setup-only",
        ],
        cwd=run.ROOT,
        stdout=subprocess.PIPE,
        text=True,
        timeout=60,
        check=True,
    )
    seconds, ref = json.loads(done.stdout)["setup"]
    assert seconds > 0 and ref > 0
