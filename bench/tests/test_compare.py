import json

import pytest

import compare

SPEC = {
    "workloads": [{"name": "testbed8", "why": "test"}],
    "end_to_end": [
        {"name": "run_s_p50", "unit": "s", "better": "lower", "bound": 0.1},
        {"name": "sim_s_per_wall_s", "unit": "s/s", "better": "higher", "bound": 0.1},
    ],
}
HOST = {"python": "3.11.7", "platform": "Linux", "cpu_count": 2}


def _file(run_s, rate, events=100.0, host=HOST):
    runs = [
        {
            "workload": "testbed8",
            "trace": 0,
            "metrics": {
                "run_s_p50": {"value": r, "unit": "s"},
                "sim_s_per_wall_s": {"value": s, "unit": "s/s"},
            },
        }
        for r, s in zip(run_s, rate)
    ]
    counts = {"sim.events": {"value": events, "unit": "count/op"}}
    runs.append({"workload": "testbed8", "trace": 1, "metrics": counts})
    return {"meta": dict(host), "runs": runs}


def _verdicts(lines):
    return {
        (line.split()[0], line.split()[1]): line.split()[6]
        for line in lines
        if line.split()[0] in ("run_s_p50", "sim_s_per_wall_s")
    }


def test_within_bound_is_ok():
    a = _file([1.0, 1.01, 0.99], [100, 101, 99])
    b = _file([1.05, 1.06, 1.04], [96, 97, 95])
    lines, failed = compare.compare(a, b, SPEC)
    assert not failed
    assert set(_verdicts(lines).values()) == {"ok"}


def test_worse_than_bound_regresses_in_either_direction():
    a = _file([1.0, 1.01, 0.99], [100, 101, 99])
    b = _file([1.2, 1.21, 1.19], [80, 81, 79])
    lines, failed = compare.compare(a, b, SPEC)
    assert failed
    assert _verdicts(lines) == {
        ("run_s_p50", "testbed8"): "regressed",
        ("sim_s_per_wall_s", "testbed8"): "regressed",
    }


def test_spread_wider_than_bound_is_unresolved():
    a = _file([1.0, 1.5, 0.7, 1.2], [100, 100, 100, 100])
    b = _file([1.3, 1.1, 1.6, 0.9], [100, 100, 100, 100])
    lines, failed = compare.compare(a, b, SPEC)
    assert not failed
    assert _verdicts(lines)[("run_s_p50", "testbed8")] == "unresolved"


def test_wide_spread_still_ok_when_every_run_is_better():
    a, b = [2.0, 3.0, 2.5, 3.5], [1.0, 1.9, 1.2, 1.5]
    assert compare.verdict(a, b, "lower", 0.1) == "ok"


def test_changed_count_fails_the_gate():
    a = _file([1.0], [100], events=100.0)
    b = _file([1.0], [100], events=101.0)
    lines, failed = compare.compare(a, b, SPEC)
    assert failed
    assert any(line.startswith("sim.events") and "changed" in line for line in lines)


def test_cross_host_wall_verdicts_warn_but_counts_gate():
    other = dict(HOST, cpu_count=64)
    a = _file([1.0], [100])
    b = _file([2.0], [50], host=other)
    lines, failed = compare.compare(a, b, SPEC)
    assert lines[0].startswith("warning: the files come from different hosts")
    assert not failed
    _, failed = compare.compare(a, _file([2.0], [50], events=7.0, host=other), SPEC)
    assert failed


def test_main_exit_status(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps(_file([1.0], [100])))
    b.write_text(json.dumps(_file([1.0], [100])))
    assert compare.main([str(a), str(b)]) == 0
    b.write_text(json.dumps(_file([1.0], [100], events=5.0)))
    assert compare.main([str(a), str(b)]) == 1


@pytest.mark.parametrize(
    ("values", "expected"), [([1.0], 0.0), ([1.0, 1.0, 1.0], 0.0)]
)
def test_spread_of_steady_values_is_zero(values, expected):
    assert compare.spread(values) == expected
