import json
from pathlib import Path

import pytest

import measure
from counting import per_op_counts
from measure import OpTime, Tally, end_to_end, p90, run_op
from sampling import StackSampler
from workloads import DEFAULT_SEED, Outcome, Variant, crash_script, job_order

SPEC = json.loads(
    (Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text()
)


def _variant(outputs=None, error=None):
    def run(_checked):
        if error is not None:
            raise error
        return Outcome(1.0, dict(outputs))

    return Variant("v", run)


def test_good_op_passes_its_pins_and_reference():
    tally = Tally()
    reference = run_op(_variant({"t": "1.5"}), tally, pins={"t": "1.5"})
    outcome = run_op(_variant({"t": "1.5"}), tally, reference=reference)
    assert outcome is not None
    assert (tally.attempted, tally.failed) == (2, 0)


def test_raising_op_counts_as_failure():
    tally = Tally()
    outcome = run_op(_variant(error=RuntimeError("boom")), tally)
    assert outcome is None
    assert (tally.attempted, tally.failed) == (1, 1)
    assert "RuntimeError: boom" in tally.errors[0]


def test_pin_mismatch_counts_as_failure():
    tally = Tally()
    outcome = run_op(_variant({"t": "1.5"}), tally, pins={"t": "1.25"})
    assert outcome is None
    assert tally.failed == 1
    assert "pinned '1.25'" in tally.errors[0]


def test_drift_between_repeats_counts_as_failure():
    tally = Tally()
    reference = Outcome(1.0, {"t": "1.5"})
    outcome = run_op(_variant({"t": "1.6"}), tally, reference=reference)
    assert outcome is None
    assert "drifted" in tally.errors[0]


def test_p90_needs_ten_samples_beyond_it():
    assert p90([1.0] * (measure.MIN_P90_SAMPLES - 1)) is None
    values = [float(i) for i in range(measure.MIN_P90_SAMPLES)]
    assert p90(values) == pytest.approx(90.0, abs=1.0)


def test_host_time_is_normalized_by_the_probe_loop():
    op = OpTime(seconds=0.2, loop_seconds=2 * measure.REF_SECONDS, sim_seconds=50.0)
    assert op.normalized == pytest.approx(0.1)
    metrics = end_to_end(
        [op, op],
        setups=[(1.0, measure.REF_SECONDS), (3.0, measure.REF_SECONDS)] * 2
        + [(2.0, measure.REF_SECONDS)],
        peak_rss_mb=30.0,
    )
    assert metrics == {
        "run_s_p50": pytest.approx(0.1),
        "sim_s_per_wall_s": pytest.approx(500.0),
        "setup_s": pytest.approx(2.0),
        "peak_rss_mb": 30.0,
    }


def test_metric_names_match_benchmark_json():
    assert list(measure.END_TO_END) == [m["name"] for m in SPEC["end_to_end"]]
    assert list(measure.per_layer_names()) == [m["name"] for m in SPEC["per_layer"]]


def test_per_layer_fold_reports_every_declared_name():
    op = OpTime(seconds=0.2, loop_seconds=measure.REF_SECONDS, sim_seconds=1.0)
    sums = dict.fromkeys(
        ["ts_requests", "ts_conflicts", "worker_idle_s", "worker_fetch_s", "worker_s"],
        0.0,
    )
    counts = per_op_counts(sums, ops=1)
    metrics = measure.per_layer(StackSampler("/nowhere"), [op], [op], counts)
    assert list(metrics) == list(measure.per_layer_names())
    assert metrics["trace.overhead"] == pytest.approx(1.0)


def test_default_seed_keeps_the_canonical_inputs():
    assert crash_script(DEFAULT_SEED) == "crash:2@4.0,crash:5@9.0"
    assert job_order(DEFAULT_SEED, 5) == [0, 1, 2, 3, 4]


@pytest.mark.parametrize("seed", [0, 1, 12, 99])
def test_other_seeds_vary_the_inputs_deterministically(seed):
    assert crash_script(seed) == crash_script(seed)
    first, second = crash_script(seed).split(",")
    assert first.split("@")[0] != second.split("@")[0]
    gap = float(second.split("@")[1]) - float(first.split("@")[1])
    assert gap == pytest.approx(5.0, abs=0.002)
    assert sorted(job_order(seed, 100)) == list(range(100))
    assert job_order(seed, 100) != list(range(100))
