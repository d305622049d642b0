"""Export round-trips, schema validation, and causal-chain checks."""

import pytest

from repro.errors import ObservabilityError
from repro.obs import (
    CAT_NETWORK,
    CAT_SYNC,
    Tracer,
    chrome_trace,
    complete_events,
    read_chrome_trace,
    timeline_spans,
    validate_chrome_trace,
    verify_causal_chains,
    write_chrome_trace,
)
from repro.sim import Environment


class _FakeToken:
    """Just enough token surface for the tracer's lifecycle helpers."""

    def __init__(self, tid, level=0, iteration=0, home=0, deps=()):
        self.tid = tid
        self.level = level
        self.iteration = iteration
        self.type_name = f"T-{level + 1}"
        self.home_worker = home
        self.batch = 16
        self.deps = tuple(deps)


def _traced_lifecycle() -> Tracer:
    """A hand-built trace with one complete minted->synced chain."""
    tracer = Tracer()
    tracer.attach_env(Environment())
    token = _FakeToken(0)
    tracer.token_minted(token)
    tracer.token_buffered(token)
    tracer.token_assigned(token, 1)
    tracer.token_trained(token, 1, 0.0, 1.0)
    tracer.token_reported(token, 1)
    tracer.allreduce([0, 1], 100.0, 200.0, 1.0, 2.0, context=(0, 0))
    tracer.level_synced(0, 0, [0, 1], 200.0)
    tracer.transfer(0, 1, 50.0, 0.0, 0.5)
    return tracer


class TestChromeTraceRoundTrip:
    def test_export_parse_same_count_and_order(self, tmp_path):
        tracer = _traced_lifecycle()
        path = tmp_path / "trace.json"
        count = write_chrome_trace(path, tracer.events)
        assert count == len(tracer.events)
        payload = read_chrome_trace(path)
        parsed = complete_events(payload)
        assert len(parsed) == len(tracer.events)
        for original, loaded in zip(tracer.events, parsed):
            assert loaded["name"] == original.name
            assert loaded["cat"] == original.category
            assert loaded["ts"] == pytest.approx(original.start * 1e6)
            assert loaded["dur"] == pytest.approx(original.duration * 1e6)

    def test_metadata_names_tracks(self):
        payload = chrome_trace(_traced_lifecycle().events)
        names = {
            event["args"]["name"]
            for event in payload["traceEvents"]
            if event["ph"] == "M" and event["name"] == "thread_name"
        }
        assert "token-server" in names
        assert "worker-1" in names

    def test_flow_events_link_token_to_sync(self):
        payload = chrome_trace(_traced_lifecycle().events)
        flows = [
            event
            for event in payload["traceEvents"]
            if event["ph"] in ("s", "t", "f")
        ]
        # 5 lifecycle steps + the sync hop.
        assert len(flows) == 6
        assert flows[0]["ph"] == "s"
        assert flows[-1]["ph"] == "f"
        assert flows[-1]["bp"] == "e"
        assert {flow["id"] for flow in flows} == {0}

    def test_read_rejects_non_object(self, tmp_path):
        path = tmp_path / "bogus.json"
        path.write_text("[1, 2, 3]")
        with pytest.raises(ObservabilityError):
            read_chrome_trace(path)


class TestValidation:
    def test_valid_trace_has_no_problems(self):
        payload = chrome_trace(_traced_lifecycle().events)
        assert validate_chrome_trace(payload) == []

    def test_catches_schema_violations(self):
        payload = chrome_trace(_traced_lifecycle().events)
        payload["traceEvents"].append({"ph": "X", "name": "broken"})
        problems = validate_chrome_trace(payload)
        assert problems
        assert any("broken" not in p and "traceEvents" in p for p in problems)

    def test_catches_unknown_phase_and_category(self):
        payload = {
            "traceEvents": [
                {"ph": "Q", "name": "x", "pid": 0, "tid": 0, "ts": 0},
                {
                    "ph": "X", "name": "x", "pid": 0, "tid": 0,
                    "ts": 0, "dur": 1, "cat": "nonsense",
                },
            ]
        }
        problems = validate_chrome_trace(payload)
        assert any("phase" in p for p in problems)
        assert any("category" in p for p in problems)


class TestCausalChains:
    def test_complete_chain_passes(self):
        payload = chrome_trace(_traced_lifecycle().events)
        assert verify_causal_chains(payload) == []

    def test_missing_stage_is_reported(self):
        tracer = Tracer()
        tracer.attach_env(Environment())
        token = _FakeToken(0)
        tracer.token_minted(token)
        tracer.token_buffered(token)  # never assigned/trained/reported
        problems = verify_causal_chains(chrome_trace(tracer.events))
        assert any("complete lifecycle" in p for p in problems)

    def test_missing_sync_is_reported(self):
        tracer = _traced_lifecycle()
        events = [
            event
            for event in tracer.events
            if event.category not in (CAT_SYNC, CAT_NETWORK)
        ]
        problems = verify_causal_chains(chrome_trace(events))
        assert any("synchronization" in p for p in problems)

    def test_empty_trace_is_a_problem(self):
        assert verify_causal_chains({"traceEvents": []})


class TestTimelineSpans:
    def test_maps_trained_and_fetch_only(self):
        tracer = _traced_lifecycle()
        token = _FakeToken(1)
        tracer.fetch(2, token, 3.0, 3.5, 1000.0)
        spans = list(timeline_spans(tracer.events))
        assert (1, "compute", 0.0, 1.0, "T-1") in spans
        assert (2, "fetch", 3.0, 3.5, "T-1") in spans
        kinds = {span[1] for span in spans}
        assert kinds == {"compute", "fetch"}


class TestCounterSamples:
    """Sampler gauges exported as Chrome counter ("C") events."""

    def _samples(self):
        from repro.obs import Sample

        return (
            Sample(0.0, "buffer.depth", "0", 2.0),
            Sample(0.0, "buffer.depth", "1", 1.0),
            Sample(0.5, "buffer.depth", "0", 3.0),
            Sample(0.0, "fabric.utilization", "", 0.25),
        )

    def test_samples_become_counter_events(self):
        payload = chrome_trace(
            _traced_lifecycle().events, samples=self._samples()
        )
        counters = [
            event
            for event in payload["traceEvents"]
            if event["ph"] == "C"
        ]
        # One event per distinct (series, tick): two buffer ticks plus
        # one utilization tick.
        assert len(counters) == 3
        by_name = {}
        for event in counters:
            by_name.setdefault(event["name"], []).append(event)
        first = by_name["buffer.depth"][0]
        assert first["ts"] == 0.0
        assert first["args"] == {"0": 2.0, "1": 1.0}
        util = by_name["fabric.utilization"][0]
        assert util["args"] == {"value": 0.25}

    def test_round_trip_with_samples_and_faults_validates(self, tmp_path):
        tracer = _traced_lifecycle()
        tracer.worker_failed(
            0, crash_time=1.0, reclaimed=1, reminted=0
        )
        tracer.worker_joined(3, iteration=1)
        path = tmp_path / "trace.json"
        write_chrome_trace(path, tracer.events, samples=self._samples())
        payload = read_chrome_trace(path)
        assert validate_chrome_trace(payload) == []
        names = {
            event["name"]
            for event in complete_events(payload)
        }
        assert "worker.failed" in names and "worker.joined" in names
        assert sum(
            1 for event in payload["traceEvents"] if event["ph"] == "C"
        ) == 3

    def test_validator_rejects_broken_counters(self):
        payload = {
            "traceEvents": [
                {"ph": "C", "name": "x", "pid": 0, "tid": 0, "ts": 0.0,
                 "args": {}},
                {"ph": "C", "name": "y", "pid": 0, "tid": 0, "ts": 0.0,
                 "args": {"value": "high"}},
                {"ph": "C", "name": "z", "pid": 0, "tid": 0,
                 "args": {"value": 1.0}},
            ]
        }
        problems = validate_chrome_trace(payload)
        assert any("non-empty 'args'" in p for p in problems)
        assert any("not numeric" in p for p in problems)
        assert any("'ts'" in p for p in problems)

    def test_no_samples_means_no_counter_events(self):
        payload = chrome_trace(_traced_lifecycle().events)
        assert all(
            event["ph"] != "C" for event in payload["traceEvents"]
        )
