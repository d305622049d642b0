"""A fast scenario the harness tests measure instead of a real macro."""

import pytest

from repro.perf.scenarios import SCENARIOS, Scenario, ScenarioStats

FAST_SCENARIO = "test.fast"


def _build_fast(_runner):
    from repro.sim import Environment

    def run_once():
        env = Environment()

        def ticker():
            for _ in range(200):
                yield env.timeout(0.01)

        env.process(ticker())
        env.run()
        return ScenarioStats(
            simulated_seconds=env.now, events=env.scheduled_events
        )

    return run_once


@pytest.fixture
def fast_scenario(monkeypatch):
    """Put :data:`FAST_SCENARIO` into the scenario dict for one test."""
    monkeypatch.setitem(
        SCENARIOS,
        FAST_SCENARIO,
        Scenario(FAST_SCENARIO, "a 200-timeout event loop", _build_fast),
    )
    return FAST_SCENARIO
