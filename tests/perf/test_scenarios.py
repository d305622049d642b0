"""The scenario dict: the four macros, lookup, and repeat determinism."""

import pytest

from repro.errors import BenchmarkError
from repro.harness import ExperimentRunner
from repro.perf import get_scenario, scenario_names


class TestRegistry:
    def test_unknown_scenario(self):
        with pytest.raises(BenchmarkError, match="unknown scenario"):
            get_scenario("macro.unheard_of")

    def test_registry_is_the_four_macros(self):
        assert scenario_names() == [
            "macro.cluster_100jobs",
            "macro.fela_1000workers",
            "macro.tune_vgg19",
            "macro.vgg19_fela",
        ]


class TestScenarioDeterminism:
    def test_repeat_runs_produce_identical_stats(self):
        run_once = get_scenario("macro.tune_vgg19").build(ExperimentRunner())
        first = run_once()
        assert first == run_once()
        # The halving tune's simulated iterations: 10 + 5 + 3 in
        # Phase 1 and 3 x 3 in Phase 2.
        assert first.events == 27
