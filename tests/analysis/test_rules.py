"""Per-file rule unit tests: positive, negative, and noqa cases.

Each case runs the whole analyzer over one synthetic file; ``select``
narrows the findings to one rule.
"""

import textwrap

from repro.analysis import RULES, analyze_sources

SIM_PATH = "src/repro/sim/module.py"
CORE_PATH = "src/repro/core/module.py"
METRICS_PATH = "src/repro/metrics/module.py"
OTHER_PATH = "src/repro/harness/module.py"


def lint(source, path=SIM_PATH, select=None):
    report = analyze_sources({path: textwrap.dedent(source)})
    return [
        finding for finding in report.findings
        if select is None or finding.rule_id == select
    ]


def rule_ids(violations):
    return [violation.rule_id for violation in violations]


def spots(violations):
    return [(violation.line, violation.col) for violation in violations]


class TestRuleTable:
    def test_ten_rules_listed(self):
        # FELA003 (sim-process yields) is part of FELA104.
        assert list(RULES) == [
            "FELA001", "FELA002", "FELA004", "FELA005", "FELA006",
            "FELA101", "FELA102", "FELA103", "FELA104", "FELA105",
        ]


class TestWallClock:
    def test_flags_time_time_in_sim(self):
        violations = lint(
            """
            import time

            def stamp():
                return time.time()
            """
        )
        assert rule_ids(violations) == ["FELA001"]
        assert "time.time" in violations[0].message

    def test_flags_from_import_and_alias(self):
        violations = lint(
            """
            from time import perf_counter
            import time as clock

            def stamp():
                return perf_counter() + clock.monotonic()
            """,
            path=CORE_PATH,
        )
        assert rule_ids(violations) == ["FELA001", "FELA001"]

    def test_flags_datetime_now(self):
        violations = lint(
            """
            from datetime import datetime

            def stamp():
                return datetime.now()
            """
        )
        assert rule_ids(violations) == ["FELA001"]

    def test_ignores_env_now_and_local_names(self):
        violations = lint(
            """
            def advance(env, self):
                now = env.now
                return self.time() + now
            """
        )
        assert violations == []

    def test_not_scoped_outside_sim_core(self):
        violations = lint(
            """
            import time

            def stamp():
                return time.time()
            """,
            path=OTHER_PATH,
            select="FELA001",
        )
        assert violations == []

    def test_noqa_suppresses(self):
        violations = lint(
            """
            import time

            def stamp():
                return time.time()  # repro: noqa-FELA001
            """
        )
        assert violations == []


class TestUnseededRandom:
    def test_flags_module_level_random(self):
        violations = lint(
            """
            import random

            def jitter():
                return random.random() + random.randint(0, 4)
            """,
            path=OTHER_PATH,
        )
        assert rule_ids(violations) == ["FELA002", "FELA002"]

    def test_flags_legacy_numpy_api(self):
        violations = lint(
            """
            import numpy as np

            def noise():
                return np.random.rand(3)
            """,
            path=OTHER_PATH,
        )
        assert rule_ids(violations) == ["FELA002"]
        assert "default_rng" in violations[0].message

    def test_allows_seeded_generators(self):
        violations = lint(
            """
            import random
            import numpy as np

            def seeded(seed):
                rng = random.Random(seed)
                gen = np.random.default_rng(seed)
                return rng.random(), gen.normal()
            """,
            path=OTHER_PATH,
        )
        assert violations == []

    def test_blanket_noqa_suppresses(self):
        violations = lint(
            """
            import random

            def jitter():
                return random.random()  # repro: noqa
            """,
            path=OTHER_PATH,
        )
        assert violations == []


class TestSimProtocol:
    """The sim-process yield cases, reported as FELA104."""

    def test_flags_literal_yield(self):
        violations = lint(
            """
            def proc(env):
                yield 5
            """
        )
        assert rule_ids(violations) == ["FELA104"]
        assert spots(violations) == [(3, 5)]

    def test_flags_bare_yield_and_container(self):
        violations = lint(
            """
            def proc(env):
                yield
                yield [env.timeout(1)]
            """
        )
        assert rule_ids(violations) == ["FELA104", "FELA104"]
        assert spots(violations) == [(3, 5), (4, 5)]
        assert "bare 'yield'" in violations[0].message

    def test_accepts_event_yields(self):
        violations = lint(
            """
            def proc(env, events):
                yield env.timeout(1)
                yield env.all_of(events)
                token = yield from request(env)
                return token
            """
        )
        assert violations == []

    def test_nested_function_yields_attributed_correctly(self):
        violations = lint(
            """
            def outer(env):
                def helper():
                    yield 1
                yield env.timeout(1)
            """
        )
        # The literal yield belongs to ``helper``, still flagged once.
        assert rule_ids(violations) == ["FELA104"]
        assert spots(violations) == [(4, 9)]
        assert violations[0].trace == ("repro.sim.module.outer.helper",)

    def test_not_scoped_to_metrics(self):
        violations = lint(
            """
            def rows():
                yield "header"
            """,
            path=METRICS_PATH,
            select="FELA104",
        )
        assert violations == []


class TestMutableDefault:
    def test_flags_display_defaults(self):
        violations = lint(
            """
            def f(a, items=[], mapping={}, tags=set()):
                return a
            """,
            path=OTHER_PATH,
        )
        assert rule_ids(violations) == ["FELA004"] * 3

    def test_flags_kwonly_and_lambda(self):
        violations = lint(
            """
            def f(*, acc=list()):
                g = lambda xs=[]: xs
                return g, acc
            """,
            path=OTHER_PATH,
        )
        assert rule_ids(violations) == ["FELA004", "FELA004"]

    def test_accepts_immutable_defaults(self):
        violations = lint(
            """
            def f(a=None, b=(), c="x", d=0, e=frozenset()):
                return a, b, c, d, e
            """,
            path=OTHER_PATH,
        )
        assert violations == []

    def test_noqa_suppresses(self):
        violations = lint(
            """
            def f(items=[]):  # repro: noqa-FELA004
                return items
            """,
            path=OTHER_PATH,
        )
        assert violations == []


class TestFloatEquality:
    def test_flags_float_literal_equality(self):
        violations = lint(
            """
            def converged(loss):
                return loss == 0.97
            """,
            path=METRICS_PATH,
        )
        assert rule_ids(violations) == ["FELA005"]

    def test_flags_not_equals(self):
        violations = lint(
            """
            def drifted(x):
                return x != 1.5
            """,
            path="src/repro/tuning/module.py",
        )
        assert rule_ids(violations) == ["FELA005"]

    def test_allows_inf_and_int_comparisons(self):
        violations = lint(
            """
            import math

            def ok(t, n):
                return t == float("inf") or t == math.inf or n == 0
            """,
            path=METRICS_PATH,
        )
        assert violations == []

    def test_allows_ordering_comparisons(self):
        violations = lint(
            """
            def ok(t):
                return t <= 0.5 or t > 1.5
            """,
            path=METRICS_PATH,
        )
        assert violations == []

    def test_not_scoped_to_sim(self):
        violations = lint(
            """
            def check(x):
                return x == 0.5
            """,
            path=SIM_PATH,
            select="FELA005",
        )
        assert violations == []

    def test_noqa_with_rule_list(self):
        violations = lint(
            """
            def check(x, items=[]):  # repro: noqa-FELA004,FELA005
                return x == 0.5  # repro: noqa-FELA005
            """,
            path=METRICS_PATH,
        )
        assert violations == []


class TestProcessPool:
    def test_flags_multiprocessing_import(self):
        violations = lint(
            """
            import multiprocessing
            """,
            path=OTHER_PATH,
            select="FELA006",
        )
        assert rule_ids(violations) == ["FELA006"]
        assert "SweepExecutor" in violations[0].message

    def test_flags_concurrent_futures_from_import(self):
        violations = lint(
            """
            from concurrent.futures import ProcessPoolExecutor
            """,
            path=OTHER_PATH,
            select="FELA006",
        )
        assert rule_ids(violations) == ["FELA006"]

    def test_flags_pool_call_through_alias(self):
        violations = lint(
            """
            import concurrent.futures as cf

            def fan_out():
                return cf.ProcessPoolExecutor(max_workers=4)
            """,
            path=OTHER_PATH,
            select="FELA006",
        )
        # Both the import and the constructor call are flagged.
        assert rule_ids(violations) == ["FELA006", "FELA006"]

    def test_repro_exec_is_exempt(self):
        violations = lint(
            """
            import multiprocessing
            from concurrent.futures import ProcessPoolExecutor

            def pool():
                return ProcessPoolExecutor(
                    mp_context=multiprocessing.get_context("spawn")
                )
            """,
            path="src/repro/exec/executor.py",
            select="FELA006",
        )
        assert violations == []

    def test_files_outside_repro_are_exempt(self):
        violations = lint(
            """
            import multiprocessing
            """,
            path="tests/exec/test_executor.py",
            select="FELA006",
        )
        assert violations == []

    def test_unrelated_imports_pass(self):
        violations = lint(
            """
            import concurrent_lib
            from concurrency import futures
            """,
            path=OTHER_PATH,
            select="FELA006",
        )
        assert violations == []
