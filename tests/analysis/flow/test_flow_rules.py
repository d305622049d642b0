"""Each FELA1xx rule on minimal synthetic programs, with negatives."""

from repro.analysis import analyze_sources
from repro.analysis.callgraph import Program
from repro.analysis.facts import extract_module_facts
from repro.analysis.rules import RULES, Finding, evaluate


def findings_for(*files):
    program = Program(
        extract_module_facts(source, path) for path, source in files
    )
    return evaluate(program)


def rules_hit(findings):
    return {finding.rule_id for finding in findings}


class TestFELA101:
    def test_laundered_wall_clock_flagged_with_chain(self):
        findings = findings_for(
            (
                "src/repro/sim/a.py",
                "import time\n"
                "def raw():\n"
                "    return time.time()\n"
                "def wrap():\n"
                "    return raw()\n"
                "def proc(env):\n"
                "    yield env.timeout(wrap())\n",
            ),
        )
        (finding,) = [f for f in findings if f.rule_id == "FELA101"]
        assert "wall-clock" in finding.message
        assert finding.trace == (
            "repro.sim.a.wrap",
            "repro.sim.a.raw",
        )

    def test_nested_def_followed_like_a_module_level_one(self):
        nested = (
            "import time\n"
            "class B:\n"
            "    def run(self, env):\n"
            "        def jitter():\n"
            "            return time.time()\n"
            "        def train():\n"
            "            yield env.timeout(jitter())\n"
            "        return env.process(train())\n"
        )
        flat = (
            "import time\n"
            "def jitter():\n"
            "    return time.time()\n"
            "class B:\n"
            "    def run(self, env):\n"
            "        def train():\n"
            "            yield env.timeout(jitter())\n"
            "        return env.process(train())\n"
        )
        traces = []
        for source in (nested, flat):
            (finding,) = findings_for(("src/repro/baselines/x.py", source))
            assert (finding.rule_id, finding.line) == ("FELA101", 7)
            traces.append(finding.trace)
        assert traces == [
            ("repro.baselines.x.B.run.jitter",),
            ("repro.baselines.x.jitter",),
        ]

    def test_rebound_nested_name_is_not_followed(self):
        findings = findings_for(
            (
                "src/repro/sim/a.py",
                "import time\n"
                "def run(env, jitter):\n"
                "    def clock():\n"
                "        return time.time()\n"
                "    def train():\n"
                "        clock = jitter\n"
                "        yield env.timeout(clock())\n"
                "    return train\n",
            ),
        )
        assert "FELA101" not in rules_hit(findings)

    def test_def_under_module_level_if_followed(self):
        findings = findings_for(
            (
                "src/repro/sim/a.py",
                "import sys, time\n"
                "if sys.version_info >= (3, 8):\n"
                "    def jitter():\n"
                "        return time.time()\n"
                "def proc(env):\n"
                "    yield env.timeout(jitter())\n",
            ),
        )
        (finding,) = [f for f in findings if f.rule_id == "FELA101"]
        assert finding.trace == ("repro.sim.a.jitter",)

    def test_constant_delay_not_flagged(self):
        findings = findings_for(
            (
                "src/repro/sim/a.py",
                "def proc(env):\n"
                "    yield env.timeout(1.5)\n",
            ),
        )
        assert "FELA101" not in rules_hit(findings)

    def test_outside_sim_packages_not_flagged(self):
        findings = findings_for(
            (
                "src/repro/harness/a.py",
                "import time\n"
                "def proc(env):\n"
                "    yield env.timeout(time.time())\n",
            ),
        )
        assert "FELA101" not in rules_hit(findings)


class TestFELA102:
    def test_set_feeding_scheduler_flagged_as_stateful(self):
        findings = findings_for(
            (
                "src/repro/sim/a.py",
                "def proc(env, xs):\n"
                "    for x in set(xs):\n"
                "        env.schedule(x, 0, 1.0)\n",
            ),
        )
        (finding,) = [f for f in findings if f.rule_id == "FELA102"]
        assert "scheduling-order-sensitive" in finding.message

    def test_order_escape_without_state_flagged_softly(self):
        findings = findings_for(
            (
                "src/repro/obs/a.py",
                "def rows(d):\n"
                "    out = []\n"
                "    for v in set(d):\n"
                "        out.append(v)\n"
                "    return out\n",
            ),
        )
        (finding,) = [f for f in findings if f.rule_id == "FELA102"]
        assert "escapes this loop" in finding.message
        assert "# repro: noqa-FELA102" in finding.message
        assert "baseline" not in finding.message

    def test_sorted_iteration_not_flagged(self):
        for loop in (
            "for x in sorted(set(xs)):",
            # Dict views iterate in insertion order.
            "for x in d.values():",
            "for x in d.keys():",
            "for _, x in d.items():",
        ):
            findings = findings_for(
                (
                    "src/repro/sim/a.py",
                    "def proc(env, xs, d):\n"
                    f"    {loop}\n"
                    "        env.schedule(x, 0, 1.0)\n",
                ),
            )
            assert "FELA102" not in rules_hit(findings), loop


class TestFELA103:
    def test_bad_capture_in_jobspec_subclass_flagged(self):
        findings = findings_for(
            (
                "src/repro/exec/a.py",
                "import random\n"
                "class JobSpec:\n"
                "    pass\n"
                "class Probe(JobSpec):\n"
                "    pass\n"
                "def submit():\n"
                "    return Probe(fn=lambda x: x, rng=random.Random())\n",
            ),
        )
        flagged = [f for f in findings if f.rule_id == "FELA103"]
        assert len(flagged) == 2
        assert {"'fn'" in f.message or "'rng'" in f.message
                for f in flagged} == {True}

    def test_non_jobspec_class_not_flagged(self):
        findings = findings_for(
            (
                "src/repro/exec/a.py",
                "class Widget:\n"
                "    pass\n"
                "def build():\n"
                "    return Widget(fn=lambda x: x)\n",
            ),
        )
        assert "FELA103" not in rules_hit(findings)


class TestFELA104:
    def test_plain_value_yield_flagged(self):
        findings = findings_for(
            (
                "src/repro/sim/a.py",
                "def proc(env, n, d):\n"
                "    yield env.timeout(1.0)\n"
                "    yield n + 1\n"
                "    yield d.values()\n",
            ),
        )
        flagged = [f for f in findings if f.rule_id == "FELA104"]
        assert [f.line for f in flagged] == [3, 4]

    def test_value_returning_helper_yield_flagged(self):
        findings = findings_for(
            (
                "src/repro/sim/a.py",
                "def helper():\n"
                "    return 42\n"
                "def proc(env):\n"
                "    yield helper()\n",
            ),
        )
        (finding,) = [f for f in findings if f.rule_id == "FELA104"]
        assert "helper" in finding.message

    def test_unknown_helper_yield_not_flagged(self):
        # The rule fires only on certainty: an unresolvable return
        # kind must stay silent.
        findings = findings_for(
            (
                "src/repro/sim/a.py",
                "def helper(thing):\n"
                "    return thing.spin()\n"
                "def proc(env):\n"
                "    yield helper(env)\n",
            ),
        )
        assert "FELA104" not in rules_hit(findings)

    def test_bare_and_generator_expression_yields_flagged(self):
        findings = findings_for(
            (
                "src/repro/sim/a.py",
                "def proc(env, xs):\n"
                "    yield\n"
                "    yield (env.timeout(x) for x in xs)\n"
                "    yield env.timeout(1.0)\n",
            ),
        )
        flagged = [f for f in findings if f.rule_id == "FELA104"]
        assert [(f.line, f.col) for f in flagged] == [(2, 5), (3, 5)]
        assert "bare 'yield'" in flagged[0].message
        assert "generator expression" in flagged[1].message

    def test_nested_process_body_is_analyzed(self):
        # The baselines define their sim processes inside ``run``.
        findings = findings_for(
            (
                "src/repro/baselines/a.py",
                "import time\n"
                "class Baseline:\n"
                "    def run(self, env, link):\n"
                "        def train(wid):\n"
                "            claim = link.request()\n"
                "            yield claim\n"
                "            yield env.timeout(time.time())\n"
                "            yield wid + 1\n"
                "        env.process(train(0))\n",
            ),
        )
        assert sorted((f.rule_id, f.line) for f in findings) == [
            ("FELA101", 7), ("FELA104", 8), ("FELA105", 5),
        ]
        assert {f.trace[0] for f in findings} == {
            "repro.baselines.a.Baseline.run.train"
        }

    def test_event_subclass_yield_not_flagged(self):
        findings = findings_for(
            (
                "src/repro/sim/a.py",
                "class Event:\n"
                "    pass\n"
                "class Probe(Event):\n"
                "    pass\n"
                "def proc(env):\n"
                "    yield Probe()\n",
            ),
        )
        assert "FELA104" not in rules_hit(findings)


class TestFELA105:
    def test_unreleased_request_flagged(self):
        findings = findings_for(
            (
                "src/repro/sim/a.py",
                "def proc(env, link):\n"
                "    claim = link.request()\n"
                "    yield claim\n",
            ),
        )
        (finding,) = [f for f in findings if f.rule_id == "FELA105"]
        assert "never released" in finding.message

    def test_with_scoped_request_not_flagged(self):
        findings = findings_for(
            (
                "src/repro/sim/a.py",
                "def proc(env, link):\n"
                "    with link.request() as claim:\n"
                "        yield claim\n",
            ),
        )
        assert "FELA105" not in rules_hit(findings)


class TestRedefinedFunctions:
    """Definitions sharing a qualname are each analyzed."""

    def test_shadowed_definition_is_analyzed(self):
        # Only the first ``proc`` breaks FELA105; the second one, which
        # reuses its qualname, is clean.
        findings = findings_for(
            (
                "src/repro/sim/a.py",
                "def proc(env, link):\n"
                "    claim = link.request()\n"
                "    yield claim\n"
                "def proc(env, link):\n"
                "    with link.request() as claim:\n"
                "        yield claim\n",
            ),
        )
        assert [(f.rule_id, f.line) for f in findings] == [("FELA105", 2)]

    def test_shadowed_nested_definition_is_analyzed(self):
        # Like the two ``rank`` helpers of
        # ``TokenDistributor._rank_and_pick``: one nested name defined
        # in two branches, of which only the first breaks a rule.
        findings = findings_for(
            (
                "src/repro/baselines/a.py",
                "import time\n"
                "def run(env, flag):\n"
                "    if flag:\n"
                "        def train():\n"
                "            yield env.timeout(time.time())\n"
                "    else:\n"
                "        def train():\n"
                "            yield env.timeout(1.0)\n"
                "    env.process(train())\n",
            ),
        )
        assert [(f.rule_id, f.line, f.trace) for f in findings] == [
            ("FELA101", 5, ("repro.baselines.a.run.train",)),
        ]

    def test_report_counts_every_definition(self):
        report = analyze_sources({
            "src/repro/sim/a.py": (
                "def f():\n"
                "    return 1\n"
                "def f():\n"
                "    return 2\n"
            ),
        })
        assert report.functions == 2


class TestFindingShape:
    def test_catalog_covers_all_emitted_rules(self):
        assert {"FELA101", "FELA102", "FELA103", "FELA104",
                "FELA105"} <= set(RULES)

    def test_render_includes_trace(self):
        finding = Finding(
            path="a.py", line=1, col=1, rule_id="FELA101",
            message="m", trace=("f", "g"),
        )
        assert finding.render().endswith("[via f -> g]")

    def test_to_dict_round_trips_trace_as_list(self):
        finding = Finding(
            path="a.py", line=1, col=1, rule_id="FELA101",
            message="m", trace=("f",),
        )
        assert finding.to_dict()["trace"] == ["f"]
