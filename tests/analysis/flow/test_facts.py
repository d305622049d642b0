"""Per-file fact extraction: taint atoms, value kinds, loop/yield facts."""

import pytest

from repro.analysis.facts import (
    KIND_ENV,
    KIND_RNG,
    KIND_WALL,
    SITE_POOL_CALL,
    SITE_POOL_IMPORT,
    extract_module_facts,
    module_name,
)


def facts_of(source, path="src/repro/sim/mod.py"):
    return extract_module_facts(source, path)


def fn(module, name):
    for function in module.functions:
        if function.qualname.endswith("." + name):
            return function
    raise AssertionError(
        f"{name} not in {[f.qualname for f in module.functions]}"
    )


class TestModuleName:
    def test_derives_from_last_repro_component(self):
        assert (
            module_name("tests/x/fixtures/src/repro/sim/a.py")
            == "repro.sim.a"
        )

    def test_init_maps_to_package(self):
        assert module_name("src/repro/sim/__init__.py") == "repro.sim"

    def test_non_repro_path_uses_stem(self):
        assert module_name("/tmp/scratch.py") == "scratch"


class TestTaintAtoms:
    def test_wall_clock_read_taints_return(self):
        module = facts_of(
            "import time\n"
            "def f():\n"
            "    return time.time()\n"
        )
        assert KIND_WALL in fn(module, "f").return_atoms

    def test_environ_read_taints_return(self):
        module = facts_of(
            "import os\n"
            "def f():\n"
            "    return os.environ['SEED']\n"
        )
        assert KIND_ENV in fn(module, "f").return_atoms

    def test_unseeded_rng_taints_return(self):
        module = facts_of(
            "import random\n"
            "def f():\n"
            "    return random.random()\n"
        )
        assert KIND_RNG in fn(module, "f").return_atoms

    def test_seeded_rng_is_clean(self):
        module = facts_of(
            "import random\n"
            "def f(seed):\n"
            "    return random.Random(seed)\n"
        )
        assert KIND_RNG not in fn(module, "f").return_atoms

    def test_taint_flows_through_locals_into_sink(self):
        module = facts_of(
            "import time\n"
            "def f(env):\n"
            "    d = time.time()\n"
            "    e = d * 2\n"
            "    yield env.timeout(e)\n"
        )
        (sink,) = fn(module, "f").sinks
        assert sink.sink == "sim-time"
        assert KIND_WALL in sink.atoms

    def test_call_atoms_stay_symbolic(self):
        module = facts_of(
            "def helper():\n"
            "    return 1.0\n"
            "def f(env):\n"
            "    yield env.timeout(helper())\n"
        )
        (sink,) = fn(module, "f").sinks
        assert "call:repro.sim.mod.helper" in sink.atoms


class TestLoopFacts:
    def test_set_iteration_recorded(self):
        module = facts_of(
            "def f(env, xs):\n"
            "    for x in set(xs):\n"
            "        env.schedule(x, 0, 1.0)\n"
        )
        (loop,) = fn(module, "f").loops
        assert loop.desc == "set(xs)"
        assert loop.body_sink

    def test_dict_view_through_local_recorded(self):
        # Dict views iterate in insertion order: no loop fact, however
        # the view reaches the loop.
        module = facts_of(
            "def f(d):\n"
            "    out = []\n"
            "    view = d.values()\n"
            "    for v in d.values():\n"
            "        out.append(v)\n"
            "    for k in d.keys():\n"
            "        out.append(k)\n"
            "    for kv in view:\n"
            "        out.append(kv)\n"
            "    return [v for _, v in d.items()]\n"
        )
        assert fn(module, "f").loops == []

    def test_sorted_iteration_not_recorded(self):
        module = facts_of(
            "def f(env, xs):\n"
            "    for x in sorted(set(xs)):\n"
            "        env.schedule(x, 0, 1.0)\n"
        )
        assert fn(module, "f").loops == []

    def test_set_comprehension_not_recorded(self):
        # The comprehension's own result is unordered, so its source
        # order cannot escape.
        module = facts_of(
            "def f(xs):\n"
            "    return {x + 1 for x in set(xs)}\n"
        )
        assert fn(module, "f").loops == []

    def test_list_comprehension_over_set_recorded(self):
        module = facts_of(
            "def f(xs):\n"
            "    return [x for x in set(xs)]\n"
        )
        (loop,) = fn(module, "f").loops
        assert loop.desc == "set(xs)"


class TestYieldAndResourceFacts:
    def test_yields_classified_by_kind(self):
        module = facts_of(
            "def f(env, n):\n"
            "    yield env.timeout(1.0)\n"
            "    yield n + 1\n"
        )
        kinds = [y.kind for y in fn(module, "f").yields_]
        assert kinds == ["event", "value"]

    def test_unreleased_acquire_recorded(self):
        module = facts_of(
            "def f(env, link):\n"
            "    claim = link.request()\n"
            "    yield claim\n"
        )
        (acquire,) = fn(module, "f").acquires
        assert not acquire.released

    def test_with_request_counts_as_released(self):
        module = facts_of(
            "def f(env, link):\n"
            "    with link.request() as claim:\n"
            "        yield claim\n"
        )
        assert fn(module, "f").acquires == []

    def test_cancel_counts_as_released(self):
        module = facts_of(
            "def f(env, link):\n"
            "    claim = link.request()\n"
            "    yield claim\n"
            "    claim.cancel()\n"
        )
        (acquire,) = fn(module, "f").acquires
        assert acquire.released


class TestCtorFacts:
    def test_lambda_and_unseeded_rng_arguments_flagged(self):
        module = facts_of(
            "import random\n"
            "class Job:\n"
            "    pass\n"
            "def f():\n"
            "    return Job(fn=lambda x: x, rng=random.Random())\n",
            path="src/repro/exec/mod.py",
        )
        (ctor,) = fn(module, "f").ctors
        reasons = {bad.param: bad.reason for bad in ctor.bad}
        assert "lambda" in reasons["fn"]
        assert "unseeded" in reasons["rng"]

    def test_plain_arguments_record_no_ctor_fact(self):
        module = facts_of(
            "class Job:\n"
            "    pass\n"
            "def f(seed):\n"
            "    return Job(seed=seed, name='probe')\n",
            path="src/repro/exec/mod.py",
        )
        assert fn(module, "f").ctors == []


class TestScopes:
    def test_nested_defs_and_methods_get_their_own_facts(self):
        module = facts_of(
            "class Runner:\n"
            "    def run(self, env):\n"
            "        def train(wid):\n"
            "            yield env.timeout(1.0)\n"
            "            self.step(wid)\n"
            "        class Probe:\n"
            "            def poke(self):\n"
            "                return 1\n"
            "        return train\n"
        )
        names = sorted(f.qualname for f in module.functions)
        assert names == [
            "repro.sim.mod.Runner.run",
            "repro.sim.mod.Runner.run.Probe.poke",
            "repro.sim.mod.Runner.run.train",
        ]
        train = fn(module, "train")
        assert train.is_generator
        assert [sink.detail for sink in train.sinks] == ["env.timeout"]
        # ``self`` inside a nested def is the enclosing method's.
        assert train.calls == ["repro.sim.mod.Runner.step"]

    def test_code_outside_functions_records_sites(self):
        # Module level, class body, decorator, default and lambda.
        module = facts_of(
            "import random\n"
            "import time\n"
            "import multiprocessing\n"
            "T0 = time.time()\n"
            "class Cfg:\n"
            "    seed = random.randint(0, 9)\n"
            "@register(time.perf_counter())\n"
            "def f(x=random.random(), g=lambda: time.monotonic()):\n"
            "    return x\n"
            "POOL = multiprocessing.Pool()\n"
        )
        sites = sorted(
            (site.line, site.kind, site.detail) for site in module.sites
        )
        assert sites == [
            (3, SITE_POOL_IMPORT, "multiprocessing"),
            (4, KIND_WALL, "time.time"),
            (6, KIND_RNG, "random.randint"),
            (7, KIND_WALL, "time.perf_counter"),
            (8, KIND_RNG, "random.random"),
            (8, KIND_WALL, "time.monotonic"),
            (10, SITE_POOL_CALL, "multiprocessing.Pool"),
        ]
        # Only real functions join the whole-program model.
        assert [f.qualname for f in module.functions] == [
            "repro.sim.mod.f"
        ]

    def test_bare_and_generator_yields_are_classified(self):
        module = facts_of(
            "def f(env, xs):\n"
            "    yield\n"
            "    yield (x for x in xs)\n"
            "    yield env.timeout(1.0)\n"
        )
        kinds = [y.kind for y in fn(module, "f").yields_]
        assert kinds == [
            "none", "unpicklable:generator-expression", "event"
        ]


class TestRoundTrip:
    def test_syntax_error_propagates(self):
        with pytest.raises(SyntaxError):
            facts_of("def broken(:\n")
