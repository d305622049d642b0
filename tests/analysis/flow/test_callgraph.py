"""Whole-program model: resolution, taint fixed point, event kinds."""

from repro.analysis.callgraph import (
    CallGraph,
    EVENT_ROOTS,
    Program,
    event_kinds,
    resolve_atoms,
    return_taint,
    state_closure,
)
from repro.analysis.facts import KIND_WALL, extract_module_facts


def program_of(*files):
    return Program(
        extract_module_facts(source, path) for path, source in files
    )


class TestResolution:
    def test_cross_module_call_resolves(self):
        program = program_of(
            (
                "src/repro/sim/a.py",
                "from repro.sim.b import helper\n"
                "def f():\n"
                "    return helper()\n",
            ),
            (
                "src/repro/sim/b.py",
                "def helper():\n"
                "    return 1\n",
            ),
        )
        graph = CallGraph(program)
        assert graph.successors["repro.sim.a.f"] == {
            "repro.sim.b.helper"
        }

    def test_method_resolves_through_base_class(self):
        program = program_of(
            (
                "src/repro/sim/a.py",
                "class Base:\n"
                "    def step(self):\n"
                "        return 1\n"
                "class Child(Base):\n"
                "    pass\n",
            ),
        )
        resolved = program.resolve_function("repro.sim.a.Child.step")
        assert resolved is not None
        assert resolved.qualname == "repro.sim.a.Base.step"

    def test_derives_from_follows_transitive_bases(self):
        program = program_of(
            (
                "src/repro/sim/a.py",
                "class Event:\n"
                "    pass\n"
                "class Timeout(Event):\n"
                "    pass\n"
                "class Retry(Timeout):\n"
                "    pass\n"
                "class Other:\n"
                "    pass\n",
            ),
        )
        assert program.derives_from("repro.sim.a.Retry", EVENT_ROOTS)
        assert not program.derives_from(
            "repro.sim.a.Other", EVENT_ROOTS
        )


class TestReturnTaint:
    def test_taint_propagates_with_provenance_chain(self):
        program = program_of(
            (
                "src/repro/sim/a.py",
                "import time\n"
                "def raw():\n"
                "    return time.time()\n"
                "def wrap():\n"
                "    return raw()\n"
                "def outer():\n"
                "    return wrap()\n",
            ),
        )
        taint = return_taint(program)
        assert taint["repro.sim.a.outer"][KIND_WALL] == (
            "repro.sim.a.outer",
            "repro.sim.a.wrap",
            "repro.sim.a.raw",
        )

    def test_recursive_cycle_terminates(self):
        program = program_of(
            (
                "src/repro/sim/a.py",
                "import time\n"
                "def ping(n):\n"
                "    return pong(n) if n else time.time()\n"
                "def pong(n):\n"
                "    return ping(n - 1)\n",
            ),
        )
        taint = return_taint(program)
        assert KIND_WALL in taint["repro.sim.a.ping"]
        assert KIND_WALL in taint["repro.sim.a.pong"]

    def test_taint_is_the_union_over_a_names_definitions(self):
        program = program_of(
            (
                "src/repro/sim/a.py",
                "import time\n"
                "def delay():\n"
                "    return time.time()\n"
                "def delay():\n"
                "    return 1.0\n"
                "def outer():\n"
                "    return delay()\n",
            ),
        )
        taint = return_taint(program)
        assert taint["repro.sim.a.outer"][KIND_WALL] == (
            "repro.sim.a.outer",
            "repro.sim.a.delay",
        )

    def test_resolve_atoms_mixes_concrete_and_symbolic(self):
        program = program_of(
            (
                "src/repro/sim/a.py",
                "import time\n"
                "def raw():\n"
                "    return time.time()\n",
            ),
        )
        taint = return_taint(program)
        kinds = resolve_atoms(
            ["host-env", "call:repro.sim.a.raw"], program, taint
        )
        assert set(kinds) == {"host-env", KIND_WALL}


class TestEventKinds:
    def test_tri_state_classification(self):
        program = program_of(
            (
                "src/repro/sim/a.py",
                "def pure_event(env):\n"
                "    return env.timeout(1.0)\n"
                "def pure_value():\n"
                "    return 42\n"
                "def mixed(env, flag):\n"
                "    if flag:\n"
                "        return env.timeout(1.0)\n"
                "    return 42\n"
                "def chained(env):\n"
                "    return pure_event(env)\n"
                "def opaque(thing):\n"
                "    return thing.spin()\n",
            ),
        )
        kinds = event_kinds(program)
        assert kinds["repro.sim.a.pure_event"] == "event"
        assert kinds["repro.sim.a.pure_value"] == "value"
        assert kinds["repro.sim.a.mixed"] == "mixed"
        assert kinds["repro.sim.a.chained"] == "event"
        assert kinds["repro.sim.a.opaque"] == "unknown"


class TestStateClosure:
    def test_closure_includes_transitive_callers(self):
        program = program_of(
            (
                "src/repro/sim/a.py",
                "def mutate(env, ev):\n"
                "    env.schedule(ev, 0, 1.0)\n"
                "def middle(env, ev):\n"
                "    mutate(env, ev)\n"
                "def bystander():\n"
                "    return 7\n",
            ),
        )
        closure = state_closure(program, CallGraph(program))
        assert "repro.sim.a.mutate" in closure
        assert "repro.sim.a.middle" in closure
        assert "repro.sim.a.bystander" not in closure
