"""The FELA rule set, evaluated over a whole program.

Every rule reads the model built from one parse per file
(:mod:`repro.analysis.facts`).  The per-file rules judge the sites a
file's fact pass recorded; the whole-program rules consume the global
model of :mod:`repro.analysis.callgraph` — interprocedural taint, the
call graph, class hierarchy, and per-function summaries — and every
finding they raise carries the call chain (``trace``) that justifies
it, so a report reads as an explanation rather than a pattern match.

=========  =============================================================
FELA000    the file cannot be parsed (raised by the engine)
FELA001    no wall-clock reads inside ``repro.sim`` / ``repro.core``
FELA002    no unseeded RNG (``random.*`` module functions, legacy
           ``numpy.random.*``) anywhere
FELA004    no mutable default arguments
FELA005    no floating-point ``==`` in convergence/metrics/tuning code
FELA006    no direct multiprocessing outside ``repro.exec``
FELA101    a nondeterministic value (wall clock, host environment,
           unseeded RNG) reaches simulation time — directly or
           laundered through any number of helper calls
FELA102    iteration over an unordered ``set`` feeds
           scheduling-order-sensitive state, or its order escapes
FELA103    a JobSpec construction captures an unpicklable or unseeded
           value, breaking byte-identical parallel sweeps
FELA104    a sim-process ``yield`` resolves to something other than an
           Event: a bare ``yield``, a literal, a container, a generator
           expression, or a helper that only returns plain values
FELA105    a resource is acquired in a generator and never released or
           cancelled on any path (leak / deadlock candidate)
=========  =============================================================
"""

from __future__ import annotations

import dataclasses
import typing as _t

from repro.analysis.callgraph import (
    EVENT_ROOTS,
    JOBSPEC_ROOTS,
    CallGraph,
    Program,
    event_kinds,
    resolve_atoms,
    return_taint,
    state_closure,
)
from repro.analysis.facts import (
    KIND_RNG,
    KIND_WALL,
    SIM_PACKAGES,
    SITE_FLOAT_EQ,
    SITE_MUTABLE_DEFAULT,
    SITE_POOL_CALL,
    SITE_POOL_IMPORT,
    ModuleFacts,
    in_packages,
)

#: Rule id reserved for files that cannot be parsed.
PARSE_ERROR_RULE = "FELA000"

#: Rule id -> one-line summary (drives --list-rules).
RULES: dict[str, str] = {
    "FELA001": (
        "no wall-clock reads (time.time/perf_counter/datetime.now) in "
        "repro.sim / repro.core; use the event-loop clock (env.now)"
    ),
    "FELA002": (
        "no unseeded RNG: random.* module functions and legacy "
        "numpy.random.* are banned; thread a seeded generator instead"
    ),
    "FELA004": "no mutable default arguments (list/dict/set displays)",
    "FELA005": (
        "no floating-point ==/!= against float literals in "
        "convergence/metrics/tuning code; use math.isclose"
    ),
    "FELA006": (
        "no direct multiprocessing/concurrent.futures use outside "
        "repro.exec; go through repro.exec.SweepExecutor"
    ),
    "FELA101": (
        "no nondeterministic value (wall clock, host env, unseeded RNG) "
        "may reach simulation time, even through helper calls"
    ),
    "FELA102": (
        "no unordered set iteration may feed "
        "scheduling-order-sensitive simulation state"
    ),
    "FELA103": (
        "JobSpec constructions must not capture unpicklable or "
        "unseeded values (breaks byte-identical parallel sweeps)"
    ),
    "FELA104": (
        "every sim-process yield must resolve to an Event/Timeout/"
        "Condition; bare, literal, container and generator yields "
        "are protocol violations"
    ),
    "FELA105": (
        "resources acquired in a simulation generator must be "
        "released or cancelled on every path"
    ),
}


@dataclasses.dataclass(frozen=True, order=True)
class Finding:
    """One finding, sortable into report order."""

    path: str
    line: int
    col: int
    rule_id: str
    message: str
    #: Call chain justifying the finding, outermost first (empty for
    #: the per-file rules).
    trace: tuple[str, ...] = ()

    def render(self) -> str:
        text = (
            f"{self.path}:{self.line}:{self.col}: "
            f"{self.rule_id} {self.message}"
        )
        if self.trace:
            text += f" [via {' -> '.join(self.trace)}]"
        return text

    def to_dict(self) -> dict[str, _t.Any]:
        data = dataclasses.asdict(self)
        data["trace"] = list(self.trace)
        return data


def _chain_text(chain: tuple[str, ...]) -> str:
    return " -> ".join(chain) if chain else "this expression"


def evaluate(program: Program) -> list[Finding]:
    """Run every rule; returns deduplicated, sorted findings."""
    graph = CallGraph(program)
    taint = return_taint(program)
    events = event_kinds(program)
    stateful = state_closure(program, graph)
    findings: set[Finding] = set()
    for module in program.modules:
        findings.update(_per_file(module))
    findings.update(_fela101(program, taint))
    findings.update(_fela102(program, stateful))
    findings.update(_fela103(program))
    findings.update(_fela104(program, events))
    findings.update(_fela105(program))
    return sorted(findings)


# -- FELA001, FELA002, FELA004-006 --------------------------------------------


def _judge(module: str, kind: str, detail: str) -> tuple[str, str] | None:
    """(rule id, message) for one site of ``module``, if a rule covers it."""
    if kind == KIND_WALL:
        if not in_packages(module, ("repro.sim", "repro.core")):
            return None
        return "FELA001", (
            f"wall-clock call {detail}() in simulation code; "
            "use the event-loop clock (env.now) instead"
        )
    if kind == KIND_RNG:
        if detail.startswith("numpy."):
            return "FELA002", (
                f"legacy numpy.random API {detail}(); use "
                "numpy.random.default_rng(seed) instead"
            )
        return "FELA002", (
            f"{detail}() uses the global RNG; construct "
            "random.Random(seed) with a seed from configuration"
        )
    if kind == SITE_MUTABLE_DEFAULT:
        return "FELA004", (
            "mutable default argument; default to None and "
            "create the container inside the function"
        )
    if kind == SITE_FLOAT_EQ:
        if not in_packages(
            module, ("repro.convergence", "repro.metrics", "repro.tuning")
        ):
            return None
        return "FELA005", (
            f"float equality against literal {detail}; use "
            "math.isclose or an explicit tolerance"
        )
    # The process-pool sites: only repro.exec may fan out.
    if not in_packages(module, ("repro",)) or in_packages(
        module, ("repro.exec",)
    ):
        return None
    if kind == SITE_POOL_CALL:
        return "FELA006", (
            f"{detail}() spawns workers outside repro.exec; "
            "use repro.exec.SweepExecutor instead"
        )
    spelled = "import of" if kind == SITE_POOL_IMPORT else "import from"
    return "FELA006", (
        f"{spelled} {detail!r} outside repro.exec; "
        "fan work out through repro.exec.SweepExecutor"
    )


def _per_file(module: ModuleFacts) -> _t.Iterator[Finding]:
    for site in module.sites:
        judged = _judge(module.module, site.kind, site.detail)
        if judged is not None:
            yield Finding(module.path, site.line, site.col, *judged)


# -- FELA101 -----------------------------------------------------------------


def _fela101(
    program: Program, taint: _t.Any
) -> _t.Iterator[Finding]:
    for facts in program.definitions:
        qualname = facts.qualname
        if not in_packages(facts.module, SIM_PACKAGES):
            continue
        for sink in facts.sinks:
            if sink.sink != "sim-time":
                continue
            kinds = resolve_atoms(sink.atoms, program, taint)
            for kind in sorted(kinds):
                chain = kinds[kind]
                yield Finding(
                    path=facts.path,
                    line=sink.line,
                    col=sink.col,
                    rule_id="FELA101",
                    message=(
                        f"{kind} value reaches simulation time via "
                        f"{sink.detail}(); derive delays from "
                        "simulated state, not the host"
                    ),
                    trace=chain or (qualname,),
                )


# -- FELA102 -----------------------------------------------------------------


def _fela102(
    program: Program, stateful: set[str]
) -> _t.Iterator[Finding]:
    for facts in program.definitions:
        qualname = facts.qualname
        if not facts.module.startswith("repro"):
            continue
        for loop in facts.loops:
            via = next(
                (
                    resolved.qualname
                    for callee in loop.body_calls
                    if (resolved := program.resolve_function(callee))
                    is not None and resolved.qualname in stateful
                ),
                None,
            )
            if loop.body_sink or via is not None:
                message = (
                    f"iteration over unordered set ({loop.desc}) feeds "
                    "scheduling-order-sensitive state; iterate "
                    "sorted(...) or an insertion-ordered structure"
                )
            else:
                message = (
                    f"iteration order over unordered set ({loop.desc}) "
                    "escapes this loop; sort it, or mark it "
                    "`# repro: noqa-FELA102` if the consumer is "
                    "order-insensitive"
                )
            yield Finding(
                path=facts.path,
                line=loop.line,
                col=loop.col,
                rule_id="FELA102",
                message=message,
                trace=(qualname,) + ((via,) if via else ()),
            )


# -- FELA103 -----------------------------------------------------------------


def _fela103(program: Program) -> _t.Iterator[Finding]:
    for facts in program.definitions:
        qualname = facts.qualname
        for ctor in facts.ctors:
            if not program.derives_from(ctor.callee, JOBSPEC_ROOTS):
                continue
            for bad in ctor.bad:
                yield Finding(
                    path=facts.path,
                    line=ctor.line,
                    col=ctor.col,
                    rule_id="FELA103",
                    message=(
                        f"JobSpec {ctor.callee.rsplit('.', 1)[-1]} "
                        f"argument {bad.param!r} captures a "
                        f"{bad.reason}; job specs must be picklable "
                        "and fully seeded to fan out byte-identically"
                    ),
                    trace=(qualname, ctor.callee),
                )


# -- FELA104 -----------------------------------------------------------------

#: Yield kinds that are certainly not an Event -> how to name them
#: (plus every ``unpicklable:<what>`` kind: lambdas, generators, ...).
_NON_EVENTS = {
    "none": "None (a bare 'yield')",
    "value": "a plain value",
    "set": "a plain value",
}


def _fela104(
    program: Program, events: dict[str, str]
) -> _t.Iterator[Finding]:
    for facts in program.definitions:
        qualname = facts.qualname
        if not facts.is_generator:
            continue
        for yielded in facts.yields_:
            message: str | None = None
            trace: tuple[str, ...] = (qualname,)
            what = _NON_EVENTS.get(yielded.kind)
            if what is None and yielded.kind.startswith("unpicklable:"):
                what = "a " + yielded.kind.split(":", 1)[1].replace("-", " ")
            if what is not None:
                message = (
                    f"sim process yields {what} on this path; "
                    "every yield must produce an Event "
                    "(env.timeout/env.event/...)"
                )
            elif yielded.kind.startswith("call:"):
                callee = program.resolve_function(
                    yielded.kind[len("call:"):]
                )
                if (
                    callee is not None
                    and events.get(callee.qualname) == "value"
                ):
                    message = (
                        f"sim process yields the return of "
                        f"{callee.qualname}(), which returns a plain "
                        "value, never an Event"
                    )
                    trace = (qualname, callee.qualname)
            elif yielded.kind.startswith("class:"):
                target = yielded.kind[len("class:"):]
                if target in program.classes and not program.derives_from(
                    target, EVENT_ROOTS
                ):
                    message = (
                        f"sim process yields a {target} instance, "
                        "which is not an Event subclass"
                    )
                    trace = (qualname, target)
            if message is not None:
                yield Finding(
                    path=facts.path,
                    line=yielded.line,
                    col=yielded.col,
                    rule_id="FELA104",
                    message=message,
                    trace=trace,
                )


# -- FELA105 -----------------------------------------------------------------


def _fela105(program: Program) -> _t.Iterator[Finding]:
    for facts in program.definitions:
        qualname = facts.qualname
        if not facts.is_generator:
            continue
        if not in_packages(facts.module, SIM_PACKAGES):
            continue
        for acquire in facts.acquires:
            if acquire.released:
                continue
            yield Finding(
                path=facts.path,
                line=acquire.line,
                col=acquire.col,
                rule_id="FELA105",
                message=(
                    f"{acquire.receiver}.request() result "
                    f"{acquire.var!r} is never released or cancelled "
                    "in this generator; a crash or early return leaks "
                    "the resource (use 'with ...request() as ...:')"
                ),
                trace=(qualname,),
            )
