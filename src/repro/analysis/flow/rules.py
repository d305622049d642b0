"""The FELA1xx flow-rule series, evaluated over a whole program.

Unlike the syntactic FELA001-006 rules (one file, one AST walk), these
rules consume the global model built by
:mod:`repro.analysis.flow.callgraph`: interprocedural taint, the call
graph, class hierarchy, and per-function summaries.  Each evaluator is
a pure function from the model to findings, and every finding carries
the call chain (``trace``) that justifies it, so a report reads as an
explanation rather than a pattern match.

=========  =============================================================
FELA101    a nondeterministic value (wall clock, host environment,
           unseeded RNG) reaches simulation time — directly or
           laundered through any number of helper calls
FELA102    iteration over an unordered ``set`` feeds
           scheduling-order-sensitive state, or its order escapes
FELA103    a JobSpec construction captures an unpicklable or unseeded
           value, breaking byte-identical parallel sweeps
FELA104    a sim-process ``yield`` resolves to a plain value, not an
           Event (the flow-sensitive upgrade of FELA003)
FELA105    a resource is acquired in a generator and never released or
           cancelled on any path (leak / deadlock candidate)
=========  =============================================================
"""

from __future__ import annotations

import dataclasses
import typing as _t

from repro.analysis.flow.callgraph import (
    EVENT_ROOTS,
    JOBSPEC_ROOTS,
    CallGraph,
    Program,
    event_kinds,
    resolve_atoms,
    return_taint,
    state_closure,
)
from repro.analysis.flow.facts import SIM_PACKAGES, in_packages

#: Rule id -> one-line summary (drives --list-rules).
FLOW_RULES: dict[str, str] = {
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
        "Condition (flow-sensitive FELA003)"
    ),
    "FELA105": (
        "resources acquired in a simulation generator must be "
        "released or cancelled on every path"
    ),
}


@dataclasses.dataclass(frozen=True, order=True)
class FlowFinding:
    """One flow-analysis finding, sortable into report order."""

    path: str
    line: int
    col: int
    rule_id: str
    message: str
    #: Call chain justifying the finding, outermost first.
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


def evaluate(program: Program) -> list[FlowFinding]:
    """Run every flow rule; returns deduplicated, sorted findings."""
    graph = CallGraph(program)
    taint = return_taint(program)
    events = event_kinds(program)
    stateful = state_closure(program, graph)
    findings: set[FlowFinding] = set()
    findings.update(_fela101(program, taint))
    findings.update(_fela102(program, stateful))
    findings.update(_fela103(program))
    findings.update(_fela104(program, events))
    findings.update(_fela105(program))
    return sorted(findings)


# -- FELA101 -----------------------------------------------------------------


def _fela101(
    program: Program, taint: _t.Any
) -> _t.Iterator[FlowFinding]:
    for qualname in sorted(program.functions):
        facts = program.functions[qualname]
        if not in_packages(facts.module, SIM_PACKAGES):
            continue
        for sink in facts.sinks:
            if sink.sink != "sim-time":
                continue
            kinds = resolve_atoms(sink.atoms, program, taint)
            for kind in sorted(kinds):
                chain = kinds[kind]
                yield FlowFinding(
                    path=facts_path(program, facts),
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
) -> _t.Iterator[FlowFinding]:
    for qualname in sorted(program.functions):
        facts = program.functions[qualname]
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
            yield FlowFinding(
                path=facts_path(program, facts),
                line=loop.line,
                col=loop.col,
                rule_id="FELA102",
                message=message,
                trace=(qualname,) + ((via,) if via else ()),
            )


# -- FELA103 -----------------------------------------------------------------


def _fela103(program: Program) -> _t.Iterator[FlowFinding]:
    for qualname in sorted(program.functions):
        facts = program.functions[qualname]
        for ctor in facts.ctors:
            if not program.derives_from(ctor.callee, JOBSPEC_ROOTS):
                continue
            for bad in ctor.bad:
                yield FlowFinding(
                    path=facts_path(program, facts),
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


def _fela104(
    program: Program, events: dict[str, str]
) -> _t.Iterator[FlowFinding]:
    for qualname in sorted(program.functions):
        facts = program.functions[qualname]
        if not facts.is_generator:
            continue
        for yielded in facts.yields_:
            message: str | None = None
            trace: tuple[str, ...] = (qualname,)
            if yielded.kind in ("value", "set"):
                message = (
                    "sim process yields a plain value on this path; "
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
                yield FlowFinding(
                    path=facts_path(program, facts),
                    line=yielded.line,
                    col=yielded.col,
                    rule_id="FELA104",
                    message=message,
                    trace=trace,
                )


# -- FELA105 -----------------------------------------------------------------


def _fela105(program: Program) -> _t.Iterator[FlowFinding]:
    for qualname in sorted(program.functions):
        facts = program.functions[qualname]
        if not facts.is_generator:
            continue
        if not in_packages(facts.module, SIM_PACKAGES):
            continue
        for acquire in facts.acquires:
            if acquire.released:
                continue
            yield FlowFinding(
                path=facts_path(program, facts),
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


def facts_path(program: Program, facts: _t.Any) -> str:
    """File path owning a function (module facts carry the path)."""
    for module in program.modules:
        if module.module == facts.module:
            return module.path
    return facts.module  # pragma: no cover - defensive
