"""The whole-program model: symbol table, call graph, fixed points.

The engine hands every file's :class:`~repro.analysis.facts.ModuleFacts`
to a :class:`Program`, which builds the project-wide function/class
tables and resolves the symbolic facts the per-file pass left behind:

* :func:`return_taint` — which nondeterminism kinds each function's
  return value can carry, with the call chain that carries them
  (interprocedural taint propagation to a fixed point);
* :func:`event_kinds` — whether each function's return is an Event, a
  plain value, or a mix (drives the flow-sensitive FELA104);
* :func:`state_closure` — which functions transitively mutate
  scheduling-order-sensitive simulation state (drives FELA102).

All fixed points iterate over sorted function names, so results are
deterministic regardless of input file order.
"""

from __future__ import annotations

import typing as _t

from repro.analysis.facts import (
    CONCRETE_KINDS,
    ClassFacts,
    FunctionFacts,
    ModuleFacts,
)

#: Base classes that make a constructor a parallel-sweep job (FELA103).
JOBSPEC_ROOTS = frozenset({"JobSpec"})

#: Base classes that make a value a simulation event (FELA104).
EVENT_ROOTS = frozenset({"Event"})


class Program:
    """Symbol tables over every analyzed module."""

    def __init__(self, modules: _t.Iterable[ModuleFacts]) -> None:
        self.modules: list[ModuleFacts] = sorted(
            modules, key=lambda m: m.path
        )
        #: Every function definition, sorted by qualname.  Definitions
        #: that share a qualname (a function redefined in one scope) all
        #: stay: each is analyzed, and a call to the name may reach any.
        self.definitions: list[FunctionFacts] = sorted(
            (function for module in self.modules for function in module.functions),
            key=lambda function: function.qualname,
        )
        #: qualname -> its first definition (the name table for resolution)
        self.functions: dict[str, FunctionFacts] = {}
        for function in self.definitions:
            self.functions.setdefault(function.qualname, function)
        self.classes: dict[str, ClassFacts] = {}
        #: bare class name -> qualnames (for resolving unqualified bases)
        self._class_names: dict[str, list[str]] = {}
        for module in self.modules:
            for cls in module.classes:
                self.classes[cls.qualname] = cls
                self._class_names.setdefault(
                    cls.qualname.rsplit(".", 1)[-1], []
                ).append(cls.qualname)

    # -- resolution -----------------------------------------------------------

    def resolve_function(self, name: str) -> FunctionFacts | None:
        """A callee name to its facts, following method inheritance.

        ``mod.Class.meth`` falls back to the first base class (in MRO
        order) that defines ``meth`` when the class itself does not.
        """
        found = self.functions.get(name)
        if found is not None:
            return found
        if "." not in name:
            return None
        owner, method = name.rsplit(".", 1)
        cls = self.classes.get(owner)
        if cls is None:
            return None
        for base in self._iter_bases(owner):
            candidate = self.functions.get(f"{base}.{method}")
            if candidate is not None:
                return candidate
        return None

    def _resolve_class(self, name: str) -> str | None:
        if name in self.classes:
            return name
        candidates = self._class_names.get(name.rsplit(".", 1)[-1])
        if candidates and len(candidates) == 1:
            return candidates[0]
        return None

    def _iter_bases(self, qualname: str) -> _t.Iterator[str]:
        """All transitive base classes of ``qualname`` (DFS, cycle-safe)."""
        seen: set[str] = set()
        stack = [qualname]
        while stack:
            current = stack.pop()
            cls = self.classes.get(current)
            if cls is None:
                continue
            for base in cls.bases:
                resolved = self._resolve_class(base) or base
                if resolved not in seen:
                    seen.add(resolved)
                    yield resolved
                    stack.append(resolved)

    def derives_from(self, qualname: str, roots: frozenset[str]) -> bool:
        """Whether a class transitively inherits from any root name."""
        resolved = self._resolve_class(qualname)
        if resolved is None:
            return qualname.rsplit(".", 1)[-1] in roots
        if resolved.rsplit(".", 1)[-1] in roots:
            return True
        return any(
            base.rsplit(".", 1)[-1] in roots
            for base in self._iter_bases(resolved)
        )


class CallGraph:
    """Resolved caller -> callee edges over the program."""

    def __init__(self, program: Program) -> None:
        self.successors: dict[str, set[str]] = {}
        for function in program.definitions:
            edges = self.successors.setdefault(function.qualname, set())
            for call in function.calls:
                callee = program.resolve_function(call)
                if callee is not None:
                    edges.add(callee.qualname)


TaintMap = dict[str, dict[str, tuple[str, ...]]]


def return_taint(program: Program) -> TaintMap:
    """Nondeterminism kinds carried by each function's return value.

    Returns ``{qualname: {kind: chain}}`` where ``chain`` is the call
    path from the function down to the source, e.g. ``("a.f", "a.g")``
    meaning ``f`` returns taint because it returns ``g()`` and ``g``
    reads the source directly.
    """
    taint: TaintMap = {qualname: {} for qualname in program.functions}
    for facts in program.definitions:
        for atom in facts.return_atoms:
            if atom in CONCRETE_KINDS:
                taint[facts.qualname][atom] = (facts.qualname,)
    changed = True
    while changed:
        changed = False
        for facts in program.definitions:
            qualname = facts.qualname
            for atom in facts.return_atoms:
                if not atom.startswith("call:"):
                    continue
                callee = program.resolve_function(atom[len("call:"):])
                if callee is None:
                    continue
                for kind, chain in sorted(
                    taint.get(callee.qualname, {}).items()
                ):
                    if kind not in taint[qualname] and qualname not in chain:
                        taint[qualname][kind] = (qualname, *chain)
                        changed = True
    return taint


def resolve_atoms(
    atoms: _t.Iterable[str], program: Program, taint: TaintMap
) -> dict[str, tuple[str, ...]]:
    """Concrete kinds (with chains) carried by a set of taint atoms."""
    kinds: dict[str, tuple[str, ...]] = {}
    for atom in atoms:
        if atom in CONCRETE_KINDS:
            kinds.setdefault(atom, ())
        elif atom.startswith("call:"):
            callee = program.resolve_function(atom[len("call:"):])
            if callee is None:
                continue
            for kind, chain in sorted(taint.get(callee.qualname, {}).items()):
                if kind not in kinds or not kinds[kind]:
                    kinds[kind] = chain
    return kinds


def event_kinds(program: Program) -> dict[str, str]:
    """Per-function return classification for FELA104.

    ``"event"``: every return is an Event; ``"value"``: at least one
    return is a definite non-Event and none is unresolvable;
    ``"mixed"``: both; ``"unknown"``: cannot tell (no flag is raised on
    unknowns — the rule only fires on certainty).
    """
    VALUE_KINDS = {"value", "set", "none", "param"}
    # qualname -> (has_event, has_value, has_unknown) over all its
    # definitions' returns
    state: dict[str, tuple[bool, bool, bool]] = {}
    for facts in program.definitions:
        has_event, has_value, has_unknown = state.get(
            facts.qualname, (False, False, False)
        )
        for kind in facts.returns:
            if kind == "event":
                has_event = True
            elif kind in VALUE_KINDS:
                has_value = True
            elif kind.startswith("class:"):
                target = kind[len("class:"):]
                if program.derives_from(target, EVENT_ROOTS):
                    has_event = True
                elif target in program.classes:
                    has_value = True
                else:
                    has_unknown = True
            elif kind.startswith("call:"):
                pass  # resolved below
            else:
                has_unknown = True
        state[facts.qualname] = (has_event, has_value, has_unknown)
    changed = True
    while changed:
        changed = False
        for facts in program.definitions:
            qualname = facts.qualname
            has_event, has_value, has_unknown = state[qualname]
            for kind in facts.returns:
                if not kind.startswith("call:"):
                    continue
                callee = program.resolve_function(kind[len("call:"):])
                if callee is None:
                    if not has_unknown:
                        has_unknown = True
                else:
                    other = state.get(
                        callee.qualname, (False, False, True)
                    )
                    has_event = has_event or other[0]
                    has_value = has_value or other[1]
                    has_unknown = has_unknown or other[2]
            if state[qualname] != (has_event, has_value, has_unknown):
                state[qualname] = (has_event, has_value, has_unknown)
                changed = True
    result = {}
    for qualname, (has_event, has_value, has_unknown) in sorted(state.items()):
        if has_event and has_value:
            result[qualname] = "mixed"
        elif has_event and not has_unknown:
            result[qualname] = "event"
        elif has_value and not has_unknown and not has_event:
            result[qualname] = "value"
        else:
            result[qualname] = "unknown"
    return result


def state_closure(program: Program, graph: CallGraph) -> set[str]:
    """Functions that (transitively) mutate scheduling-order state."""
    closure = {
        facts.qualname
        for facts in program.definitions
        if facts.touches_state
    }
    changed = True
    while changed:
        changed = False
        for qualname in sorted(program.functions):
            if qualname in closure:
                continue
            if graph.successors.get(qualname, set()) & closure:
                closure.add(qualname)
                changed = True
    return closure
