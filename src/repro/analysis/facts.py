"""Per-file fact extraction: the one parse every rule works from.

One parse of one file produces a :class:`ModuleFacts` — a pure function
of the file's text.  Facts are *local*: calls are recorded as
best-effort dotted names, taint that depends on a callee's behaviour is
recorded symbolically (``call:<name>`` atoms), and the global phase
(:mod:`repro.analysis.callgraph`) resolves the symbols against the
whole-program function table.

The intra-function walk is a light abstract interpreter: statements are
visited in order, every local variable carries a set of *taint atoms*
(where its value may have come from) plus a *value kind* (what shape of
thing it is — an Event, a set, an unpicklable object, a call result).
Branches are merged by union, which over-approximates safely for the
whole-program rules built on top.  Module-level code, class bodies,
nested functions and lambdas are walked the same way, so every call in
the file is resolved exactly once; the calls and syntax the per-file
rules judge on their own are kept as :class:`SiteFact` records.

Taint atoms
    ``wall-clock``      a host clock read (``time.time`` family)
    ``host-env``        process environment (``os.environ``, ``uuid``,
                        ``id()``, pids, hostnames)
    ``unseeded-rng``    global-state or seedless RNG draws
    ``call:<name>``     the return taint of ``<name>`` (resolved later)
    ``param:<name>``    a function parameter (dropped at the top level)

Value kinds
    ``event``                   an Event from the sim kernel
    ``set``                     an unordered iterable
    ``value``                   a plain scalar/container (dict views
                                included: they iterate in insertion
                                order)
    ``call:<n>`` / ``class:<n>``  resolved call/constructor results
    ``unpicklable:<why>``       lambdas, open files, generators, locks
    ``unknown``                 anything the walk cannot classify
"""

from __future__ import annotations

import ast
import dataclasses
import typing as _t

KIND_WALL = "wall-clock"
KIND_ENV = "host-env"
KIND_RNG = "unseeded-rng"
CONCRETE_KINDS = frozenset({KIND_WALL, KIND_ENV, KIND_RNG})

#: Site kinds beyond the taint kinds (a ``KIND_RNG`` site is a
#: global-state draw, a ``KIND_WALL`` site a host clock read).
SITE_POOL_CALL = "pool-call"
SITE_POOL_IMPORT = "pool-import"
SITE_POOL_IMPORT_FROM = "pool-import-from"
SITE_MUTABLE_DEFAULT = "mutable-default"
SITE_FLOAT_EQ = "float-eq"

#: Callables that read the host's wall clock.
_WALL_CLOCK = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "time.process_time",
        "time.process_time_ns",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
    }
)

#: Calls that read the process environment / host identity.
_ENV_CALLS = frozenset(
    {
        "os.getenv",
        "os.urandom",
        "os.getpid",
        "os.getppid",
        "uuid.uuid1",
        "uuid.uuid3",
        "uuid.uuid4",
        "uuid.uuid5",
        "socket.gethostname",
        "platform.node",
    }
)

#: Environment-method names that construct events.
_EVENT_FACTORIES = frozenset(
    {"timeout", "event", "process", "all_of", "any_of"}
)

#: Attribute calls that mutate scheduling-order-sensitive state.
_STATE_ATTRS = frozenset(
    {
        "schedule",
        "succeed",
        "process",
        "record_assignment",
        "record_completion",
        "transfer_holding",
        "provision_worker",
        "request_token",
        "report_completion",
    }
)

#: Resolved callables that mutate scheduler state directly.
_STATE_CALLS = frozenset({"heapq.heappush", "heapq.heappop"})

#: Set-producing attribute calls.
_SET_METHODS = frozenset(
    {"union", "intersection", "difference", "symmetric_difference"}
)

#: Consumers whose output does not depend on input iteration order, so
#: an unordered iterable inside them is benign.
_ORDER_SAFE_CONSUMERS = frozenset(
    {"sorted", "sum", "min", "max", "any", "all", "len", "set",
     "frozenset", "Counter"}
)

#: Receiver names treated as the simulation environment.
_ENV_RECEIVERS = frozenset({"env", "environment"})

#: Module prefixes that spawn OS processes or threads directly.
_PROCESS_POOL_MODULES = ("multiprocessing", "concurrent.futures")

#: Displays and zero-argument constructors that build a fresh mutable
#: container (a shared one when used as a default argument).
_MUTABLE_DISPLAYS = (
    ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp
)
_MUTABLE_CONSTRUCTORS = frozenset({"list", "dict", "set", "bytearray"})


def _is_pool_module(dotted: str) -> bool:
    return any(
        dotted == mod or dotted.startswith(mod + ".")
        for mod in _PROCESS_POOL_MODULES
    )


def _is_mutable(node: ast.expr) -> bool:
    if isinstance(node, _MUTABLE_DISPLAYS):
        return True
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in _MUTABLE_CONSTRUCTORS
        and not node.args
        and not node.keywords
    )


def module_name(path: str) -> str:
    """Dotted module name derived from a file path.

    The name starts at the *last* ``repro`` path component, so both
    ``src/repro/sim/core.py`` and a test-fixture tree like
    ``tests/.../fixtures/src/repro/sim/core.py`` map to
    ``repro.sim.core``.  Files outside a ``repro`` tree get their bare
    stem, which no package-scoped rule ever matches.
    """
    parts = path.replace("\\", "/").split("/")
    if parts and parts[-1].endswith(".py"):
        parts[-1] = parts[-1][: -len(".py")]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    if "repro" in parts:
        parts = parts[len(parts) - 1 - parts[::-1].index("repro"):]
    else:
        parts = parts[-1:]
    return ".".join(parts)


def _unparse(node: ast.AST, limit: int = 60) -> str:
    try:
        text = ast.unparse(node)
    except Exception:  # pragma: no cover - defensive
        text = type(node).__name__
    return text if len(text) <= limit else text[: limit - 1] + "…"


# ---------------------------------------------------------------------------
# Fact records.
# ---------------------------------------------------------------------------


@dataclasses.dataclass
class SinkFact:
    """A value flowing into a determinism-sensitive sink argument."""

    sink: str  # "sim-time"
    detail: str  # e.g. "env.timeout"
    line: int
    col: int
    atoms: list[str]


@dataclasses.dataclass
class LoopFact:
    """An iteration over an unordered set."""

    line: int
    col: int
    desc: str  # source text of the iterable
    body_calls: list[str]
    body_sink: bool


@dataclasses.dataclass
class YieldFact:
    """One classified ``yield`` inside a generator."""

    line: int
    col: int
    kind: str  # value kind of the yielded expression


@dataclasses.dataclass
class AcquireFact:
    """A resource request bound to a name inside a generator."""

    line: int
    col: int
    var: str
    receiver: str
    released: bool


@dataclasses.dataclass
class BadArg:
    """A suspicious constructor argument."""

    param: str
    reason: str  # "lambda", "open-file", "unseeded-rng", ...


@dataclasses.dataclass
class CtorFact:
    """A constructor call carrying at least one suspicious argument."""

    callee: str
    line: int
    col: int
    bad: list[BadArg]


@dataclasses.dataclass(frozen=True)
class SiteFact:
    """One site a per-file rule judges on its own.

    ``kind`` is a host clock read (``KIND_WALL``), a global-state RNG
    draw (``KIND_RNG``), or one of the ``SITE_*`` kinds; ``detail`` is
    the resolved callee, the imported module, or the float literal.
    """

    kind: str
    detail: str
    line: int
    col: int


@dataclasses.dataclass
class FunctionFacts:
    """Everything the global phase needs to know about one function."""

    qualname: str
    module: str
    path: str
    is_generator: bool
    touches_state: bool
    returns: list[str]  # value kinds of return expressions
    return_atoms: list[str]  # taint atoms of return expressions
    calls: list[str]  # resolved callee names
    sinks: list[SinkFact]
    loops: list[LoopFact]
    yields_: list[YieldFact]
    acquires: list[AcquireFact]
    ctors: list[CtorFact]


@dataclasses.dataclass
class ClassFacts:
    """One class definition: name and resolved bases."""

    qualname: str
    bases: list[str]


@dataclasses.dataclass
class ModuleFacts:
    """All facts extracted from one file."""

    path: str
    module: str
    functions: list[FunctionFacts] = dataclasses.field(default_factory=list)
    classes: list[ClassFacts] = dataclasses.field(default_factory=list)
    sites: list[SiteFact] = dataclasses.field(default_factory=list)


# ---------------------------------------------------------------------------
# Name resolution.
# ---------------------------------------------------------------------------


def _statements(body: _t.Iterable[ast.AST]) -> _t.Iterator[ast.AST]:
    """Every statement nested in ``body`` (imports are statements, so
    expression subtrees need no walk)."""
    for stmt in body:
        yield stmt
        for field in ("body", "orelse", "finalbody", "handlers", "cases"):
            inner = getattr(stmt, field, ())
            if isinstance(inner, list):
                yield from _statements(inner)


def _scope_defs(
    body: _t.Iterable[ast.AST],
) -> _t.Iterator[ast.FunctionDef | ast.AsyncFunctionDef | ast.ClassDef]:
    """The defs that bind names in ``body``'s own scope: those under
    ``if``/``try``/``with``/loops too, but none inside a nested def."""
    for stmt in body:
        if isinstance(
            stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        ):
            yield stmt
            continue
        for field in ("body", "orelse", "finalbody", "handlers", "cases"):
            inner = getattr(stmt, field, ())
            if isinstance(inner, list):
                yield from _scope_defs(inner)


class Resolver:
    """Best-effort dotted-name resolution for one module.

    Combines the import table (absolute *and* relative imports), the
    module's own module-level definitions (including those under a
    module-level ``if`` or ``try``), and ``self.x`` method access inside
    classes.  Anything unresolvable returns ``None``.
    """

    def __init__(self, module: str, tree: ast.Module) -> None:
        self.module = module
        self.imports: dict[str, str] = {}
        self.module_defs: dict[str, str] = {}
        for node in _statements(tree.body):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    self.imports[alias.asname or alias.name.split(".")[0]] = (
                        alias.name
                        if alias.asname
                        else alias.name.split(".")[0]
                    )
            elif isinstance(node, ast.ImportFrom):
                base = node.module or ""
                if node.level:
                    # Resolve "from .x import y" against this module's
                    # package so project-internal helpers join the table.
                    anchor = module.split(".")
                    anchor = anchor[: len(anchor) - (node.level - 1) - 1]
                    base = ".".join(anchor + ([node.module]
                                              if node.module else []))
                if not base:
                    continue
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    self.imports[alias.asname or alias.name] = (
                        f"{base}.{alias.name}"
                    )
        for stmt in _scope_defs(tree.body):
            self.module_defs[stmt.name] = f"{module}.{stmt.name}"

    def resolve(
        self,
        node: ast.AST,
        cls: str | None = None,
        shadowed: _t.Container[str] = (),
    ) -> str | None:
        """Dotted origin of a name/attribute chain, or ``None``."""
        if isinstance(node, ast.Name):
            if node.id in shadowed:
                return None
            if node.id in self.imports:
                return self.imports[node.id]
            return self.module_defs.get(node.id)
        if isinstance(node, ast.Attribute):
            if (
                cls is not None
                and isinstance(node.value, ast.Name)
                and node.value.id == "self"
            ):
                return f"{cls}.{node.attr}"
            base = self.resolve(node.value, cls, shadowed)
            if base is None:
                return None
            return f"{base}.{node.attr}"
        return None


# ---------------------------------------------------------------------------
# The intra-function walk.
# ---------------------------------------------------------------------------


def _is_env_receiver(node: ast.AST) -> bool:
    """Whether an attribute call's receiver is the sim environment."""
    if isinstance(node, ast.Name):
        return node.id in _ENV_RECEIVERS
    if isinstance(node, ast.Attribute):
        return node.attr in _ENV_RECEIVERS or node.attr in ("_env",)
    return False


#: The value kind of a name bound by a nested ``def``.
_NESTED_FUNCTION = "unpicklable:nested-function"

#: A scope nested in another: its decorators and defaults belong to the
#: enclosing scope, its body to itself.
_Scope = _t.Union[
    ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda
]


class _FunctionScan:
    """One pass over one scope's body, accumulating facts.

    A function's facts join ``out.functions``.  Module-level code, class
    bodies and lambdas are walked the same way, but only their sites
    (and the scopes nested in them) are kept.
    """

    def __init__(
        self,
        func: ast.Module | _Scope,
        resolver: Resolver,
        qualname: str,
        cls: str | None,
        sim_scope: bool,
        out: ModuleFacts,
        local_defs: _t.Mapping[str, str],
    ) -> None:
        self.func = func
        self.resolver = resolver
        self.qualname = qualname
        self.cls = cls
        self.sim_scope = sim_scope
        self.out = out
        #: name -> qualname of the functions defined in this scope and
        #: the enclosing function scopes (a closure can call them).
        self.local_defs = dict(local_defs)
        #: var name (or "recv.attr" pseudo-name) -> (atoms, kind)
        self.env: dict[str, tuple[frozenset[str], str]] = {}
        self.params: set[str] = set()
        self.calls: list[str] = []
        self.sinks: list[SinkFact] = []
        self.loops: list[LoopFact] = []
        self.yields_: list[YieldFact] = []
        self.acquires: list[AcquireFact] = []
        self.ctors: list[CtorFact] = []
        self.returns: list[str] = []
        self.return_atoms: set[str] = set()
        self.touches_state = False
        self.is_generator = False

    # -- entry point ---------------------------------------------------------

    def scan(self) -> None:
        func = self.func
        if isinstance(func, (ast.Module, ast.ClassDef)):
            self.visit_stmts(func.body)
            return
        args = func.args
        for arg in (
            args.posonlyargs + args.args + args.kwonlyargs
            + ([args.vararg] if args.vararg else [])
            + ([args.kwarg] if args.kwarg else [])
        ):
            self.params.add(arg.arg)
            self.env[arg.arg] = (
                frozenset({f"param:{arg.arg}"}), "param"
            )
        if isinstance(func, ast.Lambda):
            self.expr(func.body)
            return
        for stmt in _scope_defs(func.body):
            if not isinstance(stmt, ast.ClassDef):
                self.local_defs[stmt.name] = f"{self.qualname}.{stmt.name}"
        self.visit_stmts(func.body)
        returns = sorted(set(self.returns))
        self.out.functions.append(FunctionFacts(
            qualname=self.qualname,
            module=self.resolver.module,
            path=self.out.path,
            is_generator=self.is_generator,
            touches_state=self.touches_state,
            returns=returns,
            return_atoms=sorted(self.return_atoms),
            calls=self.calls,
            sinks=self.sinks,
            loops=self.loops,
            yields_=self.yields_,
            acquires=self.acquires,
            ctors=self.ctors,
        ))

    def _nested(self, node: _Scope, name: str, cls: str | None) -> None:
        """Evaluate a nested scope's decorators and defaults here, then
        scan its body as its own scope."""
        if not isinstance(node, ast.Lambda):
            for decorator in node.decorator_list:
                self.expr(decorator)
        if not isinstance(node, ast.ClassDef):
            for default in node.args.defaults + node.args.kw_defaults:
                if default is None:
                    continue
                if _is_mutable(default):
                    self._site(SITE_MUTABLE_DEFAULT, "", default)
                self.expr(default)
        _FunctionScan(
            node, self.resolver, f"{self.qualname}.{name}", cls,
            self.sim_scope, self.out, self.local_defs,
        ).scan()

    def _site(
        self, kind: str, detail: str, node: ast.expr | ast.stmt
    ) -> None:
        self.out.sites.append(
            SiteFact(kind, detail, node.lineno, node.col_offset + 1)
        )

    # -- statements ----------------------------------------------------------

    def visit_stmts(self, stmts: _t.Sequence[ast.stmt]) -> None:
        for stmt in stmts:
            self.visit_stmt(stmt)

    def visit_stmt(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, ast.Assign):
            atoms, kind = self.expr(stmt.value)
            self._record_acquire(stmt)
            for target in stmt.targets:
                self._bind(target, atoms, kind)
        elif isinstance(stmt, ast.AnnAssign):
            if stmt.value is not None:
                atoms, kind = self.expr(stmt.value)
                self._bind(stmt.target, atoms, kind)
        elif isinstance(stmt, ast.AugAssign):
            atoms, _ = self.expr(stmt.value)
            if isinstance(stmt.target, ast.Name):
                old = self.env.get(
                    stmt.target.id, (frozenset(), "unknown")
                )
                self.env[stmt.target.id] = (old[0] | atoms, old[1])
            else:
                self.expr(stmt.target)
        elif isinstance(stmt, ast.Return):
            if stmt.value is None:
                self.returns.append("none")
            else:
                atoms, kind = self.expr(stmt.value)
                self.returns.append(kind)
                self.return_atoms |= atoms
        elif isinstance(stmt, ast.Expr):
            self.expr(stmt.value)
        elif isinstance(stmt, ast.If):
            self.expr(stmt.test)
            self.visit_stmts(stmt.body)
            self.visit_stmts(stmt.orelse)
        elif isinstance(stmt, ast.For):
            self._visit_for(stmt)
        elif isinstance(stmt, ast.While):
            self.expr(stmt.test)
            self.visit_stmts(stmt.body)
            self.visit_stmts(stmt.orelse)
        elif isinstance(stmt, ast.With):
            self._visit_with(stmt)
        elif isinstance(stmt, ast.Try):
            self.visit_stmts(stmt.body)
            for handler in stmt.handlers:
                self.visit_stmts(handler.body)
            self.visit_stmts(stmt.orelse)
            self.visit_stmts(stmt.finalbody)
        elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            # A nested def is its own function (a method inside a class
            # body); a reference to it is an unpicklable capture.
            self._nested(stmt, stmt.name, self.cls)
            self.env[stmt.name] = (frozenset(), _NESTED_FUNCTION)
        elif isinstance(stmt, ast.ClassDef):
            for node in stmt.bases + [k.value for k in stmt.keywords]:
                self.expr(node)
            qualname = f"{self.qualname}.{stmt.name}"
            bases = [
                base
                for base in (
                    self.resolver.resolve(b) or (
                        b.id if isinstance(b, ast.Name) else None
                    )
                    for b in stmt.bases
                )
                if base is not None
            ]
            self.out.classes.append(
                ClassFacts(qualname=qualname, bases=bases)
            )
            self._nested(stmt, stmt.name, qualname)
        elif isinstance(stmt, ast.Import):
            for alias in stmt.names:
                if _is_pool_module(alias.name):
                    self._site(SITE_POOL_IMPORT, alias.name, stmt)
        elif isinstance(stmt, ast.ImportFrom):
            if stmt.level == 0 and stmt.module and _is_pool_module(
                stmt.module
            ):
                self._site(SITE_POOL_IMPORT_FROM, stmt.module, stmt)
        else:
            # raise / assert / delete / match / async forms: no facts of
            # their own, but their expressions still run.
            self._visit_children(stmt)

    def _visit_children(self, node: ast.AST) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.expr):
                self.expr(child)
            elif isinstance(child, ast.stmt):
                self.visit_stmt(child)
            else:
                self._visit_children(child)

    def _bind(self, target: ast.expr, atoms: frozenset[str], kind: str) -> None:
        if isinstance(target, ast.Name):
            self.env[target.id] = (atoms, kind)
        elif isinstance(target, ast.Attribute):
            # Track "self.x"-style pseudo-names within this function so
            # a later read of the same attribute sees the taint.
            self.env[_unparse(target)] = (atoms, kind)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._bind(element, atoms, "unknown")
        elif isinstance(target, ast.Subscript):
            self.expr(target)

    def _visit_for(self, stmt: ast.For) -> None:
        atoms, kind = self.expr(stmt.iter)
        fact: LoopFact | None = None
        if kind == "set":
            fact = LoopFact(
                line=stmt.lineno,
                col=stmt.col_offset + 1,
                desc=_unparse(stmt.iter),
                body_calls=[],
                body_sink=False,
            )
        self._bind(stmt.target, atoms, "unknown")
        calls_before = len(self.calls)
        sinks_before = len(self.sinks)
        state_before = self.touches_state
        self.visit_stmts(stmt.body)
        self.visit_stmts(stmt.orelse)
        if fact is not None:
            fact.body_calls = sorted(
                set(self.calls[calls_before:])
            )
            fact.body_sink = (
                len(self.sinks) > sinks_before
                or (self.touches_state and not state_before)
            )
            self.loops.append(fact)

    def _visit_with(self, stmt: ast.With) -> None:
        for item in stmt.items:
            value = item.context_expr
            if (
                isinstance(value, ast.Call)
                and isinstance(value.func, ast.Attribute)
                and value.func.attr in ("request", "acquire")
            ):
                # `with resource.request() as req:` releases on exit.
                if item.optional_vars is not None:
                    self._bind(item.optional_vars, frozenset(), "event")
                self.expr(value)
                continue
            atoms, kind = self.expr(value)
            if item.optional_vars is not None:
                self._bind(item.optional_vars, atoms, kind)
        self.visit_stmts(stmt.body)

    def _record_acquire(self, stmt: ast.Assign) -> None:
        value = stmt.value
        if not (
            isinstance(value, ast.Call)
            and isinstance(value.func, ast.Attribute)
            and value.func.attr in ("request", "acquire")
        ):
            return
        if len(stmt.targets) != 1 or not isinstance(
            stmt.targets[0], ast.Name
        ):
            return
        self.acquires.append(
            AcquireFact(
                line=stmt.lineno,
                col=stmt.col_offset + 1,
                var=stmt.targets[0].id,
                receiver=_unparse(value.func.value),
                released=False,
            )
        )

    def _record_release(self, call: ast.Call) -> None:
        assert isinstance(call.func, ast.Attribute)
        receiver = _unparse(call.func.value)
        released_vars = {
            _unparse(arg) for arg in call.args if isinstance(arg, ast.Name)
        }
        for acquire in self.acquires:
            if call.func.attr == "cancel" and acquire.var == receiver:
                acquire.released = True
            elif call.func.attr in ("release", "put") and (
                acquire.receiver == receiver or acquire.var in released_vars
            ):
                acquire.released = True

    # -- expressions ---------------------------------------------------------

    def expr(
        self, node: ast.expr, order_safe: bool = False
    ) -> tuple[frozenset[str], str]:
        """(taint atoms, value kind) of an expression, recording facts."""
        if isinstance(node, ast.Constant):
            return frozenset(), "value"
        if isinstance(node, ast.Name):
            if node.id in self.env:
                return self.env[node.id]
            return frozenset(), "unknown"
        if isinstance(node, ast.Lambda):
            self._nested(node, "<lambda>", self.cls)
            return frozenset(), "unpicklable:lambda"
        if isinstance(node, ast.Call):
            return self._call(node, order_safe)
        if isinstance(node, ast.Attribute):
            resolved = self.resolver.resolve(
                node, self.cls, self.env.keys() | self.params
            )
            if resolved == "os.environ":
                return frozenset({KIND_ENV}), "value"
            pseudo = _unparse(node)
            if pseudo in self.env:
                return self.env[pseudo]
            atoms, _ = self.expr(node.value)
            return atoms, "unknown"
        if isinstance(node, ast.Subscript):
            atoms, _ = self.expr(node.value)
            if isinstance(node.slice, ast.expr):
                more, _ = self.expr(node.slice)
                atoms = atoms | more
            resolved = self.resolver.resolve(
                node.value, self.cls, self.env.keys() | self.params
            )
            if resolved == "os.environ":
                atoms = atoms | {KIND_ENV}
            return atoms, "unknown"
        if isinstance(node, ast.BinOp):
            left_atoms, left_kind = self.expr(node.left, order_safe)
            right_atoms, right_kind = self.expr(node.right, order_safe)
            kind = "value"
            if isinstance(
                node.op, (ast.BitOr, ast.BitAnd, ast.BitXor, ast.Sub)
            ) and "set" in (left_kind, right_kind):
                kind = "set"
            return left_atoms | right_atoms, kind
        if isinstance(node, ast.Set):
            atoms = frozenset()
            for element in node.elts:
                more, _ = self.expr(element)
                atoms = atoms | more
            return atoms, "set"
        if isinstance(node, ast.SetComp):
            return self._comprehension(node, order_safe), "set"
        if isinstance(node, ast.GeneratorExp):
            return (
                self._comprehension(node, order_safe),
                "unpicklable:generator-expression",
            )
        if isinstance(node, (ast.ListComp, ast.DictComp)):
            return self._comprehension(node, order_safe), "value"
        if isinstance(node, (ast.List, ast.Tuple, ast.Dict)):
            atoms = frozenset()
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.expr):
                    more, _ = self.expr(child, order_safe)
                    atoms = atoms | more
            return atoms, "value"
        if isinstance(node, ast.YieldFrom):
            self.is_generator = True
            self.expr(node.value)
            return frozenset(), "unknown"
        if isinstance(node, ast.Yield):
            # A bare ``yield`` hands the kernel None.
            self.is_generator = True
            kind = "none"
            if node.value is not None:
                _, kind = self.expr(node.value)
            if self.sim_scope:
                self.yields_.append(
                    YieldFact(
                        line=node.lineno, col=node.col_offset + 1, kind=kind
                    )
                )
            return frozenset(), "unknown"
        if isinstance(node, ast.Await):
            return self.expr(node.value, order_safe)
        if isinstance(node, ast.Starred):
            return self.expr(node.value, order_safe)
        if isinstance(node, ast.IfExp):
            self.expr(node.test)
            body_atoms, body_kind = self.expr(node.body, order_safe)
            else_atoms, else_kind = self.expr(node.orelse, order_safe)
            kind = body_kind if body_kind == else_kind else "unknown"
            return body_atoms | else_atoms, kind
        # BoolOp, Compare, UnaryOp, JoinedStr, FormattedValue, Slice...
        if isinstance(node, ast.Compare):
            self._float_equality(node)
        atoms = frozenset()
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.expr):
                more, _ = self.expr(child, order_safe)
                atoms = atoms | more
        return atoms, "value"

    def _float_equality(self, node: ast.Compare) -> None:
        operands = [node.left, *node.comparators]
        for op, pair in zip(node.ops, zip(operands, operands[1:])):
            if not isinstance(op, (ast.Eq, ast.NotEq)):
                continue
            for operand in pair:
                if isinstance(operand, ast.Constant) and isinstance(
                    operand.value, float
                ):
                    self._site(SITE_FLOAT_EQ, repr(operand.value), node)
                    break

    def _comprehension(
        self,
        node: ast.SetComp | ast.ListComp | ast.DictComp | ast.GeneratorExp,
        order_safe: bool,
    ) -> frozenset[str]:
        atoms = frozenset()
        for gen in node.generators:
            iter_atoms, iter_kind = self.expr(gen.iter)
            atoms = atoms | iter_atoms
            # A set comprehension's result is itself unordered, so the
            # iteration order of its source can never escape it.
            if (
                iter_kind == "set"
                and not order_safe
                and not isinstance(node, ast.SetComp)
            ):
                calls_before = len(self.calls)
                sinks_before = len(self.sinks)
                fact = LoopFact(
                    line=gen.iter.lineno,
                    col=gen.iter.col_offset + 1,
                    desc=_unparse(gen.iter),
                    body_calls=[],
                    body_sink=False,
                )
                self._bind(gen.target, iter_atoms, "unknown")
                self._comprehension_body(node, atoms)
                fact.body_calls = sorted(
                    set(self.calls[calls_before:])
                )
                fact.body_sink = len(self.sinks) > sinks_before
                self.loops.append(fact)
                for condition in gen.ifs:
                    self.expr(condition)
                return atoms
            self._bind(gen.target, iter_atoms, "unknown")
            for condition in gen.ifs:
                self.expr(condition)
        self._comprehension_body(node, atoms)
        return atoms

    def _comprehension_body(
        self, node: ast.expr, atoms: frozenset[str]
    ) -> frozenset[str]:
        if isinstance(node, ast.DictComp):
            key_atoms, _ = self.expr(node.key)
            value_atoms, _ = self.expr(node.value)
            return atoms | key_atoms | value_atoms
        assert isinstance(
            node, (ast.SetComp, ast.ListComp, ast.GeneratorExp)
        )
        element_atoms, _ = self.expr(node.elt)
        return atoms | element_atoms

    # -- calls ----------------------------------------------------------------

    def _call(
        self, node: ast.Call, order_safe: bool
    ) -> tuple[frozenset[str], str]:
        func = node.func
        callee_name = (
            func.id if isinstance(func, ast.Name)
            else func.attr if isinstance(func, ast.Attribute)
            else None
        )
        args_safe = order_safe or (
            callee_name in _ORDER_SAFE_CONSUMERS
        )
        arg_info: list[tuple[str, frozenset[str], str]] = []
        for index, arg in enumerate(node.args):
            atoms, kind = self.expr(arg, args_safe)
            arg_info.append((f"arg{index}", atoms, kind))
        for keyword in node.keywords:
            atoms, kind = self.expr(keyword.value, args_safe)
            arg_info.append((keyword.arg or "**kwargs", atoms, kind))
        all_atoms = frozenset().union(
            *(atoms for _, atoms, _ in arg_info)
        ) if arg_info else frozenset()

        if isinstance(func, ast.Attribute):
            return self._attribute_call(node, func, arg_info, all_atoms)
        if isinstance(func, ast.Name):
            return self._name_call(node, func, arg_info, all_atoms)
        # Calls on arbitrary expressions (e.g. factory()(x)).
        self.expr(func)
        return all_atoms, "unknown"

    def _attribute_call(
        self,
        node: ast.Call,
        func: ast.Attribute,
        arg_info: list[tuple[str, frozenset[str], str]],
        all_atoms: frozenset[str],
    ) -> tuple[frozenset[str], str]:
        attr = func.attr
        env_recv = _is_env_receiver(func.value) or (
            self.cls is not None
            and self.cls.rsplit(".", 1)[-1] == "Environment"
            and isinstance(func.value, ast.Name)
            and func.value.id == "self"
        )
        if env_recv and attr in ("timeout", "schedule"):
            delay = self._delay_argument(node, attr)
            delay_atoms: frozenset[str] = frozenset()
            if delay is not None:
                delay_atoms, _ = self.expr(delay)
            self.sinks.append(
                SinkFact(
                    sink="sim-time",
                    detail=f"{_unparse(func.value)}.{attr}",
                    line=node.lineno,
                    col=node.col_offset + 1,
                    atoms=sorted(delay_atoms),
                )
            )
            self.touches_state = True
            return frozenset(), (
                "event" if attr == "timeout" else "value"
            )
        if env_recv and attr in _EVENT_FACTORIES:
            self.touches_state = self.touches_state or attr == "process"
            return frozenset(), "event"
        if attr in _STATE_ATTRS:
            self.touches_state = True
        if attr in ("release", "cancel", "put"):
            self._record_release(node)
        resolved = self.resolver.resolve(
            func, self.cls, self.env.keys() | self.params
        )
        if resolved is not None:
            known = self._resolved_call(node, resolved, arg_info, all_atoms)
            if known is not None:
                return known
            return (
                all_atoms | {f"call:{resolved}"}, f"call:{resolved}"
            )
        if attr in ("keys", "values", "items"):
            return all_atoms | self._receiver_atoms(func), "value"
        if attr in _SET_METHODS:
            return all_atoms | self._receiver_atoms(func), "set"
        if attr in ("request", "acquire"):
            return frozenset(), "event"
        if attr == "copy":
            recv_atoms, recv_kind = self.expr(func.value)
            return all_atoms | recv_atoms, recv_kind
        # Unresolved method call: taint flows from receiver and args.
        return all_atoms | self._receiver_atoms(func), "unknown"

    def _receiver_atoms(self, func: ast.Attribute) -> frozenset[str]:
        atoms, _ = self.expr(func.value)
        return atoms

    @staticmethod
    def _delay_argument(node: ast.Call, attr: str) -> ast.expr | None:
        for keyword in node.keywords:
            if keyword.arg == "delay":
                return keyword.value
        if attr == "timeout" and node.args:
            return node.args[0]
        if attr == "schedule" and len(node.args) >= 3:
            return node.args[2]
        return None

    def _name_call(
        self,
        node: ast.Call,
        func: ast.Name,
        arg_info: list[tuple[str, frozenset[str], str]],
        all_atoms: frozenset[str],
    ) -> tuple[frozenset[str], str]:
        name = func.id
        if name == "id" and node.args:
            return frozenset({KIND_ENV}), "value"
        if name == "open":
            return frozenset(), "unpicklable:open-file"
        if name in ("set", "frozenset"):
            return all_atoms, "set"
        if name in ("list", "tuple", "iter", "reversed"):
            # Materializers preserve the input's (possibly fragile)
            # iteration order, so the kind passes through.
            if arg_info:
                return all_atoms, arg_info[0][2]
            return all_atoms, "value"
        if name in _ORDER_SAFE_CONSUMERS:
            return all_atoms, "value"
        resolved = self._local_def(name) or self.resolver.resolve(
            func, self.cls, self.env.keys() | self.params
        )
        if resolved is None:
            return all_atoms, "unknown"
        known = self._resolved_call(node, resolved, arg_info, all_atoms)
        if known is not None:
            return known
        tail = resolved.rsplit(".", 1)[-1]
        if tail[:1].isupper():
            return all_atoms, f"class:{resolved}"
        return all_atoms | {f"call:{resolved}"}, f"call:{resolved}"

    def _local_def(self, name: str) -> str | None:
        """Qualname of the nested def ``name`` calls here, unless a
        parameter or a local assignment rebinds the name."""
        qualname = self.local_defs.get(name)
        if qualname is None or name in self.params:
            return None
        bound = self.env.get(name)
        if bound is not None and bound[1] != _NESTED_FUNCTION:
            return None
        return qualname

    def _resolved_call(
        self,
        node: ast.Call,
        resolved: str,
        arg_info: list[tuple[str, frozenset[str], str]],
        all_atoms: frozenset[str],
    ) -> tuple[frozenset[str], str] | None:
        """(atoms, kind) of a call to a host source or state mutator;
        ``None`` for an ordinary call, recorded in ``calls``."""
        if resolved in _WALL_CLOCK:
            self._site(KIND_WALL, resolved, node)
            return frozenset({KIND_WALL}), "value"
        if resolved in _ENV_CALLS:
            return frozenset({KIND_ENV}), "value"
        if resolved in _STATE_CALLS:
            self.touches_state = True
            return all_atoms, "value"
        if resolved in ("random.Random", "numpy.random.default_rng"):
            seedless = not node.args and not node.keywords
            return frozenset({KIND_RNG} if seedless else ()), "value"
        for prefix in ("random.", "numpy.random."):
            if resolved.startswith(prefix):
                attr = resolved[len(prefix):]
                if "." not in attr and not attr[:1].isupper():
                    # A module-level function: hidden global state.
                    self._site(KIND_RNG, resolved, node)
                    return frozenset({KIND_RNG}), "value"
        if _is_pool_module(resolved):
            self._site(SITE_POOL_CALL, resolved, node)
        self.calls.append(resolved)
        self._record_ctor(node, resolved, arg_info)
        return None

    def _record_ctor(
        self,
        node: ast.Call,
        resolved: str,
        arg_info: list[tuple[str, frozenset[str], str]],
    ) -> None:
        tail = resolved.rsplit(".", 1)[-1]
        if not tail[:1].isupper():
            return
        bad: list[BadArg] = []
        for param, atoms, kind in arg_info:
            if kind.startswith("unpicklable:"):
                bad.append(
                    BadArg(param=param, reason=kind.split(":", 1)[1])
                )
            elif KIND_RNG in atoms:
                bad.append(BadArg(param=param, reason="unseeded-rng"))
        if bad:
            self.ctors.append(
                CtorFact(
                    callee=resolved,
                    line=node.lineno,
                    col=node.col_offset + 1,
                    bad=bad,
                )
            )


# ---------------------------------------------------------------------------
# File-level extraction.
# ---------------------------------------------------------------------------

#: Packages whose generators are simulation processes (FELA104/105
#: scope).
SIM_PACKAGES = (
    "repro.sim",
    "repro.core",
    "repro.net",
    "repro.hardware",
    "repro.baselines",
    "repro.faults",
)


def in_packages(module: str, packages: _t.Iterable[str]) -> bool:
    return any(
        module == pkg or module.startswith(pkg + ".") for pkg in packages
    )


def extract_module_facts(source: str, path: str) -> ModuleFacts:
    """Parse one file and extract all its facts (raises SyntaxError)."""
    tree = ast.parse(source, filename=path)
    module = module_name(path)
    facts = ModuleFacts(path=path, module=module)
    _FunctionScan(
        tree, Resolver(module, tree), module, None,
        in_packages(module, SIM_PACKAGES), facts, {},
    ).scan()
    return facts
