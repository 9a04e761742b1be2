"""The DET rule catalog: AST visitors for this codebase's hazard classes.

Each rule is a class with a ``CODE``, a one-line ``SUMMARY``, and a
``check(module)`` generator yielding :class:`~repro.analysis.core.Finding`
records.  Rules are deliberately *local* analyses — no inter-module data
flow — tuned so that every firing is either a real hazard or a site
worth an explicit, reviewed suppression.  The catalog:

========  ============================================================
DET001    bare ``random``/``uuid``/``secrets`` (must fork SeededRandom)
DET002    wall-clock reads in sim-path code
DET003    iteration over a set/frozenset without ``sorted()``
DET004    ``id()``-keyed mapping access (identity leaks across runs)
DET005    ``os.environ`` reads inside sim code
DET006    telemetry passivity (no scheduling / randomness / sim writes)
========  ============================================================
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple, Type

from repro.analysis.core import (
    Finding,
    ModuleSource,
    dotted_name,
    import_table,
    resolve_call_target,
)


class Rule:
    """Base class: subclasses define CODE/SUMMARY and ``check``."""

    CODE = "DET000"
    SUMMARY = ""

    def check(self, module: ModuleSource) -> Iterator[Finding]:
        raise NotImplementedError

    def _finding(self, module: ModuleSource, node: ast.AST, message: str) -> Finding:
        return module.finding(self.CODE, node, message)


# ----------------------------------------------------------------------
# DET001 — unseeded randomness
# ----------------------------------------------------------------------
class BareRandomnessRule(Rule):
    """Stdlib entropy sources bypass the seed contract entirely.

    ``repro.sim.random.SeededRandom`` is the only sanctioned entropy
    source: it is constructed from the scenario seed and forked with
    stable labels, which is what makes campaigns byte-identical across
    serial/pooled/rerun.  A bare ``import random`` (or ``uuid``/
    ``secrets``, or ``os.urandom``) reintroduces process-global,
    unseeded state.
    """

    CODE = "DET001"
    SUMMARY = "bare random/uuid/secrets use (fork repro.sim.random.SeededRandom)"

    _MODULES = ("random", "uuid", "secrets")

    def check(self, module: ModuleSource) -> Iterator[Finding]:
        assert module.tree is not None
        imports = import_table(module.tree)
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    root = alias.name.split(".")[0]
                    if root in self._MODULES:
                        yield self._finding(
                            module,
                            node,
                            f"imports {alias.name!r}: unseeded entropy;"
                            " fork a repro.sim.random.SeededRandom instead",
                        )
            elif isinstance(node, ast.ImportFrom):
                if node.level:
                    continue
                root = (node.module or "").split(".")[0]
                if root in self._MODULES:
                    yield self._finding(
                        module,
                        node,
                        f"imports from {node.module!r}: unseeded entropy;"
                        " fork a repro.sim.random.SeededRandom instead",
                    )
            elif isinstance(node, ast.Call):
                target = resolve_call_target(node.func, imports)
                if target == "os.urandom":
                    yield self._finding(
                        module,
                        node,
                        "os.urandom() is unseeded entropy;"
                        " fork a repro.sim.random.SeededRandom instead",
                    )


# ----------------------------------------------------------------------
# DET002 — wall-clock reads
# ----------------------------------------------------------------------
class WallClockRule(Rule):
    """Wall-clock values differ per host/run and poison sim-time records.

    Simulated time comes from ``Simulator.now``; any quantity that could
    reach a campaign record or export must be derived from it.  Wall
    clocks are legal only where the config scopes them (benchmark
    harnesses, ``telemetry/process.py``).
    """

    CODE = "DET002"
    SUMMARY = "wall-clock read in sim-path code (use Simulator.now)"

    _CALLS = frozenset(
        {
            "time.time",
            "time.time_ns",
            "time.perf_counter",
            "time.perf_counter_ns",
            "time.monotonic",
            "time.monotonic_ns",
            "time.process_time",
            "time.process_time_ns",
            "time.clock_gettime",
            "time.clock_gettime_ns",
            "time.localtime",
            "time.gmtime",
            "time.ctime",
            "datetime.datetime.now",
            "datetime.datetime.utcnow",
            "datetime.datetime.today",
            "datetime.date.today",
        }
    )

    def check(self, module: ModuleSource) -> Iterator[Finding]:
        assert module.tree is not None
        imports = import_table(module.tree)
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            target = resolve_call_target(node.func, imports)
            if target in self._CALLS:
                yield self._finding(
                    module,
                    node,
                    f"{target}() reads the wall clock; sim-path code must"
                    " derive time from Simulator.now",
                )


# ----------------------------------------------------------------------
# DET003 — unsorted set iteration
# ----------------------------------------------------------------------
#: Expression shapes that definitely produce a set/frozenset.
_SET_CALLS = frozenset({"set", "frozenset"})
_SET_METHODS = frozenset(
    {"union", "intersection", "difference", "symmetric_difference", "copy"}
)
_SET_ANNOTATIONS = frozenset({"set", "Set", "frozenset", "FrozenSet", "MutableSet"})
#: Wrappers whose result order mirrors their input order — iterating
#: them is as hazardous as iterating the set itself.
_ORDER_PRESERVING = frozenset({"enumerate", "reversed", "iter", "list", "tuple"})
#: Consumers that are order-insensitive (or impose their own order).
_ORDER_SAFE = frozenset({"sorted", "min", "max", "sum", "len", "any", "all",
                         "set", "frozenset"})


def _annotation_is_set(node: Optional[ast.AST]) -> bool:
    if node is None:
        return False
    if isinstance(node, ast.Subscript):  # Set[int], FrozenSet[str]
        return _annotation_is_set(node.value)
    name = dotted_name(node)
    if name is None:
        return False
    return name.split(".")[-1] in _SET_ANNOTATIONS


class _SetScope:
    """Names/attributes known to hold sets within one lexical scope."""

    def __init__(self, parent: Optional["_SetScope"] = None) -> None:
        self.parent = parent
        self.names: Set[str] = set()
        self.self_attrs: Set[str] = set()

    def knows_name(self, name: str) -> bool:
        scope: Optional[_SetScope] = self
        while scope is not None:
            if name in scope.names:
                return True
            scope = scope.parent
        return False

    def knows_attr(self, attr: str) -> bool:
        scope: Optional[_SetScope] = self
        while scope is not None:
            if attr in scope.self_attrs:
                return True
            scope = scope.parent
        return False


class UnsortedSetIterationRule(Rule):
    """Set iteration order depends on hash salting and insertion history.

    Any set that is iterated into an ordered artifact — a loop that
    appends, a list/dict comprehension, ``list()``/``join()`` — must go
    through ``sorted()`` first, or the produced order (and any campaign
    record or export built from it) differs between runs and hosts.

    The rule tracks set-ness conservatively: literals, ``set()`` /
    ``frozenset()`` calls, set-algebra operators on known sets,
    ``self.x`` attributes assigned a set anywhere in the class, and
    names annotated ``Set[...]``.  Iterating into an *unordered* sink
    (``set``/``sum``/``len``/``any``/``min``/...) is fine and not
    flagged; a ``SetComp`` over a set is likewise order-free.
    """

    CODE = "DET003"
    SUMMARY = "iteration over a set without sorted() (order is not stable)"

    def check(self, module: ModuleSource) -> Iterator[Finding]:
        assert module.tree is not None
        findings: List[Finding] = []
        root = _SetScope()
        #: Generator expressions feeding an order-insensitive sink
        #: (``any(p.contains(d) for p in some_set)``) are exempt; parents
        #: are walked before children, so the sink marks them in time.
        exempt: Set[ast.AST] = set()
        self._collect(module.tree.body, root)
        self._visit_body(module, module.tree.body, root, findings, exempt)
        for finding in findings:
            yield finding

    # -- set-name collection ------------------------------------------
    def _collect(self, body: Sequence[ast.stmt], scope: _SetScope) -> None:
        """Gather set-typed names assigned anywhere in this scope body
        (nested function/class bodies form their own scopes later)."""
        for stmt in body:
            for node in self._walk_same_scope(stmt):
                if isinstance(node, ast.Assign):
                    if self._is_set_expr(node.value, scope):
                        for target in node.targets:
                            self._learn_target(target, scope)
                elif isinstance(node, ast.AnnAssign):
                    if _annotation_is_set(node.annotation) or (
                        node.value is not None
                        and self._is_set_expr(node.value, scope)
                    ):
                        self._learn_target(node.target, scope)
                elif isinstance(node, ast.AugAssign):
                    # s |= {...} keeps s a set; learning it is harmless
                    # even when s was not a set (conservative).
                    if self._is_set_expr(node.value, scope):
                        self._learn_target(node.target, scope)
                elif isinstance(node, ast.arg):
                    if _annotation_is_set(node.annotation):
                        scope.names.add(node.arg)

    def _learn_target(self, target: ast.AST, scope: _SetScope) -> None:
        if isinstance(target, ast.Name):
            scope.names.add(target.id)
        elif (
            isinstance(target, ast.Attribute)
            and isinstance(target.value, ast.Name)
            and target.value.id == "self"
        ):
            scope.self_attrs.add(target.attr)

    @staticmethod
    def _walk_same_scope(stmt: ast.stmt) -> Iterator[ast.AST]:
        """Walk a statement without descending into nested scopes.

        Scope-introducing nodes are yielded (so the caller can recurse
        with a fresh scope) but their bodies are never walked here —
        including when the scope node is the walk root itself.
        """
        stack: List[ast.AST] = [stmt]
        while stack:
            node = stack.pop()
            yield node
            if isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda)
            ):
                continue
            stack.extend(ast.iter_child_nodes(node))

    # -- set-ness test ------------------------------------------------
    def _is_set_expr(self, node: ast.AST, scope: _SetScope) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Name):
            return scope.knows_name(node.id)
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"
        ):
            return scope.knows_attr(node.attr)
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name) and func.id in _SET_CALLS:
                return True
            if (
                isinstance(func, ast.Attribute)
                and func.attr in _SET_METHODS
                and self._is_set_expr(func.value, scope)
            ):
                return True
            return False
        if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
        ):
            return self._is_set_expr(node.left, scope) or self._is_set_expr(
                node.right, scope
            )
        if isinstance(node, ast.IfExp):
            return self._is_set_expr(node.body, scope) or self._is_set_expr(
                node.orelse, scope
            )
        return False

    # -- iteration-site checking --------------------------------------
    def _visit_body(
        self,
        module: ModuleSource,
        body: Sequence[ast.stmt],
        scope: _SetScope,
        findings: List[Finding],
        exempt: Set[ast.AST],
    ) -> None:
        for stmt in body:
            for node in self._walk_same_scope(stmt):
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    child = _SetScope(parent=scope)
                    self._collect(node.body, child)
                    for arg in self._all_args(node):
                        if _annotation_is_set(arg.annotation):
                            child.names.add(arg.arg)
                    self._visit_body(module, node.body, child, findings, exempt)
                elif isinstance(node, ast.ClassDef):
                    child = _SetScope(parent=scope)
                    # self.X set-ness is class-wide: collect across every
                    # method first, then check method bodies against it.
                    for item in node.body:
                        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                            self._collect(item.body, child)
                    self._visit_body(module, node.body, child, findings, exempt)
                else:
                    self._check_node(module, node, scope, findings, exempt)

    @staticmethod
    def _all_args(node: ast.AST) -> List[ast.arg]:
        arguments = getattr(node, "args", None)
        if arguments is None:
            return []
        collected = list(arguments.posonlyargs) if hasattr(arguments, "posonlyargs") else []
        collected.extend(arguments.args)
        collected.extend(arguments.kwonlyargs)
        return collected

    def _check_node(
        self,
        module: ModuleSource,
        node: ast.AST,
        scope: _SetScope,
        findings: List[Finding],
        exempt: Set[ast.AST],
    ) -> None:
        if isinstance(node, (ast.For, ast.AsyncFor)):
            self._check_iter(module, node.iter, scope, findings, "for loop")
        elif isinstance(node, (ast.ListComp, ast.GeneratorExp, ast.DictComp)):
            if node in exempt:
                return
            for generator in node.generators:
                self._check_iter(
                    module, generator.iter, scope, findings, "comprehension"
                )
        elif isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name) and func.id in _ORDER_SAFE:
                for arg in node.args:
                    if isinstance(arg, (ast.GeneratorExp, ast.ListComp, ast.SetComp)):
                        exempt.add(arg)
            self._check_call(module, node, scope, findings)

    def _check_call(
        self,
        module: ModuleSource,
        node: ast.Call,
        scope: _SetScope,
        findings: List[Finding],
    ) -> None:
        func = node.func
        if isinstance(func, ast.Name) and func.id in ("list", "tuple") and node.args:
            self._check_iter(
                module, node.args[0], scope, findings, f"{func.id}() materialisation"
            )
        elif isinstance(func, ast.Attribute) and func.attr in ("join", "extend"):
            if node.args and self._hazardous(node.args[0], scope):
                findings.append(
                    self._finding(
                        module,
                        node,
                        f".{func.attr}() consumes a set in arbitrary order;"
                        " wrap the argument in sorted()",
                    )
                )

    def _check_iter(
        self,
        module: ModuleSource,
        iter_node: ast.AST,
        scope: _SetScope,
        findings: List[Finding],
        context: str,
    ) -> None:
        if self._hazardous(iter_node, scope):
            findings.append(
                self._finding(
                    module,
                    iter_node,
                    f"{context} iterates a set in arbitrary order;"
                    " wrap it in sorted()",
                )
            )

    def _hazardous(self, node: ast.AST, scope: _SetScope) -> bool:
        """Set-typed after unwrapping order-preserving wrappers."""
        current = node
        while (
            isinstance(current, ast.Call)
            and isinstance(current.func, ast.Name)
            and current.func.id in _ORDER_PRESERVING
            and current.args
        ):
            current = current.args[0]
        if (
            isinstance(current, ast.Call)
            and isinstance(current.func, ast.Name)
            and current.func.id in _ORDER_SAFE
        ):
            return False
        # set()/frozenset() *as the iterated expression itself* is a
        # hazard (the constructor shapes membership, not order)...
        # except that they are also listed order-safe above for the
        # sink position; disambiguate: a direct set constructor being
        # iterated is hazardous.
        if (
            isinstance(current, ast.Call)
            and isinstance(current.func, ast.Name)
            and current.func.id in _SET_CALLS
        ):
            return True
        return self._is_set_expr(current, scope)


# ----------------------------------------------------------------------
# DET004 — id()-keyed mappings
# ----------------------------------------------------------------------
class IdKeyedMappingRule(Rule):
    """``id()`` values are memory addresses: unstable across runs.

    Keying a mapping by ``id(obj)`` is legal only for *in-process*
    memoisation whose keys never reach a serialized or exported
    structure (the engine's interned ranking memo).  Those sites carry
    inline suppressions with a rationale; anything new that fires this
    rule must either key by a stable identity or justify a suppression
    in review.
    """

    CODE = "DET004"
    SUMMARY = "id()-keyed mapping (memory addresses are not stable identities)"

    _METHODS = frozenset({"get", "setdefault", "pop"})

    def check(self, module: ModuleSource) -> Iterator[Finding]:
        assert module.tree is not None
        seen: Set[Tuple[int, int]] = set()
        for node in ast.walk(module.tree):
            hit: Optional[ast.AST] = None
            if isinstance(node, ast.Subscript) and self._contains_id_call(node.slice):
                hit = node
            elif isinstance(node, ast.Call):
                func = node.func
                if (
                    isinstance(func, ast.Attribute)
                    and func.attr in self._METHODS
                    and node.args
                    and self._is_id_call(node.args[0])
                ):
                    hit = node
            elif isinstance(node, ast.DictComp) and self._contains_id_call(node.key):
                hit = node
            if hit is not None:
                key = (hit.lineno, hit.col_offset)
                if key in seen:
                    continue
                seen.add(key)
                yield self._finding(
                    module,
                    hit,
                    "mapping keyed by id(): addresses differ across runs;"
                    " key by a stable identity (or suppress for a"
                    " documented in-process memo)",
                )

    @staticmethod
    def _is_id_call(node: ast.AST) -> bool:
        return (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "id"
        )

    @classmethod
    def _contains_id_call(cls, node: ast.AST) -> bool:
        return any(cls._is_id_call(child) for child in ast.walk(node))


# ----------------------------------------------------------------------
# DET005 — environment reads
# ----------------------------------------------------------------------
class EnvironReadRule(Rule):
    """Environment variables are per-host state outside the spec.

    A scenario's behaviour must be a function of its ``ScenarioSpec``
    (and seed) alone.  Environment reads belong in one sanctioned place
    (``repro/runconfig.py``), consulted at experiment-*setup* time and
    surfaced as explicit parameters from there.
    """

    CODE = "DET005"
    SUMMARY = "os.environ read in sim code (route through repro.runconfig)"

    def check(self, module: ModuleSource) -> Iterator[Finding]:
        assert module.tree is not None
        imports = import_table(module.tree)
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Call):
                target = resolve_call_target(node.func, imports)
                if target in ("os.getenv", "os.environ.get"):
                    yield self._finding(
                        module,
                        node,
                        f"{target}() makes behaviour depend on the host"
                        " environment; read it via repro.runconfig at"
                        " setup time instead",
                    )
            elif isinstance(node, ast.Subscript):
                target = resolve_call_target(node.value, imports)
                if target == "os.environ":
                    yield self._finding(
                        module,
                        node,
                        "os.environ[...] makes behaviour depend on the host"
                        " environment; read it via repro.runconfig at"
                        " setup time instead",
                    )


# ----------------------------------------------------------------------
# DET006 — telemetry passivity
# ----------------------------------------------------------------------
class TelemetryPassivityRule(Rule):
    """Telemetry must observe the simulation, never steer it.

    The on/off byte-parity guarantee (docs/observability.md) holds only
    while ``telemetry/`` code never schedules or cancels simulator
    events, never forks or seeds randomness, and never writes simulator
    state.  This rule enforces that contract structurally.
    """

    CODE = "DET006"
    SUMMARY = "telemetry module schedules work, forks randomness, or mutates sim state"

    _FORBIDDEN_CALLS = frozenset({"cancel", "fork", "seed"})
    _SIM_NAMES = frozenset({"sim", "simulator", "engine"})

    def check(self, module: ModuleSource) -> Iterator[Finding]:
        assert module.tree is not None
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Call):
                name = self._call_name(node.func)
                if name is not None and (
                    name.startswith("schedule") or name in self._FORBIDDEN_CALLS
                ):
                    yield self._finding(
                        module,
                        node,
                        f"telemetry code calls {name}(): telemetry must be"
                        " passive (no scheduling, no randomness)",
                    )
            elif isinstance(node, (ast.Assign, ast.AugAssign)):
                targets = (
                    node.targets if isinstance(node, ast.Assign) else [node.target]
                )
                for target in targets:
                    base = self._attribute_base(target)
                    if base in self._SIM_NAMES:
                        yield self._finding(
                            module,
                            node,
                            f"telemetry code writes {base}.*: telemetry must"
                            " not mutate simulator state",
                        )

    @staticmethod
    def _call_name(func: ast.AST) -> Optional[str]:
        if isinstance(func, ast.Attribute):
            return func.attr
        if isinstance(func, ast.Name):
            return func.id
        return None

    @staticmethod
    def _attribute_base(target: ast.AST) -> Optional[str]:
        current = target
        while isinstance(current, (ast.Attribute, ast.Subscript)):
            current = current.value
        if isinstance(current, ast.Name):
            return current.id if isinstance(target, (ast.Attribute, ast.Subscript)) else None
        return None


#: Catalog in code order; the runner instantiates from here.
RULE_CLASSES: Tuple[Type[Rule], ...] = (
    BareRandomnessRule,
    WallClockRule,
    UnsortedSetIterationRule,
    IdKeyedMappingRule,
    EnvironReadRule,
    TelemetryPassivityRule,
)

RULES_BY_CODE: Dict[str, Type[Rule]] = {cls.CODE: cls for cls in RULE_CLASSES}
