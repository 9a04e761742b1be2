"""The DET rule catalog: AST visitors for the hazards no run here exposes.

Each rule is a class with a ``CODE``, a one-line ``SUMMARY``, and a
``check(module)`` generator yielding :class:`~repro.analysis.core.Finding`
records.  Rules are deliberately *local* analyses — no inter-module data
flow.  A hazard that changes an export from one process to the next
(unseeded randomness, wall clocks, hash-ordered set iteration) is
caught by running the presets under several hash seeds
(``tests/test_determinism.py``), and telemetry that steers the
simulation by the wired-against-unwired parity test; the catalog keeps
what no run here can see (``docs/static_analysis.md`` has the evidence):

========  ============================================================
DET004    ``id()``-keyed mapping access (addresses are reused)
DET005    ``os.environ`` reads inside sim code
========  ============================================================
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, Tuple, Type

from repro.analysis.core import Finding, ModuleSource, import_table, resolve_call_target


class Rule:
    """Base class: subclasses define CODE/SUMMARY and ``check``."""

    CODE = "DET000"
    SUMMARY = ""

    def check(self, module: ModuleSource) -> Iterator[Finding]:
        raise NotImplementedError

    def _finding(self, module: ModuleSource, node: ast.AST, message: str) -> Finding:
        return module.finding(self.CODE, node, message)


# ----------------------------------------------------------------------
# DET004 — id()-keyed mappings
# ----------------------------------------------------------------------
class IdKeyedMappingRule(Rule):
    """``id()`` is an address, not an identity: it is reused once its
    object dies.

    A mapping keyed by ``id(obj)`` answers for whatever object lives at
    that address now, so an entry can outlive its object and be found
    again for an unrelated one.  While the keyed objects outlive the
    mapping, every run agrees and no export shows the hazard (seeding
    ``Router._adjacency_cache`` with ``id(next_hop)`` keys leaves all ten
    presets' exports unchanged), so only this rule sees it.  Key by a
    stable identity, or suppress a documented in-process memo.
    """

    CODE = "DET004"
    SUMMARY = "id()-keyed mapping (memory addresses are not stable identities)"

    _METHODS = frozenset({"get", "setdefault", "pop"})

    def check(self, module: ModuleSource) -> Iterator[Finding]:
        assert module.tree is not None
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Subscript):
                hit = self._contains_id_call(node.slice)
            elif isinstance(node, ast.Call):
                func = node.func
                hit = (
                    isinstance(func, ast.Attribute)
                    and func.attr in self._METHODS
                    and bool(node.args)
                    and self._is_id_call(node.args[0])
                )
            elif isinstance(node, ast.DictComp):
                hit = self._contains_id_call(node.key)
            else:
                continue
            if hit:
                yield self._finding(
                    module,
                    node,
                    "mapping keyed by id(): an address is reused once its"
                    " object dies; key by a stable identity (or suppress"
                    " for a documented in-process memo)",
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
    surfaced as explicit parameters from there.  Every run on one host
    reads the same environment, so no run here sees the hazard (a seeded
    ``os.environ.get`` of the edge routers' BFD multiplier passes every
    test); only this rule does.
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


#: Catalog in code order; the runner instantiates from here.
RULE_CLASSES: Tuple[Type[Rule], ...] = (IdKeyedMappingRule, EnvironReadRule)

RULES_BY_CODE: Dict[str, Type[Rule]] = {cls.CODE: cls for cls in RULE_CLASSES}
