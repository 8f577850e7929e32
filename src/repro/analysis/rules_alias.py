"""ALIAS — cross-peer state-sharing hazards.

Peers in the simulated network live in one process, so nothing stops a
``Peer`` method from handing its caller a live reference to the world
state or mempool internals.  Mutating such a reference on the "other
side" of the message boundary corrupts both peers at once — a bug class
the paper's trust argument (independent validators) cannot survive.

ALIAS001 (error)  mutable default argument (list/dict/set display, or a
                  bare ``dict()``/``list()``/``set()``/``defaultdict``
                  call) — the classic shared-across-calls alias.
ALIAS002 (warn)   a method of a boundary class (``Peer``,
                  ``SyncManager``, ``WorldState``, ``Mempool`` by
                  config) returning ``self.<attr>`` where ``<attr>``
                  was initialised to a mutable container in
                  ``__init__``, without a ``dict()/list()/sorted()/
                  .copy()/.snapshot()`` style defensive copy.
ALIAS003 (error)  ``object.__setattr__`` in a ``repro.*`` module anywhere
                  but inside a method, on that method's own instance:
                  its first parameter (``self``), or a local it just
                  built with ``cls(...)`` / ``replace(self, ...)``.  The
                  frozen chain objects remember derived values this way;
                  no other module may plant one on them.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.core import Finding, ModuleInfo, Rule, register

__all__ = ["MutableDefaultRule", "BoundaryReturnRule", "ForeignSetattrRule"]

_MUTABLE_FACTORIES = {"dict", "list", "set", "defaultdict", "OrderedDict", "deque", "Counter"}


def _is_mutable_literal(node: ast.AST) -> bool:
    if isinstance(node, (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id in _MUTABLE_FACTORIES
    return False


@register
class MutableDefaultRule(Rule):
    rule_id = "ALIAS001"
    severity = "error"
    summary = "mutable default argument"

    def check_module(self, mod: ModuleInfo) -> Iterator[Finding]:
        for node in ast.walk(mod.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            args = node.args
            for default in list(args.defaults) + [d for d in args.kw_defaults if d is not None]:
                if _is_mutable_literal(default):
                    label = getattr(node, "name", "<lambda>")
                    yield self.finding(
                        mod, default,
                        f"mutable default argument in `{label}` is shared "
                        "across every call; default to None and create inside",
                    )


def _mutable_init_attrs(class_node: ast.ClassDef) -> dict[str, int]:
    """``self.x = <mutable literal>`` assignments in ``__init__``."""
    attrs: dict[str, int] = {}
    for item in class_node.body:
        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) and item.name == "__init__":
            for node in ast.walk(item):
                value = None
                targets: list[ast.expr] = []
                if isinstance(node, ast.Assign):
                    value, targets = node.value, node.targets
                elif isinstance(node, ast.AnnAssign) and node.value is not None:
                    value, targets = node.value, [node.target]
                if value is None or not _is_mutable_literal(value):
                    continue
                for target in targets:
                    if (isinstance(target, ast.Attribute)
                            and isinstance(target.value, ast.Name)
                            and target.value.id == "self"):
                        attrs[target.attr] = node.lineno
    return attrs


@register
class BoundaryReturnRule(Rule):
    rule_id = "ALIAS002"
    severity = "warn"
    summary = "boundary class returns a live reference to mutable state"

    def check_module(self, mod: ModuleInfo) -> Iterator[Finding]:
        boundary = set(self.config.boundary_classes)
        for class_node in ast.walk(mod.tree):
            if not isinstance(class_node, ast.ClassDef) or class_node.name not in boundary:
                continue
            mutable = _mutable_init_attrs(class_node)
            if not mutable:
                continue
            for method in class_node.body:
                if not isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                if method.name == "__init__":
                    continue
                for node in ast.walk(method):
                    if not isinstance(node, ast.Return) or node.value is None:
                        continue
                    ret = node.value
                    if (isinstance(ret, ast.Attribute)
                            and isinstance(ret.value, ast.Name)
                            and ret.value.id == "self"
                            and ret.attr in mutable):
                        yield self.finding(
                            mod, node,
                            f"`{class_node.name}.{method.name}` returns a live "
                            f"reference to mutable `self.{ret.attr}`; return a "
                            "copy/snapshot so callers across the peer boundary "
                            "cannot mutate shared state",
                        )


def _is_object_setattr(node: ast.AST) -> bool:
    if not isinstance(node, ast.Call) or not isinstance(node.func, ast.Attribute):
        return False
    owner = node.func.value
    return node.func.attr == "__setattr__" and isinstance(owner, ast.Name) and owner.id == "object"


def _own_instances(method: ast.FunctionDef | ast.AsyncFunctionDef) -> set[str]:
    """Names that hold an instance of the method's own class: its first
    parameter, and locals assigned ``first(...)`` (a classmethod's
    ``cls(...)``) or ``replace(first, ...)``."""
    for decorator in method.decorator_list:
        if isinstance(decorator, ast.Name) and decorator.id == "staticmethod":
            return set()
    params = method.args.posonlyargs + method.args.args
    if not params:
        return set()
    first = params[0].arg
    own = {first}
    for node in ast.walk(method):
        if not isinstance(node, ast.Assign) or not isinstance(node.value, ast.Call):
            continue
        call = node.value
        callee = call.func.attr if isinstance(call.func, ast.Attribute) else getattr(call.func, "id", "")
        built = callee == first or (
            callee == "replace" and call.args
            and isinstance(call.args[0], ast.Name) and call.args[0].id == first
        )
        if built:
            own.update(t.id for t in node.targets if isinstance(t, ast.Name))
    return own


@register
class ForeignSetattrRule(Rule):
    rule_id = "ALIAS003"
    severity = "error"
    summary = "object.__setattr__ on an instance the enclosing method does not own"

    def check_module(self, mod: ModuleInfo) -> Iterator[Finding]:
        if mod.module.split(".")[0] != "repro":
            return
        sanctioned: set[int] = set()
        for class_node in ast.walk(mod.tree):
            if not isinstance(class_node, ast.ClassDef):
                continue
            for method in class_node.body:
                if not isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                own = _own_instances(method)
                for node in ast.walk(method):
                    if (_is_object_setattr(node) and node.args
                            and isinstance(node.args[0], ast.Name) and node.args[0].id in own):
                        sanctioned.add(id(node))
        for node in ast.walk(mod.tree):
            if _is_object_setattr(node) and id(node) not in sanctioned:
                yield self.finding(
                    mod, node,
                    "object.__setattr__ outside a method of the instance's own class "
                    "writes to an object another module froze; let the class remember "
                    "its own derived values",
                )
