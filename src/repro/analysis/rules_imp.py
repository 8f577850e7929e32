"""IMP — libraries a chain-only process must not load.

numpy (~14 MB resident) serves the AI component, provenance discovery
and the cascade engine, through one handle that loads it on first use.
sqlite3 serves nothing: every transaction query answers from the
ledger's ``ChainIndex``.

IMP001 (error)  In a ``repro.*`` module (the tree under ``src/``): numpy
                imported anywhere but the handle, :mod:`repro._numpy`
                (take ``np`` from there: ``from repro._numpy import
                np``), or sqlite3 imported at all.  At any depth, not
                only at module level: on CPython 3.11 an ``import
                numpy`` statement reads ``__spec__`` of the lazy module
                and so loads it, and a function-local sqlite3 loads it
                with the first call.

Imports under ``if TYPE_CHECKING:`` never run and are allowed.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.core import Finding, ModuleInfo, Rule, register

__all__ = ["EagerImportRule"]

_HANDLE = "repro._numpy"


def _is_type_checking(test: ast.expr) -> bool:
    return (isinstance(test, ast.Name) and test.id == "TYPE_CHECKING") or (
        isinstance(test, ast.Attribute) and test.attr == "TYPE_CHECKING")


def _imported_roots(node: ast.AST) -> list[str]:
    if isinstance(node, ast.Import):
        return [alias.name.split(".")[0] for alias in node.names]
    if isinstance(node, ast.ImportFrom) and not node.level and node.module:
        return [node.module.split(".")[0]]
    return []


@register
class EagerImportRule(Rule):
    rule_id = "IMP001"
    severity = "error"
    summary = "numpy imported past repro._numpy, or sqlite3 imported, in a repro.* module"

    def check_module(self, mod: ModuleInfo) -> Iterator[Finding]:
        if mod.module.split(".")[0] != "repro" or mod.module == _HANDLE:
            return
        stack: list[ast.AST] = [mod.tree]
        while stack:
            node = stack.pop()
            if isinstance(node, ast.If) and _is_type_checking(node.test):
                stack.extend(node.orelse)
                continue
            for root in _imported_roots(node):
                if root == "numpy":
                    yield self.finding(mod, node, "numpy imported directly; take `np` from "
                                       "repro._numpy so a process that never uses it never "
                                       "loads it")
                elif root == "sqlite3":
                    yield self.finding(mod, node, "sqlite3 imported; transaction queries "
                                       "answer from the ledger's ChainIndex")
            stack.extend(ast.iter_child_nodes(node))
