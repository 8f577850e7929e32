"""DET — determinism hazards.

Every headline claim of this reproduction ("identical ledger output",
byte-for-byte chaos sweeps, deterministic RLC coefficients) assumes all
randomness flows through explicitly seeded ``random.Random`` instances.
These rules reject the ambient escape hatches:

DET001 (error)  calls through the module-level ``random.*`` API — the
                process-global RNG seeded from the OS.
DET002 (error)  ``random.Random()`` constructed with no seed argument
                (falls back to OS entropy), and ``random.SystemRandom``.
DET003 (error)  OS entropy sources: ``os.urandom``, ``uuid.uuid1/4``,
                anything from ``secrets``.
DET004 (warn)   unordered collections (``set`` displays/calls, dict
                ``.keys()``/``.values()`` views) fed straight into
                order-sensitive sinks (Merkle/hash builders) without a
                ``sorted(...)`` wrapper.  Set iteration order is
                insertion-order-dependent for ints/strs but the *intent*
                is unordered — hashes built from them are fragile.
DET005 (error)  NumPy's ambient escape hatches: calls through the
                legacy global ``numpy.random.*`` API, a no-argument
                ``numpy.random.default_rng()`` (OS entropy), and
                no-argument bit-generator constructors.  The sanctioned
                spelling — used by the vectorized cascade engine — is
                ``numpy.random.default_rng(seed)`` with an explicit
                seed, giving every array-sized draw the same
                reproducibility contract as ``random.Random(seed)``.
DET006 (error)  builtin ``hash()`` called in a ``repro.*`` module (the
                tree under ``src/``) outside a ``__hash__`` method.  It
                is salted per process (``PYTHONHASHSEED``), so a
                signature, key or order derived from it differs between
                peers and between runs; ``hashlib`` is the cheap stable
                replacement (what ``minhash_signature`` uses per shingle).
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.core import Finding, ImportMap, ModuleInfo, Rule, register

__all__ = [
    "AmbientRandomRule", "UnseededRngRule", "OsEntropyRule",
    "UnorderedSinkRule", "AmbientNumpyRandomRule", "BuiltinHashRule",
]

#: Methods of the process-global RNG exposed at module level.
_AMBIENT_RANDOM = {
    "random", "randint", "randrange", "choice", "choices", "shuffle",
    "sample", "uniform", "gauss", "normalvariate", "betavariate",
    "expovariate", "triangular", "getrandbits", "randbytes", "seed",
    "vonmisesvariate", "paretovariate", "weibullvariate", "lognormvariate",
}

_OS_ENTROPY = {"os.urandom", "uuid.uuid1", "uuid.uuid4"}


@register
class AmbientRandomRule(Rule):
    rule_id = "DET001"
    severity = "error"
    summary = "call through the process-global random.* API"

    def check_module(self, mod: ModuleInfo) -> Iterator[Finding]:
        imports = ImportMap(mod.tree)
        for node in ast.walk(mod.tree):
            if not isinstance(node, ast.Call):
                continue
            dotted = imports.resolve(node.func)
            if dotted is None:
                continue
            parts = dotted.split(".")
            if parts[0] == "random" and len(parts) == 2 and parts[1] in _AMBIENT_RANDOM:
                yield self.finding(
                    mod, node,
                    f"call to ambient `{dotted}` uses the process-global RNG; "
                    "thread a seeded random.Random through instead",
                )


@register
class UnseededRngRule(Rule):
    rule_id = "DET002"
    severity = "error"
    summary = "random.Random() without a seed / SystemRandom"

    def check_module(self, mod: ModuleInfo) -> Iterator[Finding]:
        imports = ImportMap(mod.tree)
        for node in ast.walk(mod.tree):
            if not isinstance(node, ast.Call):
                continue
            dotted = imports.resolve(node.func)
            if dotted == "random.Random" and not node.args and not node.keywords:
                yield self.finding(
                    mod, node,
                    "random.Random() with no seed draws from OS entropy; "
                    "pass an explicit seed",
                )
            elif dotted == "random.SystemRandom":
                yield self.finding(
                    mod, node,
                    "random.SystemRandom is OS entropy by definition; "
                    "use a seeded random.Random",
                )


@register
class OsEntropyRule(Rule):
    rule_id = "DET003"
    severity = "error"
    summary = "OS entropy source (os.urandom / uuid4 / secrets)"

    def check_module(self, mod: ModuleInfo) -> Iterator[Finding]:
        imports = ImportMap(mod.tree)
        # Manual stack walk so a matched `secrets.token_hex` chain is
        # reported once, not again for its inner `secrets` Name.
        stack: list[ast.AST] = [mod.tree]
        while stack:
            node = stack.pop()
            if isinstance(node, (ast.Name, ast.Attribute)):
                dotted = imports.resolve(node)
                if dotted is not None and (
                    dotted in _OS_ENTROPY
                    or dotted == "secrets"
                    or dotted.startswith("secrets.")
                ):
                    yield self.finding(
                        mod, node,
                        f"`{dotted}` reads OS entropy — unreproducible across "
                        "runs; derive ids/keys from the scenario seed",
                    )
                    continue  # do not descend into the matched chain
            stack.extend(ast.iter_child_nodes(node))


#: No-argument constructions that fall back to OS entropy.
_NUMPY_UNSEEDED = {
    "numpy.random.default_rng",
    "numpy.random.PCG64", "numpy.random.PCG64DXSM",
    "numpy.random.MT19937", "numpy.random.Philox", "numpy.random.SFC64",
}


@register
class AmbientNumpyRandomRule(Rule):
    rule_id = "DET005"
    severity = "error"
    summary = "ambient numpy.random.* call / unseeded default_rng()"

    def check_module(self, mod: ModuleInfo) -> Iterator[Finding]:
        imports = ImportMap(mod.tree)
        for node in ast.walk(mod.tree):
            if not isinstance(node, ast.Call):
                continue
            dotted = imports.resolve(node.func)
            if dotted is None or not dotted.startswith("numpy.random."):
                continue
            if dotted in _NUMPY_UNSEEDED:
                if not node.args and not node.keywords:
                    yield self.finding(
                        mod, node,
                        f"`{dotted}()` with no seed draws from OS entropy; "
                        "pass an explicit seed — numpy.random.default_rng(seed) "
                        "is the sanctioned spelling",
                    )
                continue  # seeded default_rng(seed) is the blessed path
            if dotted == "numpy.random.Generator":
                continue  # wraps an explicitly constructed bit generator
            yield self.finding(
                mod, node,
                f"call to ambient `{dotted}` uses NumPy's process-global "
                "RNG; thread a numpy.random.default_rng(seed) Generator "
                "through instead",
            )


@register
class BuiltinHashRule(Rule):
    rule_id = "DET006"
    severity = "error"
    summary = "builtin hash() outside __hash__ in a repro.* module"

    def check_module(self, mod: ModuleInfo) -> Iterator[Finding]:
        if mod.module.split(".")[0] != "repro":
            return
        # Manual stack walk so a `__hash__` body is never descended into.
        stack: list[ast.AST] = [mod.tree]
        while stack:
            node = stack.pop()
            if isinstance(node, ast.FunctionDef) and node.name == "__hash__":
                continue
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "hash":
                yield self.finding(mod, node, "builtin hash() is salted per process "
                                   "(PYTHONHASHSEED); hash with hashlib so peers and runs agree")
            stack.extend(ast.iter_child_nodes(node))


def _is_unordered_expr(node: ast.AST) -> str | None:
    """Return a label when *node* evaluates to an unordered collection."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return "set"
    if isinstance(node, ast.Call):
        func = node.func
        if isinstance(func, ast.Name) and func.id in ("set", "frozenset"):
            return func.id
        if isinstance(func, ast.Attribute) and func.attr in ("keys", "values"):
            return f"dict view .{func.attr}()"
    return None


@register
class UnorderedSinkRule(Rule):
    rule_id = "DET004"
    severity = "warn"
    summary = "unordered collection fed to an order-sensitive sink"

    def check_module(self, mod: ModuleInfo) -> Iterator[Finding]:
        sinks = set(self.config.order_sensitive_sinks)
        for node in ast.walk(mod.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else (
                func.attr if isinstance(func, ast.Attribute) else None
            )
            if name not in sinks:
                continue
            for arg in node.args:
                label = _is_unordered_expr(arg)
                if label is not None:
                    yield self.finding(
                        mod, arg,
                        f"{label} passed to order-sensitive sink `{name}`; "
                        "wrap in sorted(...) to pin the iteration order",
                    )
