"""Core model for the determinism & simulation-safety linter.

The analyzer is a pure-stdlib :mod:`ast` pass: every rule receives a
parsed :class:`ModuleInfo` (or, for cross-file rules, the whole batch)
and yields :class:`Finding` records.  Rules register themselves with
:func:`register`, so adding a rule family is "write a module, decorate
the classes" — :mod:`repro.analysis.runner` discovers the rest.

Design notes
------------
* Findings are keyed for the baseline by *content* (rule, path, the
  stripped source line, and an occurrence index), never by line number,
  so unrelated edits above a baselined finding do not invalidate it.
* Inline suppressions use ``# repro: noqa[RULE1,RULE2] reason`` (a bare
  ``# repro: noqa`` suppresses every rule on that line).  The reason
  string is free-form but encouraged: the suppression should explain
  itself to the next reader.
* Severities are just ``error`` and ``warn``; only unsuppressed,
  un-baselined ``error`` findings affect the exit code.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from typing import Iterable, Iterator

__all__ = [
    "ALL_RULES",
    "AnalysisConfig",
    "Finding",
    "ImportMap",
    "ModuleInfo",
    "Rule",
    "all_rules",
    "parse_noqa",
    "register",
]

SEVERITIES = ("error", "warn")

#: ``# repro: noqa`` / ``# repro: noqa[DET001,PYF001] optional reason``
_NOQA_RE = re.compile(
    r"#\s*repro:\s*noqa(?:\[(?P<rules>[A-Z0-9,\s]+)\])?(?P<reason>[^#]*)"
)


@dataclass
class Finding:
    """One diagnostic: where, what rule, how severe, and why."""

    rule: str
    severity: str  # "error" | "warn"
    path: str
    line: int
    col: int
    message: str
    context: str = ""  # stripped source line, used for baseline keying
    baselined: bool = False

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule} [{self.severity}] {self.message}"

    def as_record(self) -> dict:
        return {
            "rule": self.rule,
            "severity": self.severity,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
            "context": self.context,
            "baselined": self.baselined,
        }


@dataclass
class AnalysisConfig:
    """Tunable knobs shared by every rule.

    Defaults encode this repository's conventions; tests override
    fields to point rules at fixture trees.
    """

    #: Module prefixes where wall-clock reads are SIM errors (sim-time
    #: is in scope there via the discrete-event Simulator).
    sim_domains: tuple[str, ...] = ("repro.simnet", "repro.chain", "repro.social")
    #: Modules exempt from SIM even inside a domain.  repro.obs and
    #: repro.crypto.batch intentionally measure *wall* time (host-side
    #: benchmarking of real compute cost, not simulated latency).
    sim_exempt_modules: tuple[str, ...] = ("repro.obs", "repro.crypto.batch")
    #: Path roots (first path component) whose findings are capped at
    #: ``warn`` — benchmarks and examples measure wall time and seed ad
    #: hoc RNGs by design; tests get the same latitude.
    warn_only_roots: tuple[str, ...] = ("tests", "benchmarks", "examples")
    #: Call targets whose output is order-sensitive (Merkle/ledger/hash
    #: inputs): feeding them an unordered set/dict view is a DET hazard.
    order_sensitive_sinks: tuple[str, ...] = (
        "MerkleTree", "hash_json", "sha256_hex", "sha256_bytes", "sha512_bytes",
    )
    #: Classes whose instances cross the peer message boundary: methods
    #: returning references to their mutable ``__init__`` state leak
    #: shared-aliasing bugs between peers (ALIAS002).
    #: The storage classes are boundary classes too: a recovered chain
    #: is handed to the peer, so a store method returning a reference to
    #: its own mutable state would alias the store into live consensus.
    #: The compiled cascade graph and the fast runner join them: a
    #: compiled graph is shared between scalar and vectorized engines
    #: (and across benchmark repetitions), so leaking mutable internals
    #: would couple runs that must stay independent.
    boundary_classes: tuple[str, ...] = (
        "Peer", "SyncManager", "WorldState", "Mempool",
        "DurableStore", "SQLiteStore", "BlockLog", "SimDisk",
        "ChainIndex", "CompiledCascadeGraph", "FastCascadeRunner",
    )
    #: Directory names skipped during directory walks — the linter's own
    #: known-bad fixture corpus lives in tests/analysis/fixtures/.
    #: Files passed explicitly on the command line are always analyzed.
    exclude_dir_names: tuple[str, ...] = ("fixtures", "__pycache__")


@dataclass
class ModuleInfo:
    """A parsed source file plus everything rules need to inspect it."""

    path: str
    module: str  # dotted module name ("" when not importable as a package)
    source: str
    tree: ast.Module
    lines: list[str] = field(default_factory=list)

    @classmethod
    def from_source(cls, source: str, path: str, module: str = "") -> "ModuleInfo":
        tree = ast.parse(source, filename=path)
        return cls(path=path, module=module, source=source, tree=tree,
                   lines=source.splitlines())

    def line_text(self, lineno: int) -> str:
        if 1 <= lineno <= len(self.lines):
            return self.lines[lineno - 1].strip()
        return ""


def parse_noqa(lines: Iterable[str]) -> dict[int, set[str] | None]:
    """Map line number -> suppressed rule ids (``None`` = all rules)."""
    out: dict[int, set[str] | None] = {}
    for lineno, text in enumerate(lines, start=1):
        if "repro:" not in text:
            continue
        match = _NOQA_RE.search(text)
        if not match:
            continue
        rules = match.group("rules")
        if rules is None:
            out[lineno] = None
        else:
            out[lineno] = {r.strip() for r in rules.split(",") if r.strip()}
    return out


#: Names that stand for a module loaded on first use (see repro._numpy).
_HANDLES = {"repro._numpy.np": "numpy"}


class ImportMap:
    """Resolve local names to canonical dotted paths via the imports.

    ``import random as rnd`` maps ``rnd -> random``; ``from time import
    monotonic as mono`` maps ``mono -> time.monotonic``.  Rules then ask
    :meth:`resolve` for the canonical dotted name of any ``Name`` /
    ``Attribute`` chain and match against banned sets, so aliasing can
    never dodge a rule.  The package's numpy handle (``from repro._numpy
    import np``) resolves to ``numpy``.
    """

    def __init__(self, tree: ast.Module):
        self.aliases: dict[str, str] = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    local = alias.asname or alias.name.split(".")[0]
                    canonical = alias.name if alias.asname else alias.name.split(".")[0]
                    self.aliases[local] = canonical
            elif isinstance(node, ast.ImportFrom):
                if node.level or node.module is None:  # relative imports: not stdlib
                    continue
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    local = alias.asname or alias.name
                    dotted = f"{node.module}.{alias.name}"
                    self.aliases[local] = _HANDLES.get(dotted, dotted)

    def resolve(self, node: ast.AST) -> str | None:
        """Canonical dotted path for a Name/Attribute chain, or None."""
        parts: list[str] = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        base = self.aliases.get(node.id)
        if base is None:
            return None
        parts.append(base)
        return ".".join(reversed(parts))


class Rule:
    """Base class: subclass, set the class attributes, yield findings."""

    rule_id: str = ""
    severity: str = "error"
    summary: str = ""

    def __init__(self, config: AnalysisConfig):
        self.config = config

    def check_module(self, mod: ModuleInfo) -> Iterator[Finding]:
        """Per-file pass; default does nothing."""
        return iter(())

    def finish(self, modules: list[ModuleInfo]) -> Iterator[Finding]:
        """Cross-file pass, called once after every module was checked."""
        return iter(())

    def finding(self, mod: ModuleInfo, node: ast.AST, message: str,
                severity: str | None = None) -> Finding:
        line = getattr(node, "lineno", 1)
        col = getattr(node, "col_offset", 0)
        return Finding(
            rule=self.rule_id,
            severity=severity or self.severity,
            path=mod.path,
            line=line,
            col=col + 1,
            message=message,
            context=mod.line_text(line),
        )


ALL_RULES: list[type[Rule]] = []


def register(rule_cls: type[Rule]) -> type[Rule]:
    """Class decorator adding a rule to the global registry."""
    if not rule_cls.rule_id:
        raise ValueError(f"rule {rule_cls.__name__} must define rule_id")
    if rule_cls.severity not in SEVERITIES:
        raise ValueError(f"rule {rule_cls.rule_id}: bad severity {rule_cls.severity!r}")
    ALL_RULES.append(rule_cls)
    return rule_cls


def all_rules(config: AnalysisConfig | None = None) -> list[Rule]:
    """Fresh rule instances (cross-file rules keep per-run state)."""
    # Importing the rule modules registers their classes; deferred to
    # here so `from repro.analysis.core import Finding` stays cheap.
    from repro.analysis import (  # repro: noqa[PYF001] imported for registration side effect
        rules_alias, rules_det, rules_imp, rules_obs, rules_pyf, rules_sim,
    )

    config = config or AnalysisConfig()
    seen: set[str] = set()
    instances: list[Rule] = []
    for rule_cls in ALL_RULES:
        if rule_cls.rule_id in seen:
            continue
        seen.add(rule_cls.rule_id)
        instances.append(rule_cls(config))
    return sorted(instances, key=lambda r: r.rule_id)
