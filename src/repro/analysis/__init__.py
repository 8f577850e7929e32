"""Static analysis guarding the reproduction's determinism invariants.

``make lint`` (and CI) runs this package over ``src tests benchmarks
examples``: a pure-stdlib :mod:`ast` linter whose rules encode the
repo-wide conventions every headline result depends on — all RNGs are
seeded ``random.Random`` instances (DET), simulation code reads
sim-time, never the wall clock (SIM), mutable state never aliases
across the peer message boundary (ALIAS), plus the pyflakes subset CI
otherwise lacks (PYF), metric-registry hygiene (OBS), and numpy's one
import path and no sqlite3 (IMP).

Entry points::

    repro-news lint [paths...] [--format json] [--update-baseline]
    python -m repro.analysis ...

Rule catalog with rationale and examples: ``docs/LINTS.md``.
"""

from repro.analysis.baseline import apply_baseline, load_baseline, write_baseline
from repro.analysis.core import (
    AnalysisConfig,
    Finding,
    ModuleInfo,
    Rule,
    all_rules,
    parse_noqa,
    register,
)
from repro.analysis.runner import Report, analyze_paths, analyze_source, main

__all__ = [
    "AnalysisConfig",
    "Finding",
    "ModuleInfo",
    "Report",
    "Rule",
    "all_rules",
    "analyze_paths",
    "analyze_source",
    "apply_baseline",
    "load_baseline",
    "main",
    "parse_noqa",
    "register",
    "write_baseline",
]
