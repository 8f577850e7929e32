"""Drive the rules over a file tree and render the results.

The runner owns everything rule classes should not care about: file
discovery, dotted-module-name inference, ``# repro: noqa`` suppression,
the severity cap for non-``src`` roots, baseline application, output
formatting, and the exit code.  ``repro-news lint`` and
``python -m repro.analysis`` are both thin wrappers over :func:`main`.

Exit codes: 0 clean (or warns only), 1 active ``error`` findings,
2 usage/parse errors.
"""

from __future__ import annotations

import argparse
import json
import pathlib
from dataclasses import dataclass, field
from typing import Sequence

from repro.analysis import baseline as baseline_mod
from repro.analysis.core import (
    AnalysisConfig,
    Finding,
    ModuleInfo,
    all_rules,
    parse_noqa,
)

__all__ = ["Report", "analyze_paths", "analyze_source", "main"]

DEFAULT_PATHS = ("src", "tests", "benchmarks", "examples", "tools")
DEFAULT_BASELINE = "analysis_baseline.json"
REPORT_FORMAT_VERSION = 1


@dataclass
class Report:
    """Everything one analyzer run produced."""

    findings: list[Finding] = field(default_factory=list)
    suppressed: int = 0  # dropped by inline noqa
    expired_baseline: list[str] = field(default_factory=list)
    files_checked: int = 0
    parse_errors: list[str] = field(default_factory=list)

    @property
    def active_errors(self) -> list[Finding]:
        return [f for f in self.findings
                if f.severity == "error" and not f.baselined]

    @property
    def exit_code(self) -> int:
        if self.parse_errors:
            return 2
        return 1 if self.active_errors else 0

    def as_record(self) -> dict:
        counts: dict[str, int] = {}
        for finding in self.findings:
            counts[finding.rule] = counts.get(finding.rule, 0) + 1
        return {
            "version": REPORT_FORMAT_VERSION,
            "findings": [f.as_record() for f in self.findings],
            "summary": {
                "files_checked": self.files_checked,
                "total": len(self.findings),
                "errors": sum(1 for f in self.findings if f.severity == "error"),
                "warnings": sum(1 for f in self.findings if f.severity == "warn"),
                "active_errors": len(self.active_errors),
                "baselined": sum(1 for f in self.findings if f.baselined),
                "suppressed": self.suppressed,
                "expired_baseline": self.expired_baseline,
                "by_rule": dict(sorted(counts.items())),
            },
            "parse_errors": self.parse_errors,
        }


def module_name_for(path: pathlib.Path) -> str:
    """Dotted module name inferred from ``__init__.py`` package markers."""
    try:
        resolved = path.resolve()
    except OSError:
        return ""
    parts = [resolved.stem] if resolved.stem != "__init__" else []
    parent = resolved.parent
    while (parent / "__init__.py").exists():
        parts.append(parent.name)
        parent = parent.parent
    return ".".join(reversed(parts)) if parts else ""


def collect_files(paths: Sequence[str], config: AnalysisConfig | None = None) -> list[pathlib.Path]:
    """``.py`` files under *paths*; excluded dir names (the linter's own
    known-bad fixture corpus) are skipped during walks, but a file named
    explicitly is always analyzed."""
    config = config or AnalysisConfig()
    excluded = set(config.exclude_dir_names)
    out: set[pathlib.Path] = set()
    for raw in paths:
        path = pathlib.Path(raw)
        if path.is_dir():
            out.update(p for p in path.rglob("*.py")
                       if not (set(p.parts) & excluded))
        elif path.suffix == ".py":
            out.add(path)
    return sorted(out)


def _severity_cap(finding: Finding, config: AnalysisConfig) -> None:
    """Outside ``src`` the tree is analyzed in warn mode (tests and
    benchmarks measure wall time and seed scratch RNGs by design)."""
    parts = pathlib.PurePath(finding.path).parts
    if parts and parts[0] in config.warn_only_roots and finding.severity == "error":
        finding.severity = "warn"


def _apply_noqa(findings: list[Finding], noqa: dict[int, set[str] | None]) -> tuple[list[Finding], int]:
    if not noqa:
        return findings, 0
    kept: list[Finding] = []
    dropped = 0
    for finding in findings:
        rules = noqa.get(finding.line, ...)
        if rules is ... :
            kept.append(finding)
        elif rules is None or finding.rule in rules:
            dropped += 1
        else:
            kept.append(finding)
    return kept, dropped


def analyze_source(
    source: str,
    path: str = "<memory>",
    module: str = "",
    config: AnalysisConfig | None = None,
) -> list[Finding]:
    """Analyze one in-memory source blob with per-file rules.

    Test/fixture entry point: cross-file rules run their per-file
    collection but ``finish`` hooks also run (against this single
    module), so OBS rules work on self-contained snippets too.
    """
    config = config or AnalysisConfig()
    mod = ModuleInfo.from_source(source, path=path, module=module)
    rules = all_rules(config)
    findings: list[Finding] = []
    for rule in rules:
        findings.extend(rule.check_module(mod))
    for rule in rules:
        findings.extend(rule.finish([mod]))
    findings, _ = _apply_noqa(findings, parse_noqa(mod.lines))
    for finding in findings:
        _severity_cap(finding, config)
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return findings


def analyze_paths(paths: Sequence[str], config: AnalysisConfig | None = None) -> Report:
    """Run every rule over every ``.py`` file under *paths*."""
    config = config or AnalysisConfig()
    report = Report()
    rules = all_rules(config)
    modules: list[ModuleInfo] = []
    for path in collect_files(paths, config):
        display = str(path)
        try:
            source = path.read_text(encoding="utf-8")
            mod = ModuleInfo.from_source(source, path=display,
                                         module=module_name_for(path))
        except (OSError, SyntaxError, ValueError) as exc:
            report.parse_errors.append(f"{display}: {exc}")
            continue
        modules.append(mod)
    report.files_checked = len(modules)

    for mod in modules:
        file_findings: list[Finding] = []
        for rule in rules:
            file_findings.extend(rule.check_module(mod))
        file_findings, dropped = _apply_noqa(file_findings, parse_noqa(mod.lines))
        report.suppressed += dropped
        report.findings.extend(file_findings)

    noqa_by_path = {mod.path: parse_noqa(mod.lines) for mod in modules}
    for rule in rules:
        for finding in rule.finish(modules):
            kept, dropped = _apply_noqa([finding], noqa_by_path.get(finding.path, {}))
            report.suppressed += dropped
            report.findings.extend(kept)

    for finding in report.findings:
        _severity_cap(finding, config)
    report.findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return report


def format_human(report: Report) -> str:
    lines = [f.render() + (" (baselined)" if f.baselined else "")
             for f in report.findings]
    lines.extend(f"PARSE ERROR: {err}" for err in report.parse_errors)
    summary = report.as_record()["summary"]
    lines.append(
        f"{summary['files_checked']} files: {summary['errors']} errors "
        f"({summary['active_errors']} active), {summary['warnings']} warnings, "
        f"{summary['baselined']} baselined, {summary['suppressed']} noqa-suppressed"
    )
    if report.expired_baseline:
        lines.append(
            f"NOTE: {len(report.expired_baseline)} baseline entries no longer "
            "match anything — regenerate with --update-baseline"
        )
    return "\n".join(lines)


def format_json(report: Report) -> str:
    return json.dumps(report.as_record(), indent=2)


def build_arg_parser(prog: str = "repro-news lint") -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog=prog,
        description="AST-based determinism & simulation-safety linter "
                    "(rule catalog: docs/LINTS.md)",
    )
    parser.add_argument("paths", nargs="*", default=list(DEFAULT_PATHS),
                        help=f"files/directories to analyze (default: {' '.join(DEFAULT_PATHS)})")
    parser.add_argument("--format", choices=("human", "json"), default="human")
    parser.add_argument("--baseline", default=DEFAULT_BASELINE,
                        help=f"baseline file (default: {DEFAULT_BASELINE})")
    parser.add_argument("--no-baseline", action="store_true",
                        help="ignore the baseline file entirely")
    parser.add_argument("--update-baseline", action="store_true",
                        help="rewrite the baseline from this run's findings and exit 0")
    parser.add_argument("--out", default=None,
                        help="also write the report to this file")
    return parser


def main(argv: Sequence[str] | None = None, prog: str = "repro-news lint") -> int:
    args = build_arg_parser(prog).parse_args(argv)
    report = analyze_paths(args.paths)

    if args.update_baseline:
        count = baseline_mod.write_baseline(args.baseline, report.findings)
        print(f"baseline {args.baseline}: {count} findings recorded")
        return 0

    if not args.no_baseline:
        try:
            entries = baseline_mod.load_baseline(args.baseline)
        except (ValueError, json.JSONDecodeError) as exc:
            print(f"bad baseline file: {exc}")
            return 2
        report.expired_baseline = baseline_mod.apply_baseline(report.findings, entries)

    rendered = format_json(report) if args.format == "json" else format_human(report)
    print(rendered)
    if args.out:
        out = pathlib.Path(args.out)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(rendered + "\n", encoding="utf-8")
    return report.exit_code
