"""Shared helpers for the experiment benchmarks.

Each ``bench_eN_*`` module regenerates one experiment from DESIGN.md's
index (the paper has no numeric tables — its figures are architecture
diagrams — so each experiment quantifies one figure or mechanism claim).
Result rows are printed to stdout (run with ``-s`` to see them live) and
attached to ``benchmark.extra_info`` so ``--benchmark-json`` output
carries them; EXPERIMENTS.md records the reference run.
"""

from __future__ import annotations

import os
import pathlib
import re
import time

import pytest

from repro.corpus import CorpusGenerator
from repro.ml import FakeNewsScorer
from repro.obs import append_perf_record

RESULTS_PATH = pathlib.Path(__file__).parent / "latest_results.txt"
OBS_PATH = pathlib.Path(__file__).parent / "latest_obs.json"
_SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "") == "1"


def _replace_section(path: pathlib.Path, lines: list[str]) -> None:
    """Put the ``== title ==`` section *lines* where the file has that title, or at its end."""
    text = path.read_text(encoding="utf-8") if path.exists() else ""
    sections = [section for section in re.split(r"(?m)^(?=== )", text) if section]
    slot = next((i for i, section in enumerate(sections)
                 if section.startswith(lines[0] + "\n")), len(sections))
    sections[slot:slot + 1] = ["\n".join(lines) + "\n"]
    path.write_text("".join(sections), encoding="utf-8")


def emit(benchmark, title: str, rows: list[str], metrics: dict | None = None) -> None:
    """Record an experiment's result table.

    Printed to stdout (visible with ``-s``), attached to the benchmark
    JSON via ``extra_info``, written to ``benchmarks/latest_results.txt``
    so the tables survive pytest's output capture, and mirrored as a
    structured perf record into ``benchmarks/latest_obs.json`` — pass
    *metrics* to attach machine-readable numbers beyond the
    human-readable rows.  Both files are keyed by *title*: the section /
    record with this title is replaced where it stands and every other
    experiment's is kept, so a run of one bench file refreshes only its
    own.  Under ``REPRO_BENCH_SMOKE=1`` the two files are left alone:
    they are the committed record of a full run, and smoke-sized rows
    must not replace it.
    """
    lines = [f"== {title} =="] + [f"  {row}" for row in rows] + [""]
    print("\n" + "\n".join(lines))
    if benchmark is not None:
        benchmark.extra_info["experiment"] = title
        benchmark.extra_info["rows"] = rows
        if metrics:
            benchmark.extra_info["obs_metrics"] = metrics
    if _SMOKE:
        return
    _replace_section(RESULTS_PATH, lines)
    record: dict = {
        "experiment": title,
        "rows": rows,
        "unix_time": time.time(),
    }
    if metrics:
        record["metrics"] = metrics
    append_perf_record(OBS_PATH, record, key="experiment")


@pytest.fixture(scope="session")
def session_scorer() -> FakeNewsScorer:
    """One trained AI scorer shared by all benchmarks."""
    corpus = CorpusGenerator(seed=9000).labeled_corpus(n_factual=250, n_fake=250)
    texts, labels = corpus.texts_and_labels()
    return FakeNewsScorer(seed=1).fit(texts, labels)
