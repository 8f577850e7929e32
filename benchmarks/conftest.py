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
import time

import pytest

from repro.corpus import CorpusGenerator
from repro.ml import FakeNewsScorer
from repro.obs import append_perf_record

RESULTS_PATH = pathlib.Path(__file__).parent / "latest_results.txt"
OBS_PATH = pathlib.Path(__file__).parent / "latest_obs.json"
_SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "") == "1"
_session_started = False


def emit(benchmark, title: str, rows: list[str], metrics: dict | None = None) -> None:
    """Record an experiment's result table.

    Printed to stdout (visible with ``-s``), attached to the benchmark
    JSON via ``extra_info``, appended to ``benchmarks/
    latest_results.txt`` (truncated once per session) so the tables
    survive pytest's output capture, and mirrored as a structured perf
    record into ``benchmarks/latest_obs.json`` — pass *metrics* to attach
    machine-readable numbers beyond the human-readable rows.  Under
    ``REPRO_BENCH_SMOKE=1`` the two files are left alone: they are the
    committed record of a full run, and smoke-sized rows must not
    replace it.
    """
    global _session_started
    lines = [f"== {title} =="] + [f"  {row}" for row in rows] + [""]
    print("\n" + "\n".join(lines))
    if benchmark is not None:
        benchmark.extra_info["experiment"] = title
        benchmark.extra_info["rows"] = rows
        if metrics:
            benchmark.extra_info["obs_metrics"] = metrics
    if _SMOKE:
        return
    first = not _session_started
    mode = "w" if first else "a"
    _session_started = True
    with RESULTS_PATH.open(mode, encoding="utf-8") as handle:
        handle.write("\n".join(lines) + "\n")
    record: dict = {
        "experiment": title,
        "rows": rows,
        "unix_time": time.time(),
    }
    if metrics:
        record["metrics"] = metrics
    append_perf_record(OBS_PATH, record, reset=first)


@pytest.fixture(scope="session")
def session_scorer() -> FakeNewsScorer:
    """One trained AI scorer shared by all benchmarks."""
    corpus = CorpusGenerator(seed=9000).labeled_corpus(n_factual=250, n_fake=250)
    texts, labels = corpus.texts_and_labels()
    return FakeNewsScorer(seed=1).fit(texts, labels)
