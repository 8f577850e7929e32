"""``benchmarks.conftest.emit`` keeps one section per experiment title."""

import json

import pytest

from benchmarks import conftest as bench_conftest


@pytest.fixture
def paths(tmp_path, monkeypatch):
    results, obs = tmp_path / "latest_results.txt", tmp_path / "latest_obs.json"
    monkeypatch.setattr(bench_conftest, "RESULTS_PATH", results)
    monkeypatch.setattr(bench_conftest, "OBS_PATH", obs)
    monkeypatch.setattr(bench_conftest, "_SMOKE", False)
    return results, obs


def _titles_and_rows(obs):
    return [(record["experiment"], record["rows"]) for record in json.loads(obs.read_text())]


def test_emit_replaces_its_own_title_in_place_and_keeps_the_rest(paths):
    results, obs = paths
    for title in ("A — first", "B — second", "C — third"):
        bench_conftest.emit(None, title, [f"{title} row 1", "== looks like a header =="])
    before = results.read_text()
    # What a later session running only B's bench file does.
    bench_conftest.emit(None, "B — second", ["fresh"], metrics={"ms": 1.5})
    assert results.read_text() == before.replace(
        "  B — second row 1\n  == looks like a header ==\n", "  fresh\n")
    assert _titles_and_rows(obs) == [
        ("A — first", ["A — first row 1", "== looks like a header =="]),
        ("B — second", ["fresh"]),
        ("C — third", ["C — third row 1", "== looks like a header =="])]
    assert json.loads(obs.read_text())[1]["metrics"] == {"ms": 1.5}
    bench_conftest.emit(None, "D — new", ["appended"])
    assert results.read_text().endswith("== D — new ==\n  appended\n\n")
    assert [title for title, _ in _titles_and_rows(obs)][-1] == "D — new"


def test_emit_leaves_both_files_alone_under_smoke(paths, monkeypatch):
    results, obs = paths
    bench_conftest.emit(None, "A — first", ["full-size row"])
    snapshot = (results.read_text(), obs.read_text())
    monkeypatch.setattr(bench_conftest, "_SMOKE", True)
    bench_conftest.emit(None, "A — first", ["smoke-size row"])
    assert (results.read_text(), obs.read_text()) == snapshot
