"""CLI entry points (repro-news)."""

import pytest

from repro.cli import build_parser, main


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_parser_rejects_unknown_scenario():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["demo", "nonexistent"])


def test_corpus_command(tmp_path, capsys):
    out = tmp_path / "c.jsonl"
    code = main(["corpus", "--out", str(out), "--factual", "20", "--fake", "20", "--seed", "3"])
    assert code == 0
    assert out.exists()
    captured = capsys.readouterr().out
    assert "wrote 40 articles" in captured
    from repro.corpus.io import load_corpus

    corpus = load_corpus(out)
    assert len(corpus.fakes) == 20


def test_race_command(capsys):
    code = main(["race", "--trials", "2", "--agents", "150", "--seed", "9"])
    assert code == 0
    captured = capsys.readouterr().out
    assert "no platform" in captured and "with platform" in captured


def test_stats_command(capsys):
    code = main(["stats"])
    assert code == 0
    captured = capsys.readouterr().out
    assert "topic statistics" in captured
    assert "platform stats" in captured


def test_demo_quickstart(capsys, monkeypatch):
    import pathlib

    monkeypatch.chdir(pathlib.Path(__file__).resolve().parents[1])
    code = main(["demo", "quickstart"])
    assert code == 0
    captured = capsys.readouterr().out
    assert "published report-1" in captured


def test_demo_missing_examples_dir(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    import repro.cli as cli_module

    monkeypatch.setattr(
        cli_module, "_DEMO_FILES", {"quickstart": "definitely-not-there.py"}
    )
    code = main(["demo", "quickstart"])
    assert code == 1


def test_report_missing_trace(tmp_path, capsys):
    code = main(["report", "--trace", str(tmp_path / "nope.jsonl")])
    assert code == 1
    assert "no trace at" in capsys.readouterr().err


def test_report_from_exported_trace(tmp_path, capsys):
    from repro.obs import MetricsRegistry, Tracer, export_jsonl

    registry = MetricsRegistry()
    registry.histogram("phase.commit_latency", peer="p0").observe(0.3)
    registry.counter("peer.txs_committed_valid", peer="p0").inc(2)
    tracer = Tracer(clock=lambda: 0.0, registry=registry)
    trace = tmp_path / "t.jsonl"
    export_jsonl(trace, registry, tracer, meta={"run": "cli-test"})

    out = tmp_path / "report.md"
    code = main(["report", "--trace", str(trace), "--out", str(out)])
    assert code == 0
    stdout = capsys.readouterr().out
    assert "| commit_latency | 1 |" in stdout
    assert out.read_text().rstrip("\n") == stdout.rstrip("\n")


def test_report_demo_writes_trace_and_phases(tmp_path, capsys):
    trace = tmp_path / "demo.jsonl"
    code = main(["report", "--demo", "--trace", str(trace), "--txs", "12"])
    assert code == 0
    assert trace.exists()
    stdout = capsys.readouterr().out
    for phase in ("endorse", "gossip", "order_wait", "consensus_round",
                  "commit_latency"):
        assert f"| {phase} |" in stdout, phase
    # The straggler's catch-up is certified by statements, and says so.
    assert "| sync.statements_verified |" in stdout
    assert "| chain.groups_committed | 4 |" in stdout  # the demo's one group, on 4 peers


def test_report_shows_the_group_counters(tmp_path, capsys):
    """Committed, aborted (by reason) and deferred groups are registry
    counters, so the report lists them."""
    from repro.chain import BlockchainNetwork
    from repro.obs import export_jsonl
    from repro.simnet import FixedLatency
    from tests.conftest import CounterContract

    net = BlockchainNetwork(n_peers=4, consensus="pbft", block_interval=0.25,
                            latency=FixedLatency(0.02), seed=7, max_block_txs=3)
    net.install_contract(CounterContract)
    client = net.client()
    steps = [(client, "counter", "increment", {"amount": 1})] * 2
    single = net.endorse_transaction(client, "counter", "read", {})
    # Both groups read the count at one version: the second to be ordered
    # aborts (mvcc); behind two singles neither fits the first block (deferred).
    groups = [net.endorse_group(steps), net.endorse_group(steps)]
    primary = net.peers[0]
    assert primary.submit(single)
    assert primary.submit(net.endorse_transaction(client, "counter", "read", {}))
    for txs in groups:
        assert primary.submit(*txs)
    net.run_for(5.0)
    net.stop()
    assert net.obs.total("chain.groups_aborted") == 4
    assert {c.labels["reason"] for c in net.obs.counters("chain.groups_aborted")} == {"mvcc"}
    trace = tmp_path / "groups.jsonl"
    export_jsonl(trace, net.obs, net.tracer, meta={"run": "groups"})
    assert main(["report", "--trace", str(trace)]) == 0
    stdout = capsys.readouterr().out
    for row in ("| chain.groups_committed | 4 |", "| chain.groups_aborted | 4 |",
                "| mempool.group_deferrals | 2 |"):
        assert row in stdout, row
