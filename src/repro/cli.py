"""Command-line interface: drive the platform without writing code.

Installed as the ``repro-news`` console script::

    repro-news demo quickstart          # run a packaged scenario
    repro-news corpus --out news.jsonl  # generate a labeled corpus
    repro-news race --trials 10         # fake-vs-factual race summary
    repro-news stats                    # build a world and print analytics
    repro-news explore                  # index-served block-explorer queries
    repro-news store --demo             # durable-store fault/recovery tour

Each subcommand is a thin wrapper over the public API, so the CLI doubles
as living documentation of the library's entry points.
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-news",
        description="AI blockchain platform for trusting news (ICDCS 2019 reproduction)",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    demo = subparsers.add_parser("demo", help="run a packaged example scenario")
    demo.add_argument(
        "scenario",
        choices=("quickstart", "newsroom", "election", "experts"),
        help="which scenario to run",
    )

    corpus = subparsers.add_parser("corpus", help="generate a labeled news corpus (JSONL)")
    corpus.add_argument("--out", required=True, help="output JSONL path")
    corpus.add_argument("--factual", type=int, default=200, help="factual article count")
    corpus.add_argument("--fake", type=int, default=200, help="fake article count")
    corpus.add_argument("--seed", type=int, default=0)
    corpus.add_argument(
        "--mutated-fraction", type=float, default=0.723,
        help="share of fakes derived from factual parents (paper: 0.723)",
    )

    race = subparsers.add_parser("race", help="fake-vs-factual propagation race")
    race.add_argument("--trials", type=int, default=10)
    race.add_argument("--agents", type=int, default=400)
    race.add_argument("--seed", type=int, default=0)

    subparsers.add_parser("stats", help="build a demo world and print ledger analytics")

    explore = subparsers.add_parser(
        "explore",
        help="block-explorer queries over a demo chain, answered from the "
        "materialized index (cross-checked against the ledger scan)",
    )
    explore.add_argument("--contract", default=None, help="filter by contract name")
    explore.add_argument("--method", default=None, help="filter by contract method")
    explore.add_argument("--sender", default=None, help="filter by sender address")
    explore.add_argument("--limit", type=int, default=10, help="max rows (default: 10)")
    explore.add_argument("--seed", type=int, default=77)

    report = subparsers.add_parser(
        "report", help="per-phase latency report from an observability trace"
    )
    report.add_argument(
        "--trace", default="benchmarks/latest_trace.jsonl",
        help="JSON-lines trace to summarise (default: benchmarks/latest_trace.jsonl)",
    )
    report.add_argument(
        "--demo", action="store_true",
        help="first run a small traced workload and write --trace from it",
    )
    report.add_argument(
        "--consensus", choices=("poa", "pbft"), default="pbft",
        help="consensus engine for --demo (default: pbft — a crashed peer "
        "falls behind and the sync-fetch phase shows up in the breakdown)",
    )
    report.add_argument("--txs", type=int, default=30, help="--demo transaction count")
    report.add_argument("--seed", type=int, default=7)
    report.add_argument("--out", default=None, help="also write the markdown here")

    store = subparsers.add_parser(
        "store", help="inspect a durable block store (log, snapshots, recovery plan)"
    )
    store.add_argument(
        "--demo", action="store_true",
        help="run a small durable-storage workload with an injected disk "
        "fault, crash-restart one peer through recovery, and inspect it",
    )
    store.add_argument(
        "--fault", choices=("torn", "partial", "bitflip", "none"), default="torn",
        help="--demo disk fault to inject at the crash (default: torn)",
    )
    store.add_argument("--txs", type=int, default=30, help="--demo transaction count")
    store.add_argument("--seed", type=int, default=7)
    store.add_argument(
        "--backend", choices=("durable", "sqlite"), default="durable",
        help="--demo storage backend: CRC-framed snapshot files (durable) "
        "or serialized sqlite3 images with interned tx tables (sqlite)",
    )
    store.add_argument(
        "--dump", default=None, metavar="DIR",
        help="--demo: also write the faulted peer's disk files to DIR",
    )
    store.add_argument(
        "--dir", default=None, metavar="DIR",
        help="inspect store files (blocks.log, snapshot-*) previously "
        "dumped to DIR instead of running a demo",
    )

    # `lint` owns its own argv — main() forwards everything after the
    # subcommand to repro.analysis before this parser runs, so that
    # `repro-news lint` and `python -m repro.analysis` stay identical.
    # Registered here only so it appears in `repro-news -h`.
    subparsers.add_parser(
        "lint",
        help="determinism & simulation-safety static analysis (docs/LINTS.md)",
        add_help=False,
    )
    return parser


_DEMO_FILES = {
    "quickstart": "quickstart.py",
    "newsroom": "newsroom_workflow.py",
    "election": "election_misinformation.py",
    "experts": "expert_discovery.py",
}


def _run_demo(scenario: str) -> int:
    """Locate and run a packaged example script.

    Examples live in the repository's ``examples/`` directory (they are
    documentation, not package modules), so look relative to the current
    directory and to the repository root above this file.
    """
    import pathlib
    import runpy

    filename = _DEMO_FILES[scenario]
    candidates = [
        pathlib.Path.cwd() / "examples" / filename,
        pathlib.Path(__file__).resolve().parents[2] / "examples" / filename,
    ]
    for candidate in candidates:
        if candidate.exists():
            namespace = runpy.run_path(str(candidate))
            namespace["main"]()
            return 0
    print(f"could not find examples/{filename}; run from the repository root",
          file=sys.stderr)
    return 1


def _run_corpus(args: argparse.Namespace) -> int:
    from repro.corpus import CorpusGenerator
    from repro.corpus.io import save_corpus

    generator = CorpusGenerator(seed=args.seed)
    corpus = generator.labeled_corpus(
        n_factual=args.factual, n_fake=args.fake,
        mutated_fake_fraction=args.mutated_fraction,
    )
    written = save_corpus(corpus, args.out)
    print(f"wrote {written} articles ({len(corpus.fakes)} fake / "
          f"{len(corpus.factual)} factual) to {args.out}")
    return 0


def _run_race(args: argparse.Namespace) -> int:
    from repro.social import run_races

    baseline = run_races(n_trials=args.trials, n_agents=args.agents,
                         seed=args.seed, intervene=False)
    treated = run_races(n_trials=args.trials, n_agents=args.agents,
                        seed=args.seed, intervene=True)
    print(f"{'regime':<14} {'factual':>9} {'fake':>9} {'advantage':>10}")
    for name, summary in (("no platform", baseline), ("with platform", treated)):
        print(f"{name:<14} {summary.mean_factual:>9.1f} {summary.mean_fake:>9.1f} "
              f"{summary.fake_advantage:>9.2f}x")
    return 0


def _build_demo_world(seed: int = 77):
    """The shared demo world: a cascade of shares committed on-chain.
    Used by both ``stats`` (analytics) and ``explore`` (index queries)."""
    import random

    from repro.core import TrustingNewsPlatform
    from repro.corpus import CorpusGenerator
    from repro.social import CascadeRunner, bind_agents, make_population, scale_free_follow_graph

    platform = TrustingNewsPlatform(seed=seed)
    graph = scale_free_follow_graph(200, seed=seed)
    agents = make_population(200, random.Random(seed))
    bind_agents(graph, agents)
    corpus = CorpusGenerator(seed=seed + 1)
    fact = corpus.factual(topic="politics")
    platform.seed_fact("f-demo", fact.text, "public-record", "politics")
    seed_share = corpus.relay_derivation(fact, "agent-00000", 0.0)

    class _Seed:
        agent_id = "agent-00000"
        parent_article_id = ""
        op = "relay"

    platform.ingest_share(_Seed(), seed_share, topic="politics")
    runner = CascadeRunner(
        graph, corpus,
        on_share=lambda event, article: platform.ingest_share(event, article, topic="politics"),
    )
    hub = max(graph.nodes(), key=lambda n: graph.out_degree(n))
    runner.run([(hub, seed_share)], n_rounds=6)
    return platform


def _run_stats() -> int:
    from repro.core import account_report, topic_statistics

    platform = _build_demo_world(seed=77)
    print("topic statistics:")
    for stat in topic_statistics(platform.graph):
        print(f"  {stat.as_row()}")
    report = account_report(platform.graph, platform.address_of("agent-00000"))
    print(f"seed account: articles={report.articles} traceable={report.traceable_share:.0%} "
          f"descendants={report.descendants}")
    print("platform stats:", platform.stats())
    return 0


def _run_explore(args: argparse.Namespace) -> int:
    """Explorer queries over the demo chain, served from the index.

    Every answer comes from the peer's :class:`~repro.chain.index.
    ChainIndex` materialized views; the final line is the index-vs-scan
    cross-check (``verify_against``), so this doubles as a live
    demonstration that the fast path and the fallback agree.
    """
    from repro.chain import chain_summary, find_transactions

    platform = _build_demo_world(seed=args.seed)
    ledger = platform.chain.ledger
    index = platform.chain.index

    summary = chain_summary(ledger, index=index)
    print("chain summary:")
    for key, value in summary.items():
        print(f"  {key}: {value}")
    print()
    rows = find_transactions(
        ledger, contract=args.contract, method=args.method,
        sender=args.sender, limit=args.limit, index=index,
    )
    filters = {k: v for k, v in
               (("contract", args.contract), ("method", args.method),
                ("sender", args.sender)) if v is not None}
    print(f"newest {len(rows)} transactions (filters: {filters or 'none'}):")
    for row in rows:
        flag = "ok " if row["valid"] else "BAD"
        print(f"  h={row['block_height']:>4} {flag} {row['tx_id'][:12]} "
              f"{row['contract']}.{row['method']} from {row['sender'][:18]}")
    problems = index.verify_against(ledger)
    print()
    print(f"index stats: {index.stats()}")
    print(f"index/scan cross-check: {'clean' if not problems else problems}")
    return 0 if not problems else 1


def _run_report(args: argparse.Namespace) -> int:
    import pathlib

    from repro.obs import read_jsonl, report_from_records

    trace = pathlib.Path(args.trace)
    if args.demo:
        _run_report_demo(trace, consensus=args.consensus, txs=args.txs, seed=args.seed)
    if not trace.exists():
        print(f"no trace at {trace}; run with --demo or point --trace at a "
              "file written by repro.obs.export_jsonl", file=sys.stderr)
        return 1
    records = read_jsonl(trace)
    markdown = report_from_records(records, title=f"Observability report — {trace.name}")
    print(markdown)
    if args.out:
        out = pathlib.Path(args.out)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(markdown + "\n", encoding="utf-8")
        print(f"(written to {out})", file=sys.stderr)
    return 0


def _run_report_demo(
    trace, consensus: str = "pbft", txs: int = 30, seed: int = 7
) -> None:
    """Run a small traced workload end to end and export its timeline.

    Crashes one peer mid-run so the sync-fetch phase shows up in the
    breakdown alongside endorse/gossip/order/consensus/commit.
    """
    from repro.chain import BlockchainNetwork
    from repro.core import IdentityContract
    from repro.obs import export_jsonl, snapshot_crypto_cache
    from repro.simnet import FixedLatency

    net = BlockchainNetwork(
        n_peers=4, consensus=consensus, block_interval=0.25,
        latency=FixedLatency(0.02), seed=seed,
    )
    net.install_contract(IdentityContract)
    straggler = net.peers[-1]
    for i in range(txs):
        if i == txs // 3:
            straggler.crashed = True
        if i == (2 * txs) // 3:
            straggler.restart()
        client = net.client()
        # wait=False: a crashed validator stalls its PoA rotation slots,
        # so blocking per-tx would deadlock the submit loop mid-outage.
        client.invoke(
            "identity", "register",
            {"display_name": f"demo-{i}", "role": "consumer"},
            wait=False,
        )
        net.run_for(0.1)
    # Two registrations as one group, so the unit's counters show up too.
    net.submit(*net.endorse_group([
        (net.client(), "identity", "register",
         {"display_name": f"demo-pair-{k}", "role": "consumer"})
        for k in range(2)
    ]))
    net.run_for(20.0)
    snapshot_crypto_cache(net.obs)
    written = export_jsonl(
        trace, net.obs, net.tracer,
        meta={"workload": "report-demo", "consensus": consensus,
              "txs": txs, "seed": seed, "sim_time": net.sim.now},
    )
    print(f"(demo wrote {written} records to {trace})", file=sys.stderr)


def _run_store(args: argparse.Namespace) -> int:
    import pathlib

    from repro.chain.store import inspect_files, render_inspection

    if args.dir is not None:
        directory = pathlib.Path(args.dir)
        if not directory.is_dir():
            print(f"no such directory: {directory}", file=sys.stderr)
            return 1
        files = {
            path.name: path.read_bytes()
            for path in sorted(directory.iterdir())
            if path.is_file()
        }
        if not files:
            print(f"no store files in {directory}", file=sys.stderr)
            return 1
        print(render_inspection(inspect_files(files)))
        return 0
    if not args.demo:
        print("store: pass --demo to run a workload, or --dir DIR to "
              "inspect dumped files", file=sys.stderr)
        return 1
    return _run_store_demo(args)


def _run_store_demo(args: argparse.Namespace) -> int:
    """Durable-storage round trip: workload → disk fault → crash →
    recovery → inspection.  Shows the degradation ladder doing its job."""
    import pathlib

    from repro.chain import BlockchainNetwork, InvariantAuditor
    from repro.core import IdentityContract
    from repro.chain.store import inspect_disk, render_inspection
    from repro.simnet import FailureSchedule, FixedLatency

    net = BlockchainNetwork(
        n_peers=4, consensus="pbft", block_interval=0.25,
        latency=FixedLatency(0.02), seed=args.seed,
        storage=args.backend, snapshot_interval=8,
    )
    net.install_contract(IdentityContract)
    auditor = InvariantAuditor(net)
    schedule = FailureSchedule(net.sim, net.net)
    victim = net.peers[-1].node_id
    crash_at = max(1.0, args.txs * 0.1 * 0.6)
    if args.fault == "torn":
        schedule.torn_write_at(crash_at - 0.01, victim)
    elif args.fault == "partial":
        schedule.partial_flush_at(crash_at - 0.01, victim, k=2)
    elif args.fault == "bitflip":
        schedule.bitflip_at(crash_at + 0.5, victim, artifact="log")
    schedule.crash_at(crash_at, victim)
    schedule.restart_at(crash_at + 2.0, victim)
    for i in range(args.txs):
        # One identity per client address, as the contract requires.
        net.client().invoke(
            "identity", "register",
            {"display_name": f"store-demo-{i}", "role": "consumer"},
            wait=False,
        )
        net.run_for(0.1)
    net.run_for(20.0)
    net.stop()

    peer = next(p for p in net.peers if p.node_id == victim)
    print(f"peer {victim} after {args.fault!r} fault + crash-restart:")
    print()
    print(render_inspection(inspect_disk(peer.disk)))
    report = peer.store.last_recovery
    if report is not None:
        print()
        print("last recovery:")
        for key, value in report.summary().items():
            print(f"  {key}: {value}")
    sql_stats = getattr(peer.store, "sql_stats", None)
    if sql_stats is not None:
        print()
        print("sqlite backend:", sql_stats())
    violations = auditor.final_check(failures=schedule.log)
    heights = sorted({p.ledger.height for p in net.peers})
    print()
    print(f"fault log: {[e.action for e in schedule.log]}")
    print(f"final heights: {heights} (converged: {len(heights) == 1}), "
          f"audit violations: {len(violations)}")
    if args.dump:
        directory = pathlib.Path(args.dump)
        directory.mkdir(parents=True, exist_ok=True)
        for name in peer.disk.names():
            (directory / name).write_bytes(peer.disk.read(name))
        print(f"(disk files written to {directory})", file=sys.stderr)
    return 0 if len(heights) == 1 and not violations else 1


def main(argv: Sequence[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    # Forward `lint` before argparse sees its flags: REMAINDER only
    # starts collecting at the first positional, so a leading option
    # (`repro-news lint --format json src`) would otherwise be rejected
    # by this parser instead of reaching repro.analysis.
    if list(argv[:1]) == ["lint"]:
        from repro.analysis import main as lint_main

        return lint_main(list(argv[1:]), prog="repro-news lint")
    args = build_parser().parse_args(argv)
    if args.command == "demo":
        return _run_demo(args.scenario)
    if args.command == "corpus":
        return _run_corpus(args)
    if args.command == "race":
        return _run_race(args)
    if args.command == "stats":
        return _run_stats()
    if args.command == "explore":
        return _run_explore(args)
    if args.command == "report":
        return _run_report(args)
    if args.command == "store":
        return _run_store(args)
    return 2  # unreachable: argparse enforces the choices (lint returns above)


if __name__ == "__main__":
    sys.exit(main())
