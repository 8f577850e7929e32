"""The five workloads: inputs from a seed, a measured loop, a correctness gate.

Every workload drives the program through its public API only
(``TrustingNewsPlatform``, ``NetworkedChain`` / ``BlockchainNetwork``,
``LocalChain``, ``explorer``).  All networks are 4-validator PBFT with
``pipeline_depth=4`` and ``UniformLatency(0.01, 0.05)`` injected between
peers.  Operation counts are fixed per ``--seconds`` (calibrated so the
measured part lasts about that long on the reference box) rather than cut
off by a deadline, so simulated-time metrics and counts repeat exactly for
a seed.  Inputs are generated in ``setup``; the measured loop only feeds
them to the program.
"""

from __future__ import annotations

import random
import statistics
import time
from typing import Any, Callable

from repro.chain import (
    BlockchainNetwork,
    InvariantAuditor,
    LocalChain,
    NetworkedChain,
    explorer,
)
from repro.core.identity import IdentityContract
from repro.core.platform import TrustingNewsPlatform
from repro.core.supplychain import (
    SupplyChainContract,
    build_supply_chain_graph,
    find_original_author,
    trace_to_factual_root,
)
from repro.corpus import CorpusGenerator
from repro.errors import ReproError
from repro.ml import FakeNewsScorer
from repro.simnet import FailureSchedule, UniformLatency
from repro.social.cascade import ShareEvent

_clock = time.perf_counter

#: (label, got, want): one correctness check of the gate.
Check = tuple[str, Any, Any]


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolated percentile, ``q`` in [0, 100]; 0.0 when empty."""
    if not values:
        return 0.0
    data = sorted(values)
    rank = (q / 100.0) * (len(data) - 1)
    lo = int(rank)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (rank - lo)


def build_network(seed: int, **options: Any) -> BlockchainNetwork:
    return BlockchainNetwork(
        n_peers=4, consensus="pbft", latency=UniformLatency(0.01, 0.05),
        seed=seed, pipeline_depth=4, **options,
    )


def train_scorer(gen: CorpusGenerator) -> FakeNewsScorer:
    texts, labels = gen.labeled_corpus(n_factual=250, n_fake=250).texts_and_labels()
    return FakeNewsScorer(seed=1).fit(texts, labels)


def open_newsroom(chain: Any, seed: int, gen: CorpusGenerator, n_checkers: int,
                  n_facts: int) -> tuple[TrustingNewsPlatform, list[Any]]:
    """A platform with a trained scorer, one wire with one room, one
    author, *n_checkers* checkers and *n_facts* seeded facts."""
    plat = TrustingNewsPlatform(seed=seed, chain=chain, scorer=train_scorer(gen))
    plat.register_participant("wire", "publisher")
    plat.register_participant("author", "journalist")
    for i in range(n_checkers):
        plat.register_participant(f"checker-{i}", "checker")
    plat.create_distribution_platform("wire", "wire-platform")
    plat.create_news_room("wire", "wire-platform", "room", "politics")
    plat.authenticate_journalist("wire-platform", "author")
    facts = [gen.factual() for _ in range(n_facts)]
    for fact in facts:
        plat.seed_fact(fact.article_id, fact.text, "public-record", fact.topic)
    return plat, facts


def share_args(article_id: str, parent: str) -> dict[str, Any]:
    """A faithful social share of *parent*, as ``supplychain.record_node`` args."""
    return {
        "article_id": article_id, "content_hash": f"{article_id:0>64}"[:64],
        "parents": [parent], "parent_degrees": [0.0], "modification_degree": 0.0,
        "topic": "politics", "op": "share",
    }


class CommitWatch:
    """Benchmark-owned ``peer.commit_listeners`` callback.

    Records, in simulated time, each transaction's first commit on any
    peer (minus its creation time), each block's first commit, and every
    peer's own commit times; samples mempool depth while at it.
    """

    def __init__(self, network: BlockchainNetwork):
        self.network = network
        for peer in network.peers:
            peer.commit_listeners.append(self._on_commit)
        self.reset()

    def reset(self) -> None:
        self.commit_ms: dict[str, float] = {}      # tx id -> sim ms to first commit
        self.order_wait_ms: list[float] = []       # creation -> proposal, first commit only
        self.round_ms: list[float] = []            # proposal -> first commit, per block
        self.block_txs: dict[int, int] = {}        # height -> txs (first commit only)
        self.peer_commits: dict[str, list[float]] = {p.node_id: [] for p in self.network.peers}
        self.mempool_depth_max = 0

    def _on_commit(self, peer: Any, block: Any) -> None:
        now = peer.sim.now
        self.peer_commits[peer.node_id].append(now)
        self.sample_mempools()
        if block.height in self.block_txs:
            return
        self.block_txs[block.height] = len(block.transactions)
        self.round_ms.append((now - block.timestamp) * 1000.0)
        for tx in block.transactions:
            if tx.tx_id not in self.commit_ms:
                self.commit_ms[tx.tx_id] = (now - tx.timestamp) * 1000.0
                self.order_wait_ms.append(max(0.0, block.timestamp - tx.timestamp) * 1000.0)

    def sample_mempools(self) -> None:
        depth = max(len(p.mempool) for p in self.network.peers)
        if depth > self.mempool_depth_max:
            self.mempool_depth_max = depth


class Workload:
    """Base: bookkeeping shared by the five workloads."""

    name = ""
    #: Operations per second of ``--seconds`` on the reference box.
    ops_per_second = 1.0

    def __init__(self, seed: int, seconds: float):
        self.seed = seed
        self.seconds = seconds
        self.rng = random.Random(f"e2e:{self.name}:{seed}")
        self.network: BlockchainNetwork | None = None
        self.watch: CommitWatch | None = None
        self.op_wall: list[float] = []   # wall seconds per operation, one sample per loop pass
        self.units: list[tuple[int, float]] = []   # (operations, wall seconds) per loop pass
        self.ops = 0                     # operations completed in the measured loop
        self.writes = 0                  # writes beside the operations (reader_follow only)
        self.failed = 0                  # operations that raised or committed invalid
        self.read_wall = 0.0             # wall spent in reads (reader_follow only)
        #: Set by the runner on untraced runs: a ``reference.SpeedProbe``
        #: timed between passes, outside every timer of the loop.
        self.probe: Any = None

    def count(self, per_second: float, floor: int = 1) -> int:
        return max(floor, round(per_second * self.seconds))

    def done(self, ops: int, wall: float, op_wall: float | None = None) -> None:
        """One pass of the measured loop completed *ops* operations in
        *wall* seconds (*op_wall*: its wall per operation, if not wall / ops)."""
        self.units.append((ops, wall))
        self.op_wall.append(wall / ops if op_wall is None else op_wall)
        self.ops += ops
        if self.probe is not None:
            self.probe.after(wall)

    def throughput(self, slices: int = 8) -> float:
        """Operations per wall second: the median over *slices* equal parts
        of the measured loop, so a disturbance that slows part of a run
        does not move it."""
        k = min(slices, len(self.units))
        cuts = [round(i * len(self.units) / k) for i in range(k + 1)]
        parts = [self.units[a:b] for a, b in zip(cuts, cuts[1:])]
        return statistics.median(
            sum(ops for ops, _ in part) / sum(wall for _, wall in part) for part in parts)

    def setup(self) -> None:
        raise NotImplementedError

    def run(self, tracer: Any) -> None:
        raise NotImplementedError

    def gate(self) -> list[Check]:
        raise NotImplementedError

    def client_metrics(self) -> dict[str, float]:
        """Workload-specific numbers a client of this workload sees."""
        return {}

    def committed(self) -> tuple[int, int]:
        """Distinct (transactions, blocks) committed by the measured loop."""
        assert self.watch is not None
        return len(self.watch.commit_ms), len(self.watch.block_txs)

    # -- helpers -----------------------------------------------------------

    def guarded(self, operation: Callable[[], Any]) -> Any:
        """Run one operation; a raise counts as a failed operation."""
        try:
            return operation()
        except ReproError:
            self.failed += 1
            return None

    def chain_checks(self) -> list[Check]:
        """Convergence and index-vs-scan agreement on every live peer."""
        assert self.network is not None
        checks: list[Check] = []
        try:
            self.network.assert_convergence()
            checks.append(("assert_convergence", "ok", "ok"))
        except ReproError as exc:
            checks.append(("assert_convergence", str(exc), "ok"))
        heights = {p.ledger.height for p in self.network.peers if not p.crashed}
        checks.append(("all live peers at one height", len(heights), 1))
        for peer in self.network.peers:
            if not peer.crashed:
                checks.append((f"index.verify_against {peer.node_id}",
                               peer.index.verify_against(peer.ledger), []))
        return checks

    def provenance_checks(self, article_ids: list[str]) -> list[Check]:
        """Every article has a supply-chain node and the same accountable
        author and factual root when the graph is rebuilt from each peer's
        ledger."""
        assert self.network is not None
        graphs = [build_supply_chain_graph(p.ledger) for p in self.network.peers if not p.crashed]
        checks: list[Check] = []
        for article_id in article_ids:
            answers = set()
            for graph in graphs:
                trace = trace_to_factual_root(graph, article_id)
                answers.add((article_id in graph, find_original_author(graph, article_id),
                             trace.root, round(trace.cumulative_modification, 12)))
            present = all(answer[0] for answer in answers)
            checks.append((f"provenance of {article_id} on every peer",
                           (present, len(answers)), (True, 1)))
        return checks

    def acknowledged_everywhere(self, tx_ids: list[str]) -> Check:
        assert self.network is not None
        missing = sum(
            1 for peer in self.network.peers if not peer.crashed for tx_id in tx_ids
            if not (tx_id in peer.receipts and peer.receipts[tx_id].success)
        )
        return ("acknowledged txs missing or invalid on a peer", missing, 0)


# ---------------------------------------------------------------------------


class NewsroomPublish(Workload):
    """Closed loop, 1 client: the paper's Fig. 1 path as a newsroom drives it."""

    name = "newsroom_publish"
    ops_per_second = 5.5
    n_checkers = 8

    def setup(self) -> None:
        gen = CorpusGenerator(seed=self.seed)
        self.network = build_network(
            self.seed, storage="durable", snapshot_interval=64, block_interval=0.05)
        self.chain = NetworkedChain(self.network)
        self.platform, facts = open_newsroom(
            self.chain, self.seed, gen, self.n_checkers, n_facts=10)
        self.inputs = []
        for i in range(self.count(self.ops_per_second, floor=3)):
            fact = self.rng.choice(facts)
            if i % 3 == 2:
                article = gen.malicious_derivation(fact, "author", 0.0, pool=facts)
            else:
                article = gen.relay_derivation(fact, "author", 0.0)
            self.inputs.append((article, fact, self.rng.sample(range(self.n_checkers), 3)))
        self.watch = CommitWatch(self.network)

    def run(self, tracer: Any) -> None:
        plat = self.platform
        for article, _, voters in self.inputs:
            tracer.op_id = article.article_id
            begin = _clock()
            self.guarded(lambda: self._one_article(plat, article, voters))
            self.done(1, _clock() - begin)

    @staticmethod
    def _one_article(plat: TrustingNewsPlatform, article: Any, voters: list[int]) -> None:
        plat.publish_article("author", "wire-platform", "room",
                             article.article_id, article.text, article.topic)
        for voter in voters:
            plat.cast_vote(f"checker-{voter}", article.article_id, not article.label_fake)
        plat.rank_article(article.article_id, record=True)

    def gate(self) -> list[Check]:
        assert self.network is not None
        self.network.run_for(1.0)
        checks = self.chain_checks()
        checks += self.provenance_checks([a.article_id for a, _, _ in self.inputs])
        for article, fact, _ in self.inputs:
            if article.op == "relay":
                checks.append((f"relay {article.article_id} traces to its fact",
                               self.platform.trace(article.article_id).root,
                               f"fact:{fact.article_id}"))
            ranking = self.chain.query("supplychain", "get_ranking",
                                       {"article_id": article.article_id})
            checks.append((f"ranking of {article.article_id} recorded", ranking is not None, True))
        return checks


class ExternalScreening(Workload):
    """Closed loop, 1 client, single node: provenance + ML with no consensus."""

    name = "external_screening"
    ops_per_second = 52.0
    n_facts = 100

    def setup(self) -> None:
        gen = CorpusGenerator(seed=self.seed)
        scorer = train_scorer(gen)
        self.chain = LocalChain(seed=self.seed)
        plat = self.platform = TrustingNewsPlatform(
            seed=self.seed, chain=self.chain, scorer=scorer)
        plat.register_participant("reporter", "consumer")
        topics = [topic.name for topic in gen.topics]
        facts = [gen.factual(topic=topics[i % len(topics)]) for i in range(self.n_facts)]
        for fact in facts:
            plat.seed_fact(fact.article_id, fact.text, "public-record", fact.topic)
        self.inputs = []
        for i in range(self.count(self.ops_per_second, floor=6)):
            fact = self.rng.choice(facts)
            if i % 3 == 0:
                article = gen.relay_derivation(fact, "elsewhere", 0.0)
            elif i % 3 == 1:
                article = gen.malicious_derivation(fact, "elsewhere", 0.0, pool=facts)
            else:
                article = gen.fabricated()
            self.inputs.append((article, fact))
        self.published: list[Any] = []
        self.base = (self.chain.ledger.total_transactions(), self.chain.ledger.height)

    def committed(self) -> tuple[int, int]:
        ledger = self.chain.ledger
        return ledger.total_transactions() - self.base[0], ledger.height - self.base[1]

    def run(self, tracer: Any) -> None:
        plat = self.platform
        for article, _ in self.inputs:
            tracer.op_id = article.article_id
            begin = _clock()
            self.published.append(self.guarded(lambda: plat.report_external(
                "reporter", article.article_id, article.text, article.topic, "other-media")))
            self.done(1, _clock() - begin)

    def gate(self) -> list[Check]:
        ledger = self.chain.ledger
        checks: list[Check] = [
            ("ledger.verify_chain", ledger.verify_chain(), True),
            ("index.verify_against", self.chain.index.verify_against(ledger), []),
        ]
        graph = build_supply_chain_graph(ledger)
        relays = rooted = 0
        for (article, fact), published in zip(self.inputs, self.published):
            recorded = published is not None and published.receipt.success
            checks.append((f"{article.article_id} recorded", recorded and article.article_id in graph,
                           True))
            if article.op == "relay":
                relays += 1
                root = trace_to_factual_root(graph, article.article_id).root
                rooted += root == f"fact:{fact.article_id}"
        checks.append(("share of relays traced to their source fact >= 0.95",
                       rooted / max(1, relays) >= 0.95, True))
        return checks


class ShareBurst(Workload):
    """Batched, 1 submitter: full blocks, saturated mempool, sqlite images."""

    name = "share_burst"
    ops_per_second = 140.0
    wave_size = 200
    n_sharers = 32

    def setup(self) -> None:
        self.network = build_network(
            self.seed, storage="sqlite", snapshot_interval=16, block_interval=0.05,
            max_block_txs=50)
        self.network.install_contract(IdentityContract)
        self.network.install_contract(SupplyChainContract)
        self.sharers = register_sharers(self.network, self.n_sharers)
        total = self.count(self.ops_per_second)
        size = min(self.wave_size, max(10, total // 2))
        n_waves = max(2, round(total / size))
        previous = ["root"]
        self.waves: list[list[tuple[int, dict[str, Any]]]] = []
        for wave in range(n_waves):
            ids = [f"w{wave}-{i}" for i in range(size)]
            self.waves.append([
                (self.rng.randrange(self.n_sharers), share_args(aid, self.rng.choice(previous)))
                for aid in ids
            ])
            previous = ids
        self.tx_ids: list[str] = []
        self.watch = CommitWatch(self.network)

    def run(self, tracer: Any) -> None:
        network = self.network
        assert network is not None and self.watch is not None
        for number, wave in enumerate(self.waves):
            tracer.op_id = f"wave-{number}"
            begin = _clock()
            self.failed += submit_wave(network, self.sharers, wave, self.tx_ids, self.watch)
            self.done(len(wave), _clock() - begin)

    def gate(self) -> list[Check]:
        assert self.network is not None
        self.network.run_for(1.0)
        checks = self.chain_checks()
        checks.append(self.acknowledged_everywhere(self.tx_ids))
        sample = self.rng.sample([args["article_id"] for wave in self.waves for _, args in wave], 25)
        checks += self.provenance_checks(sample)
        for peer in self.network.peers:
            checks.append((f"sqlite rows == index rows on {peer.node_id}",
                           peer.store.sql_stats()["txs"], len(peer.index)))
        return checks


def register_sharers(network: BlockchainNetwork, n: int) -> list[Any]:
    """*n* registered accounts plus the supply chain's ``root`` node."""
    sharers = [network.client() for _ in range(n)]
    pending = [
        client.invoke("identity", "register", {"display_name": f"sharer-{i}", "role": "consumer"},
                      wait=False)
        for i, client in enumerate(sharers)
    ]
    for tx_id in pending:
        network.wait_for_receipt(tx_id)
    receipt = sharers[0].invoke("supplychain", "record_node", {
        "article_id": "root", "content_hash": "0" * 64, "parents": [],
        "modification_degree": 1.0, "topic": "politics", "op": "publish",
    })
    bring_peers_to(network, receipt.block_height)
    return sharers


def bring_peers_to(network: BlockchainNetwork, height: int) -> None:
    while any(p.ledger.height < height for p in network.peers if not p.crashed):
        if not network.sim.step():
            return


def submit_wave(network: BlockchainNetwork, sharers: list[Any], wave: list[tuple[int, dict]],
                tx_ids: list[str], watch: CommitWatch) -> int:
    """Endorse and submit a wave without waiting, then await every receipt
    and bring every live peer to the wave's last height.  Returns the
    number of transactions that did not commit valid."""
    submitted = []
    for sharer, args in wave:
        tx = network.endorse_transaction(sharers[sharer], "supplychain", "record_node", args)
        network.submit(tx)
        submitted.append(tx.tx_id)
    watch.sample_mempools()
    receipts = [network.wait_for_receipt(tx_id) for tx_id in submitted]
    bring_peers_to(network, max(r.block_height for r in receipts))
    tx_ids.extend(submitted)
    return sum(1 for r in receipts if not r.success)


class ReaderFollow(Workload):
    """Closed loop, 1 client: reads with the working set changing under them."""

    name = "reader_follow"
    ops_per_second = 17.0          # cycles; each is 1 write + 1 fresh read + the mix
    reads_per_cycle = 240
    n_room_articles = 8
    bulk_per_second = 18.75        # share nodes pre-built per second of --seconds
    #: Read mix, cheapest class first.  Shares are chosen so that the median
    #: falls inside the ``trace`` class and p90 inside ``export_audit``, not
    #: on a boundary between two classes.
    mix = (("describe_transaction", 5), ("chain_summary", 5), ("accountable_author", 10),
           ("trace", 35), ("find_transactions", 15), ("query_transactions", 5),
           ("prove_article", 10), ("export_audit", 15))

    def setup(self) -> None:
        gen = CorpusGenerator(seed=self.seed)
        self.n_cycles = self.count(self.ops_per_second, floor=3)
        # An identity votes once per article, so the checkers must cover
        # the vote cycles (2 of 3).
        self.n_votes = self.n_cycles - self.n_cycles // 3
        self.n_checkers = max(10, -(-self.n_votes // self.n_room_articles))
        self.network = build_network(
            self.seed, storage="sqlite", snapshot_interval=64, block_interval=0.05,
            max_block_txs=50)
        self.chain = NetworkedChain(self.network)
        plat, facts = open_newsroom(self.chain, self.seed, gen, self.n_checkers, n_facts=3)
        self.platform = plat
        self.room: list[Any] = []
        for i in range(self.n_room_articles):
            fact = self.rng.choice(facts)
            article = (gen.malicious_derivation(fact, "author", 0.0, pool=facts) if i % 3 == 2
                       else gen.relay_derivation(fact, "author", 0.0))
            plat.publish_article("author", "wire-platform", "room",
                                 article.article_id, article.text, article.topic)
            self.room.append(article)
        # Bulk share nodes through the burst path, hanging off the room's articles.
        sharers = [self.network.client() for _ in range(8)]
        pending = [
            client.invoke("identity", "register",
                          {"display_name": f"bulk-{i}", "role": "consumer"}, wait=False)
            for i, client in enumerate(sharers)
        ]
        for tx_id in pending:
            self.network.wait_for_receipt(tx_id)
        self.watch = CommitWatch(self.network)
        self.nodes = [a.article_id for a in self.room]
        previous = list(self.nodes)
        remaining = self.count(self.bulk_per_second, floor=20)
        tx_ids: list[str] = []
        while remaining > 0:
            ids = [f"bulk-{remaining - i}" for i in range(min(125, remaining))]
            wave = [(self.rng.randrange(len(sharers)), share_args(aid, self.rng.choice(previous)))
                    for aid in ids]
            submit_wave(self.network, sharers, wave, tx_ids, self.watch)
            self.nodes += ids
            previous = ids
            remaining -= len(ids)
        self.senders = [c.address for c in sharers] + [
            plat.address_of(f"checker-{i}") for i in range(self.n_checkers)]
        self._draw_cycles(gen)

    def _draw_cycles(self, gen: CorpusGenerator) -> None:
        """Pre-draw every cycle's write and its read mix from the seed."""
        rng = self.rng
        votes = rng.sample([(c, a) for c in range(self.n_checkers)
                            for a in range(self.n_room_articles)], self.n_votes)
        classes = [name for name, share in self.mix for _ in range(share)]
        self.cycles = []
        for cycle in range(self.n_cycles):
            if cycle % 3 == 2:
                parent = rng.choice(self.room)
                share = gen.relay_derivation(parent, "sharer", 0.0)
                event = ShareEvent(
                    time=0.0, round_index=cycle, agent_id=f"checker-{rng.randrange(self.n_checkers)}",
                    source_agent_id="author", article_id=share.article_id,
                    parent_article_id=parent.article_id, op="share")
                write: tuple = ("ingest_share", event, share)
            else:
                checker, target = votes.pop()
                write = ("cast_vote", f"checker-{checker}", self.room[target])
            reads = [(name, rng.random()) for name in rng.choices(classes, k=self.reads_per_cycle)]
            self.cycles.append((write, reads))

    # One reader attached to one peer: explorer and SQL reads go to peer-0.

    def read(self, name: str, draw: float) -> Any:
        plat = self.platform
        peer = self.network.peers[0]  # type: ignore[union-attr]
        if name == "trace":
            return plat.trace(self.nodes[int(draw * len(self.nodes))])
        if name == "accountable_author":
            return plat.accountable_author(self.nodes[int(draw * len(self.nodes))])
        if name == "prove_article":
            return plat.prove_article(self.nodes[int(draw * len(self.nodes))])
        if name == "export_audit":
            return plat.export_audit(self.room[int(draw * len(self.room))].article_id)
        if name == "chain_summary":
            return explorer.chain_summary(peer.ledger, index=peer.index)
        if name == "describe_transaction":
            tx_ids = self.known_tx_ids
            return explorer.describe_transaction(peer.ledger, tx_ids[int(draw * len(tx_ids))])
        filters = self.read_filter(draw)
        if name == "find_transactions":
            return explorer.find_transactions(peer.ledger, index=peer.index, **filters)
        return peer.store.query_transactions(**filters)

    def read_filter(self, draw: float) -> dict[str, str]:
        contracts = ("supplychain", "votes", "newsroom", "identity")
        if draw < 0.5:
            return {"sender": self.senders[int(draw * 2 * len(self.senders))]}
        return {"contract": contracts[int((draw - 0.5) * 2 * len(contracts))]}

    def run(self, tracer: Any) -> None:
        plat = self.platform
        peer = self.network.peers[0]  # type: ignore[union-attr]
        self.known_tx_ids = [row.tx_id for row in
                             peer.index.find_transactions(contract="supplychain", limit=200)]
        self.write_wall: list[float] = []
        self.fresh_wall: list[float] = []
        self.mix_wall: list[float] = []   # every single read of the mix
        self.scan_fallbacks = 0
        for number, (write, reads) in enumerate(self.cycles):
            tracer.op_id = f"cycle-{number}"
            begin = _clock()
            if write[0] == "ingest_share":
                self.guarded(lambda: plat.ingest_share(write[1], write[2]))
                self.nodes.append(write[2].article_id)
            else:
                self.guarded(lambda: plat.cast_vote(write[1], write[2].article_id,
                                                    not write[2].label_fake))
            after_write = _clock()
            self.write_wall.append(after_write - begin)
            self.scan_fallbacks += peer.index.height != peer.ledger.height
            ranked = self.guarded(lambda: plat.rank_room("wire-platform", "room"))
            self.failed += ranked is not None and len(ranked) != len(self.room)
            previous = _clock()
            self.fresh_wall.append(previous - after_write)
            for name, draw in reads:
                try:
                    answered = self.read(name, draw) is not None
                except ReproError:
                    answered = False
                self.failed += not answered
                now = _clock()
                self.mix_wall.append(now - previous)
                previous = now
            self.read_wall += previous - after_write
            n_reads = 1 + len(reads)
            self.done(n_reads, previous - begin, op_wall=(previous - after_write) / n_reads)
            self.writes += 1

    def client_metrics(self) -> dict[str, float]:
        return {
            "client.read_wall_ms_p50": percentile(self.mix_wall, 50) * 1000.0,
            "client.read_wall_ms_p90": percentile(self.mix_wall, 90) * 1000.0,
            "client.fresh_read_wall_ms_p50": percentile(self.fresh_wall, 50) * 1000.0,
            "client.write_wall_ms_p50": percentile(self.write_wall, 50) * 1000.0,
        }

    def gate(self) -> list[Check]:
        """Each read class against its oracle, on a seeded sample."""
        assert self.network is not None
        self.network.run_for(1.0)
        plat, rng = self.platform, self.rng
        checks = self.chain_checks()
        checks += self.provenance_checks(rng.sample(self.nodes, 20))
        reader, other = self.network.peers[0], self.network.peers[-1]
        oracle = build_supply_chain_graph(other.ledger)
        for node in rng.sample(self.nodes, 10):
            trace, want = plat.trace(node), trace_to_factual_root(oracle, node)
            checks.append((f"trace {node}", (trace.root, trace.path), (want.root, want.path)))
            checks.append((f"accountable_author {node}", plat.accountable_author(node),
                           find_original_author(oracle, node)))
            proof = plat.prove_article(node)
            committed = other.ledger.get_transaction(proof["tx_id"])
            checks.append((f"prove_article {node}", (proof["verified"], proof["block_height"]),
                           (True, committed.block_height if committed else None)))
        for article in self.room:
            audit = plat.export_audit(article.article_id)
            tally = self.chain.query("votes", "tally", {"article_id": article.article_id})
            checks.append((f"export_audit {article.article_id}",
                           (len(audit["votes"]), audit["accountable_author"], audit["trace"]["root"]),
                           (tally["votes"], find_original_author(oracle, article.article_id),
                            trace_to_factual_root(oracle, article.article_id).root)))
        for _ in range(10):
            filters = self.read_filter(rng.random())
            indexed = explorer.find_transactions(reader.ledger, index=reader.index, **filters)
            checks.append((f"find_transactions {filters} vs scan", indexed,
                           explorer.find_transactions(reader.ledger, **filters)))
            checks.append((f"query_transactions {filters} vs scan",
                           reader.store.query_transactions(**filters), indexed))
        checks.append(("chain_summary vs scan",
                       explorer.chain_summary(reader.ledger, index=reader.index),
                       explorer.chain_summary(reader.ledger)))
        for tx_id in rng.sample(self.known_tx_ids, 10):
            described = explorer.describe_transaction(reader.ledger, tx_id)
            row = reader.index.get(tx_id)
            checks.append((f"describe_transaction {tx_id[:12]}",
                           (described["block_height"], described["valid"], described["sender"]),
                           (row.block_height, row.valid, row.sender)))
        return checks


class CrashRecover(Workload):
    """Open loop on the simulated clock, with two crash-restarts.

    Requests are due on a schedule and the generator steps the simulator
    itself, so it is never late by construction: every transaction is
    created at its due time and its latency counts from there, including
    the ones that fall into the leaderless window.
    """

    name = "crash_recover"
    ops_per_second = 150.0
    tick = 0.25                 # simulated seconds between submission bursts
    per_tick = 15               # 60 txs per simulated second
    n_accounts = 16
    settle = 30.0

    def setup(self) -> None:
        n_ticks = max(8, round(self.count(self.ops_per_second) / self.per_tick))
        self.duration = n_ticks * self.tick
        self.network = build_network(
            self.seed, storage="durable", snapshot_interval=32, block_interval=0.25,
            max_block_txs=50, view_timeout=min(4.0, max(0.5, self.duration / 10)))
        self.network.install_contract(IdentityContract)
        self.network.install_contract(SupplyChainContract)
        self.auditor = InvariantAuditor(self.network, strict=False)
        self.schedule = FailureSchedule(self.network.sim, self.network.net)
        self.accounts = register_sharers(self.network, self.n_accounts)
        self.ticks = [
            [(self.rng.randrange(self.n_accounts), share_args(f"t{tick}-{i}", "root"))
             for i in range(self.per_tick)]
            for tick in range(n_ticks)
        ]
        self.tx_ids: list[str] = []
        self.watch = CommitWatch(self.network)

    def run(self, tracer: Any) -> None:
        network, duration = self.network, self.duration
        assert network is not None and self.watch is not None
        start = network.sim.now
        # Faults at fixed fractions of the run, for every seed: a follower
        # with a torn WAL tail, then the view-0 primary.
        self.schedule.torn_write_at(start + 0.15 * duration - 0.01, "peer-3")
        self.schedule.crash_at(start + 0.15 * duration, "peer-3")
        self.schedule.restart_at(start + 0.35 * duration, "peer-3")
        self.primary_crash = start + 0.55 * duration
        self.schedule.crash_at(self.primary_crash, "peer-0")
        self.schedule.restart_at(start + 0.80 * duration, "peer-0")
        for number, burst in enumerate(self.ticks):
            tracer.op_id = f"tick-{number}"
            begin = _clock()
            for account, args in burst:
                tx = self.guarded(lambda: network.endorse_transaction(
                    self.accounts[account], "supplychain", "record_node", args))
                if tx is not None and self.guarded(lambda: network.submit(tx)) is not None:
                    self.tx_ids.append(tx.tx_id)
            self.watch.sample_mempools()
            network.run_for(self.tick)
            self.done(len(burst), _clock() - begin)
        tracer.op_id = "settle"
        network.run_for(self.settle)
        self.failed += sum(1 for tx_id in self.tx_ids if tx_id not in self.watch.commit_ms)

    def client_metrics(self) -> dict[str, float]:
        assert self.watch is not None
        up = [times for node, times in self.watch.peer_commits.items()
              if node not in ("peer-0", "peer-3")]
        outage = max(
            (later - earlier for times in up for earlier, later in zip(times, times[1:])
             if later > self.primary_crash), default=0.0)
        catchups = [latency for _, latency in self.auditor.catchup_latencies(self.schedule.log)]
        return {
            "client.outage_sim_s": outage,
            "client.catchup_sim_s": max((c for c in catchups if c is not None), default=0.0),
        }

    def gate(self) -> list[Check]:
        assert self.network is not None
        checks = self.chain_checks()
        violations = self.auditor.final_check(failures=self.schedule.log)
        checks.append(("InvariantAuditor.final_check violations",
                       [str(v) for v in violations], []))
        checks.append(self.acknowledged_everywhere(self.tx_ids))
        catchups = self.auditor.catchup_latencies(self.schedule.log)
        checks.append(("restarted peers that caught up",
                       sum(1 for _, latency in catchups if latency is not None), 2))
        sample = self.rng.sample([args["article_id"] for burst in self.ticks for _, args in burst], 25)
        checks += self.provenance_checks(sample)
        return checks


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls
    for cls in (NewsroomPublish, ExternalScreening, ShareBurst, ReaderFollow, CrashRecover)
}
