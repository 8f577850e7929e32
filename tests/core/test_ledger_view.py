"""Reads follow the ledger: ``Ledger.events(above=)`` and the platform's
``LedgerView`` — the fold of the blocks committed since the last read
into the supply-chain graph, the votes by article, the room lists and the
records, rankings and comments the audit bundle reads.

The oracle everywhere is the from-genesis answer: ``events`` filtered by
height, ``build_supply_chain_graph`` of the same ledger (and its
``trace_to_factual_root`` / ``find_original_author`` for the answers the
view keeps per node), the scan expressions ``export_audit`` /
``rank_room`` used to run on every call, and the contract queries
(``get_node``, ``get_ranking``, ``list_comments``) the bundle used to run.
"""

import copy
import random
from dataclasses import replace

import pytest

from repro.chain import BlockchainNetwork, NetworkedChain
from repro.chain.block import Block
from repro.chain.ledger import _ARCHIVE_CACHE_SIZE, Ledger
from repro.core import (
    TrustingNewsPlatform,
    build_supply_chain_graph,
    find_original_author,
    trace_to_factual_root,
)
from repro.core.platform import LedgerView
from repro.corpus import CorpusGenerator
from repro.corpus.mutations import relay
from repro.crypto import KeyPair
from repro.crypto.merkle import MerkleProof
from repro.errors import ContractError, PlatformError
from repro.simnet import FixedLatency
from repro.social.cascade import ShareEvent
from tests.chain.test_index import _EVENT_FILTERS, _build, _fold_events
from tests.conftest import RewriteContract, audit_oracle

#: Every ``(contract, kind)`` filter ``ledger.events(`` is called with under src/.
FILTERS = [
    (None, None),
    ("supplychain", "supply-node-recorded"),
    ("supplychain", "article-ranked"),
    ("votes", "vote-cast"),
    ("newsroom", "draft-submitted"),
    ("newsroom", "article-published"),
    ("newsroom", "journalist-authenticated"),
    ("newsroom", "review-started"),
    ("newsroom", "article-rejected"),
    ("identity", "identity-verified"),
    ("process-chain", None),
    ("supplychain", "no-such-kind"),
]


def open_room(platform, owner="wire", name="wire-news", room="politics"):
    platform.register_participant(owner, role="publisher")
    platform.create_distribution_platform(owner, name)
    platform.create_news_room(owner, name, room, "politics")


def populate(platform, gen, n_articles=3):
    """A small newsroom history touching every structure the view folds."""
    fact = gen.factual(topic="politics")
    platform.seed_fact("f-0", fact.text, "public-record", "politics")
    open_room(platform)
    articles = []
    for index in range(n_articles):
        article = relay(fact, "wire", float(index))
        platform.publish_article("wire", "wire-news", "politics", f"a-{index}",
                                 article.text, "politics")
        articles.append(article)
    for index in range(3):
        platform.register_participant(f"checker-{index}", role="checker")
        platform.cast_vote(f"checker-{index}", f"a-{index % n_articles}", index != 1)
    share = relay(articles[0], "checker-0", 9.0)
    platform.ingest_share(
        ShareEvent(time=0.0, round_index=0, agent_id="checker-0", source_agent_id="wire",
                   article_id="s-0", parent_article_id="a-0", op="share"),
        replace(share, article_id="s-0"),
    )
    platform.rank_article("a-0")
    return articles


def assert_view_is_the_from_genesis_build(platform, ledger=None):
    ledger = ledger or platform.chain.ledger
    oracle = build_supply_chain_graph(ledger)
    graph = platform.graph
    assert list(graph.nodes(data=True)) == list(oracle.nodes(data=True))
    assert list(graph.edges(data=True)) == list(oracle.edges(data=True))
    for article_id in [n for n, a in oracle.nodes(data=True) if not a["is_fact_root"]]:
        assert platform.export_audit(article_id)["votes"] == [
            {"voter": e["_sender"], "verdict": e["verdict"], "weight": e["weight"]}
            for e in ledger.events(contract="votes", kind="vote-cast")
            if e["article_id"] == article_id
        ]


def assert_above_is_the_height_filter(ledger):
    for contract, kind in FILTERS:
        everything = list(ledger.events(contract, kind))
        assert list(ledger.events(contract, kind, above=0)) == everything
        for height in range(ledger.height + 2):
            assert list(ledger.events(contract, kind, above=height)) == [
                e for e in everything if e["_height"] > height
            ], (contract, kind, height)


# -- (i) Ledger.events(above=) --------------------------------------------------


def test_events_above_on_a_live_ledger(platform):
    populate(platform, CorpusGenerator(seed=5))
    ledger = platform.chain.ledger
    # 17 blocks since a verified registration became one block (it was 21).
    assert ledger.height > 15 and any(True for _ in ledger.events(kind="vote-cast"))
    assert_above_is_the_height_filter(ledger)


def test_events_above_on_a_ledger_rebuilt_from_recovery(platform):
    """Heights below the window come from the archive, walked as the
    window's are."""
    populate(platform, CorpusGenerator(seed=5))
    live = platform.chain.ledger
    base = live.height // 2
    rebuilt = Ledger.from_recovery(
        [live._entry(height) for height in range(base, live.height + 1)],
        base=base, index=live.index.dump(), archive=live._entry,
    )
    assert list(rebuilt.events()) == list(live.events())
    assert_above_is_the_height_filter(rebuilt)


def recovered(live, window=4):
    """*live* as a snapshot recovery leaves it: the top *window* heights in
    memory, the rest behind an archive that records each height it loads."""
    base = live.height - window
    loads = []

    def archive(height):
        loads.append(height)
        return live._entry(height)

    rebuilt = Ledger.from_recovery(
        [live._entry(height) for height in range(base, live.height + 1)],
        base=base, index=live.index.dump(), archive=archive,
    )
    return rebuilt, loads


def test_a_cold_fold_decodes_each_archived_block_once(platform):
    """More archived heights with events than the archive cache holds: one
    walk loads each of them once (reading events back by position once
    loaded them all a second time, past the cache)."""
    populate(platform, CorpusGenerator(seed=5))
    for index in range(_ARCHIVE_CACHE_SIZE + 10):
        platform.register_participant(f"reader-{index}", role="consumer")
    live = platform.chain.ledger
    rebuilt, loads = recovered(live)
    archived = range(1, rebuilt._base)
    assert sum(any(tx.events for tx in live.block(h).transactions)
               for h in archived) > _ARCHIVE_CACHE_SIZE
    cold, warm = LedgerView().follow(rebuilt), LedgerView().follow(live)
    assert loads == list(archived)
    assert list(cold.graph.nodes(data=True)) == list(warm.graph.nodes(data=True))
    assert list(cold.graph.edges(data=True)) == list(warm.graph.edges(data=True))
    assert cold.records == warm.records and cold.votes == warm.votes


def test_every_event_filter_decodes_each_archived_block_once():
    keypairs = [KeyPair.generate(random.Random(seed)) for seed in range(3)]
    live = _build(keypairs, _ARCHIVE_CACHE_SIZE + 10)
    rebuilt, loads = recovered(live)
    for filters in _EVENT_FILTERS:
        loads.clear()
        assert list(rebuilt.events(**filters)) == _fold_events(live, **filters), filters
        assert loads == list(range(1, rebuilt._base)), filters


@pytest.fixture
def networked():
    network = BlockchainNetwork(
        n_peers=4, consensus="pbft", block_interval=0.2, latency=FixedLatency(0.01),
        seed=31, storage="durable", snapshot_interval=4,
    )
    platform = TrustingNewsPlatform(seed=31, chain=NetworkedChain(network))
    return platform, network


def test_events_above_after_a_peer_restart(networked):
    platform, network = networked
    populate(platform, CorpusGenerator(seed=6), n_articles=2)
    network.run_for(2.0)
    peer = network.peers[1]
    before = list(peer.ledger.events())
    peer.crashed = True
    peer.restart()
    assert peer.ledger._base > 0, "recovery should have started from a snapshot"
    assert list(peer.ledger.events()) == before
    assert_above_is_the_height_filter(peer.ledger)


# -- (iii) the ledger under the view moves between peers -------------------------


def test_view_follows_a_ledger_that_gets_shorter_and_longer_again(networked):
    platform, network = networked
    chain = platform.chain
    gen = CorpusGenerator(seed=7)
    articles = populate(platform, gen, n_articles=2)
    network.run_for(2.0)
    lagging, *ahead = reversed(network.peers)
    lagging.crashed = True
    platform.publish_article("wire", "wire-news", "politics", "late",
                             relay(articles[0], "wire", 5.0).text, "politics")
    platform.cast_vote("checker-2", "late", True)
    tall = chain.ledger.height
    assert lagging.ledger.height < tall
    assert_view_is_the_from_genesis_build(platform)
    assert "late" in platform.graph and platform._view.height == tall
    graph_when_tall = platform.graph

    # Every peer the ledger could point at crashes; the one left is behind.
    for peer in ahead:
        peer.crashed = True
    lagging.crashed = False
    assert chain.ledger is lagging.ledger and chain.ledger.height < tall
    assert_view_is_the_from_genesis_build(platform)
    assert "late" not in platform.graph and platform.graph is not graph_when_tall
    assert platform._view.height == lagging.ledger.height
    assert [r.article_id for r in platform.rank_room("wire-news", "politics")].count("late") == 0
    graph_when_short = platform.graph

    # They restart (ledgers rebuilt by recovery): the chain extends what
    # was folded, so the view goes on from where it is.
    for peer in ahead:
        peer.restart()
    assert chain.ledger.height == tall and chain.ledger is not lagging.ledger
    assert_view_is_the_from_genesis_build(platform)
    assert platform.graph is graph_when_short and "late" in platform.graph
    assert sorted(r.article_id for r in platform.rank_room("wire-news", "politics")) == [
        "a-0", "a-1", "late"]

    # Same height, another block there: nothing to go on from.
    platform._view.head_hash = "0" * 64
    assert_view_is_the_from_genesis_build(platform)
    assert platform.graph is not graph_when_short
    assert platform._view.head_hash == chain.ledger.head.block_hash

    network.run_for(5.0)
    network.assert_convergence()
    assert_view_is_the_from_genesis_build(platform, network.peers[-1].ledger)


# -- (iv) a fresh read costs the new block, not the chain -------------------------


def test_fresh_rank_room_resolves_only_the_new_block(platform, monkeypatch):
    gen = CorpusGenerator(seed=8)
    populate(platform, gen)
    # 200 registrations: one block each since register and verify became
    # one unit (there were 100, of two blocks each).
    for index in range(200):
        platform.register_participant(f"reader-{index}", role="consumer")
    ledger = platform.chain.ledger
    assert ledger.height >= 200
    platform.rank_room("wire-news", "politics")           # the view is at the head

    platform.cast_vote("checker-0", "a-1", True)
    walked = []  # the height of each transaction the fold walks
    block_validity = Ledger.block_validity

    def counting(self, height):
        verdicts = block_validity(self, height)
        walked.extend([height] * len(verdicts))
        return verdicts

    monkeypatch.setattr(Ledger, "block_validity", counting)
    ranked = platform.rank_room("wire-news", "politics")
    assert sorted(r.article_id for r in ranked) == ["a-0", "a-1", "a-2"]
    assert 1 <= len(walked) <= len(ledger.head.transactions)
    assert all(height == ledger.height for height in walked)
    walked.clear()
    platform.export_audit("a-1")                          # nothing new: nothing walked
    assert walked == []


# -- rank_room honours the platform ------------------------------------------------


def test_rank_room_lists_the_named_platforms_room_only(platform):
    """Two platforms, each with a room of the same name: the
    ``article-published`` event carries the room only, the draft it
    publishes names the platform."""
    gen = CorpusGenerator(seed=9)
    fact = gen.factual(topic="politics")
    platform.seed_fact("f-0", fact.text, "public-record", "politics")
    open_room(platform, "owner-a", "A")
    open_room(platform, "owner-b", "B")
    platform.publish_article("owner-a", "A", "politics", "in-a",
                             relay(fact, "owner-a", 1.0).text, "politics")
    platform.publish_article("owner-b", "B", "politics", "in-b",
                             relay(fact, "owner-b", 2.0).text, "politics")
    assert [r.article_id for r in platform.rank_room("A", "politics")] == ["in-a"]
    assert [r.article_id for r in platform.rank_room("B", "politics")] == ["in-b"]
    assert platform.rank_room("nope", "politics") == []
    assert platform.rank_room("A", "nope") == []


def test_a_draft_joins_its_room_when_it_is_published_not_before(platform):
    open_room(platform)
    wire = platform.account("wire")
    platform.chain.invoke(wire, "newsroom", "submit_draft", {
        "article_id": "slow", "platform_name": "wire-news", "room_name": "politics",
        "content_hash": "0" * 64})
    assert platform.rank_room("wire-news", "politics") == []
    platform.chain.invoke(wire, "newsroom", "start_review", {"article_id": "slow"})
    assert platform.rank_room("wire-news", "politics") == []
    platform.chain.invoke(wire, "newsroom", "publish", {"article_id": "slow"})
    assert [r.article_id for r in platform.rank_room("wire-news", "politics")] == ["slow"]


# -- kept answers: a recorded node's trace and author ----------------------------


def assert_kept_answers_are_the_oracle(view, ledger):
    """Every node's trace and author, asked twice (the second answer is the
    kept one), equal the from-genesis build's."""
    oracle = build_supply_chain_graph(ledger)
    assert list(view.graph.nodes) == list(oracle.nodes)
    for node in oracle.nodes:
        for _ in range(2):
            assert view.trace(node) == trace_to_factual_root(oracle, node), node
            assert view.author(node) == find_original_author(oracle, node), node


def ledger_through(ledger, height, replace_last=False):
    """A second peer's copy of *ledger* through *height*; with
    *replace_last*, an empty block of its own at *height* (a fork)."""
    copy = Ledger()
    for h in range(1, height + (not replace_last)):
        copy.append(ledger.block(h), ledger.block_validity(h))
    if replace_last:
        copy.append(Block.build(height=height, prev_hash=copy.head.block_hash,
                                timestamp=-1.0, proposer="fork", transactions=[]), [])
    return copy


def share(platform, article, share_id, parent_id, sharer="checker-1"):
    platform.ingest_share(
        ShareEvent(time=0.0, round_index=0, agent_id=sharer, source_agent_id="wire",
                   article_id=share_id, parent_article_id=parent_id, op="share"),
        replace(relay(article, sharer, 3.0), article_id=share_id),
    )


def test_kept_answers_equal_the_from_genesis_oracle_as_the_ledger_grows(platform):
    ledger = platform.chain.ledger
    view = LedgerView().follow(ledger)
    # Asked before it is recorded: answered, not kept.
    assert not view.trace("late").traceable and view.author("late") is None
    articles = populate(platform, CorpusGenerator(seed=10))
    assert_kept_answers_are_the_oracle(view.follow(ledger), ledger)
    for index in range(3):
        share(platform, articles[index], f"s-{index + 1}", f"a-{index}")
        assert_kept_answers_are_the_oracle(view.follow(ledger), ledger)
    platform.publish_article("wire", "wire-news", "politics", "late",
                             relay(articles[1], "wire", 4.0).text, "politics")
    share(platform, articles[1], "s-late", "late")
    view.follow(ledger)
    assert view.trace("late").traceable and view.author("late") is not None
    assert_kept_answers_are_the_oracle(view, ledger)


def test_kept_answers_start_over_with_a_shorter_or_forked_ledger(platform):
    articles = populate(platform, CorpusGenerator(seed=11))
    share(platform, articles[1], "s-1", "a-1")
    ledger = platform.chain.ledger
    recorded_at = platform.graph.nodes["s-1"]["recorded_at"]
    view = LedgerView().follow(ledger)
    assert view.trace("s-1").traceable and view.author("s-1") is not None

    # Another peer's ledger, behind the record: the kept answers go.
    shorter = ledger_through(ledger, recorded_at - 1)
    assert_kept_answers_are_the_oracle(view.follow(shorter), shorter)
    assert "s-1" not in view.graph
    assert not view.trace("s-1").traceable and view.author("s-1") is None

    # At the record's height, then a fork there: the block is another one.
    assert_kept_answers_are_the_oracle(view.follow(ledger_through(ledger, recorded_at)),
                                       ledger_through(ledger, recorded_at))
    assert view.trace("s-1").traceable
    forked = ledger_through(ledger, recorded_at, replace_last=True)
    assert forked.height == view.height and forked.head.block_hash != view.head_hash
    assert_kept_answers_are_the_oracle(view.follow(forked), forked)
    assert not view.trace("s-1").traceable and view.author("s-1") is None

    assert_kept_answers_are_the_oracle(view.follow(ledger), ledger)


def test_a_returned_trace_is_the_caller_s_own(platform):
    populate(platform, CorpusGenerator(seed=12))
    view = LedgerView().follow(platform.chain.ledger)
    oracle = trace_to_factual_root(build_supply_chain_graph(platform.chain.ledger), "s-0")
    first = view.trace("s-0")
    assert first == oracle and first.traceable and len(first.path) > 1
    first.path.append("tampered")
    first.path.reverse()
    first.root = "tampered"
    assert view.trace("s-0") == oracle
    assert view.trace("s-0").path is not view.trace("s-0").path
    assert platform.trace("s-0") == oracle
    platform.trace("s-0").path.clear()
    assert platform.export_audit("s-0")["trace"]["path"] == oracle.path


# -- the audit bundle: a fold of the recording transactions' write sets ----------


def recorded(ledger):
    return [e["article_id"] for e in ledger.events(contract="supplychain",
                                                   kind="supply-node-recorded")]


def assert_audits_are_the_oracle(platform, view):
    """After a follow, every recorded article's bundle — from the view and
    from ``export_audit`` — is the contract queries' on the live state."""
    ledger = platform.chain.ledger
    view.follow(ledger)
    for article_id in recorded(ledger):
        want = audit_oracle(platform.chain.query, ledger, article_id)
        assert view.audit(article_id) == want, article_id
        assert platform.export_audit(article_id) == want, article_id


def comment(platform, article_id, comment_id, name="checker-0"):
    return platform.chain.invoke(platform.account(name), "newsroom", "comment", {
        "article_id": article_id, "comment_id": comment_id, "content_hash": "ab" * 32})


def test_folded_audit_equals_the_contract_oracle_after_every_follow(platform, monkeypatch):
    ledger = platform.chain.ledger
    view = LedgerView()
    articles = populate(platform, CorpusGenerator(seed=13))   # groups, votes, a share, a ranking
    assert_audits_are_the_oracle(platform, view)
    platform.rank_article("a-0")                              # re-recorded
    platform.rank_article("a-1")
    assert_audits_are_the_oracle(platform, view)
    comment(platform, "a-1", "c-2")
    comment(platform, "a-1", "c-1", name="checker-1")          # key order, not chain order
    comment(platform, "a-0", "c-1")
    assert_audits_are_the_oracle(platform, view)
    assert [c["comment_id"] for c in view.audit("a-1")["comments"]] == ["c-1", "c-2"]

    # A record_ranking endorsed, then made stale before its block: it
    # commits invalid, and its write set is not folded.
    chain = platform.chain
    chain.install_contract(RewriteContract())
    ranked_before = view.audit("a-1")["ranking"]
    commit = chain._commit

    def conflict_first(txs):
        monkeypatch.setattr(chain, "_commit", commit)
        chain.invoke(platform.governance, "rewrite", "touch", {"key": "scnode:a-1"})
        return commit(txs)

    monkeypatch.setattr(chain, "_commit", conflict_first)
    with pytest.raises(ContractError, match="MVCC conflict"):
        chain.invoke(platform.governance, "supplychain", "record_ranking", {
            "article_id": "a-1", "provenance_score": 0.0, "ai_score": None,
            "crowd_score": None, "final_score": 0.987})
    stale = ledger.head.transactions[-1]
    assert not ledger.get_transaction(stale.tx_id).valid
    assert stale.write_set["scrank:a-1"]["final_score"] == 0.987
    assert_audits_are_the_oracle(platform, view)
    assert view.audit("a-1")["ranking"] == ranked_before

    platform.publish_article("wire", "wire-news", "politics", "late",
                             relay(articles[2], "wire", 6.0).text, "politics")
    share(platform, articles[2], "s-late", "late")
    comment(platform, "late", "first")
    platform.cast_vote("checker-2", "late", False)
    platform.rank_article("late")
    assert_audits_are_the_oracle(platform, view)
    with pytest.raises(PlatformError, match="not on the ledger"):
        view.audit("ghost")


def test_folded_audit_starts_over_with_a_shorter_or_forked_ledger(platform, monkeypatch):
    articles = populate(platform, CorpusGenerator(seed=14))
    comment(platform, "a-0", "c-0")
    ranked_at = platform.chain.ledger.height
    platform.rank_article("a-1")
    comment(platform, "a-0", "c-1")
    share(platform, articles[1], "s-1", "a-1")
    ledger = platform.chain.ledger
    registry = platform.chain.registry
    view = LedgerView().follow(ledger)
    assert view.audit("a-1")["ranking"] and len(view.audit("a-0")["comments"]) == 2

    def check(shown):
        state = shown.replay_state()

        def query(contract, method, args):
            return registry.execute(state, contract, method, args, caller="query",
                                    timestamp=0.0, tx_id="query").return_value

        view.follow(shown)
        assert sorted(view.records) == sorted(recorded(shown))
        for article_id in recorded(shown):
            assert view.audit(article_id) == audit_oracle(query, shown, article_id)

    shorter = ledger_through(ledger, ranked_at)
    check(shorter)
    assert [c["comment_id"] for c in view.audit("a-0")["comments"]] == ["c-0"]
    assert view.audit("a-1")["ranking"] is None and view.audit("a-0")["ranking"]
    assert "s-1" not in view.records
    monkeypatch.setattr(platform.chain, "ledger", shorter)
    with pytest.raises(PlatformError, match="no supply-chain record"):
        platform.prove_article("s-1")
    forked = ledger_through(ledger, ranked_at, replace_last=True)
    check(forked)
    check(ledger)
    assert view.audit("a-1")["ranking"] and len(view.audit("a-0")["comments"]) == 2
    monkeypatch.setattr(platform.chain, "ledger", ledger)
    proof = platform.prove_article("s-1")
    assert proof["verified"] and proof["tx_id"] == view.graph.nodes["s-1"]["tx_id"]


def test_nothing_an_audit_hands_out_reaches_the_fold_or_the_write_set(platform):
    populate(platform, CorpusGenerator(seed=15))
    comment(platform, "a-0", "c-0")
    ledger = platform.chain.ledger
    view = LedgerView().follow(ledger)
    writes = {tx.tx_id: copy.deepcopy(tx.write_set)
              for block in ledger.blocks() for tx in block.transactions}
    want = audit_oracle(platform.chain.query, ledger, "a-0")
    for bundle in (view.audit("a-0"), platform.export_audit("a-0")):
        bundle["node"]["parents"].append("tampered")
        bundle["node"]["fact_degrees"].clear()
        bundle["node"]["topic"] = "tampered"
        bundle["ranking"]["final_score"] = -1.0
        bundle["votes"][0]["verdict"] = "tampered"
        bundle["votes"].append({"voter": "tampered"})
        bundle["comments"][0]["author"] = "tampered"
        bundle["comments"].clear()
        bundle["trace"]["path"].clear()
    assert view.audit("a-0") == want and platform.export_audit("a-0") == want
    assert {tx.tx_id: tx.write_set
            for block in ledger.blocks() for tx in block.transactions} == writes


def test_prove_article_proves_and_verifies_on_every_call(platform, monkeypatch):
    built, verified = [], []
    prove_inclusion, verify = Block.prove_inclusion, MerkleProof.verify

    def counting_prove(block, tx_id, index=None):
        built.append(tx_id)
        return prove_inclusion(block, tx_id, index)

    def counting_verify(proof, root):
        verified.append(proof.leaf)
        return verify(proof, root)

    monkeypatch.setattr(Block, "prove_inclusion", counting_prove)
    monkeypatch.setattr(MerkleProof, "verify", counting_verify)
    articles = populate(platform, CorpusGenerator(seed=16))
    ledger = platform.chain.ledger
    nodes = recorded(ledger)
    assert built == []  # publishing and folding build no proof
    for _ in range(3):
        for article_id in nodes:
            proof = platform.prove_article(article_id)
            committed = ledger.get_transaction(proof["tx_id"])
            block = ledger.block(committed.block_height)
            assert proof["verified"] is True and proof["block_height"] == block.height
            assert (proof["block_hash"], proof["merkle_root"]) == (
                block.block_hash, block.merkle_root)
            assert proof["proof"] == prove_inclusion(block, proof["tx_id"])
    assert sorted(built) == sorted(3 * [platform.graph.nodes[a]["tx_id"] for a in nodes])
    assert len(verified) == 3 * len(nodes)

    share(platform, articles[0], "s-1", "a-0")
    assert platform.prove_article("s-1")["verified"] is True
    assert built[-1] == platform.graph.nodes["s-1"]["tx_id"]
    assert len(built) == 3 * len(nodes) + 1 and len(verified) == 3 * len(nodes) + 1
    with pytest.raises(PlatformError, match="no supply-chain record"):
        platform.prove_article("fact:f-0")


def test_a_cold_follow_builds_no_proof(platform, monkeypatch):
    """A graph-only reader — ``build_supply_chain_graph``, a cold
    ``LedgerView().follow`` — folds every record and proves none."""
    articles = populate(platform, CorpusGenerator(seed=17))
    share(platform, articles[0], "s-1", "a-0")
    built = []
    prove_inclusion = Block.prove_inclusion
    monkeypatch.setattr(Block, "prove_inclusion", lambda block, tx_id, index=None: (
        built.append(tx_id) or prove_inclusion(block, tx_id, index)))
    view = LedgerView().follow(platform.chain.ledger)
    assert "s-1" in view.records and len(view.records) == len(recorded(platform.chain.ledger))
    assert built == []


# -- ids that nest with ':' ------------------------------------------------------


@pytest.fixture
def nested(platform):
    """Two published articles, ``a`` and ``a:b``, and a verified reader."""
    fact = CorpusGenerator(seed=17).factual(topic="politics")
    open_room(platform)
    for index, article_id in enumerate(("a", "a:b")):
        platform.publish_article("wire", "wire-news", "politics", article_id,
                                 relay(fact, "wire", float(index)).text, "politics")
    platform.register_participant("checker-0", role="checker")
    return platform


def test_a_vote_on_a_nested_id_is_not_a_vote_on_its_prefix(nested):
    nested.cast_vote("checker-0", "a:b", True)
    query = nested.chain.query
    assert query("votes", "tally", {"article_id": "a"}) == {"factual_share": 0.5, "votes": 0}
    assert query("votes", "tally", {"article_id": "a:b"}) == {"factual_share": 1.0, "votes": 1}
    view = LedgerView().follow(nested.chain.ledger)
    assert view.crowd_score("a") is None and view.crowd_score("a:b") == 1.0


def test_a_comment_on_a_nested_id_is_not_a_comment_on_its_prefix(nested):
    comment(nested, "a:b", "c")
    query = nested.chain.query
    assert query("newsroom", "list_comments", {"article_id": "a"}) == []
    assert [c["comment_id"] for c in query("newsroom", "list_comments",
                                           {"article_id": "a:b"})] == ["c"]
    assert nested.export_audit("a")["comments"] == []
    assert [c["comment_id"] for c in nested.export_audit("a:b")["comments"]] == ["c"]


def test_a_comment_id_cannot_take_the_key_of_another_articles_comment(nested):
    """``b:c`` on ``a`` and ``c`` on ``a:b`` would both be ``comment:a:b:c``."""
    with pytest.raises(ContractError, match="may not contain ':'"):
        comment(nested, "a", "b:c")
    comment(nested, "a:b", "c")
    assert [c["article_id"] for c in nested.export_audit("a:b")["comments"]] == ["a:b"]
