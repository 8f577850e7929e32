"""Reads follow the ledger: ``Ledger.events(above=)`` and the platform's
``LedgerView`` — the fold of the blocks committed since the last read
into the supply-chain graph, the votes by article and the room lists.

The oracle everywhere is the from-genesis answer: ``events`` filtered by
height, ``build_supply_chain_graph`` of the same ledger, and the scan
expressions ``export_audit`` / ``rank_room`` used to run on every call.
"""

from dataclasses import replace

import pytest

from repro.chain import BlockchainNetwork, NetworkedChain
from repro.chain.ledger import Ledger
from repro.core import TrustingNewsPlatform, build_supply_chain_graph
from repro.corpus import CorpusGenerator
from repro.corpus.mutations import relay
from repro.simnet import FixedLatency
from repro.social.cascade import ShareEvent

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
    assert ledger.height > 20 and any(True for _ in ledger.events(kind="vote-cast"))
    assert_above_is_the_height_filter(ledger)


def test_events_above_on_a_ledger_rebuilt_from_recovery(platform):
    """Heights below the window come from the archive, through the same
    position lists."""
    populate(platform, CorpusGenerator(seed=5))
    live = platform.chain.ledger
    base = live.height // 2
    rebuilt = Ledger.from_recovery(
        [live._entry(height) for height in range(base, live.height + 1)],
        base=base, indexes=live.index_dump(), archive=live._entry,
    )
    assert list(rebuilt.events()) == list(live.events())
    assert_above_is_the_height_filter(rebuilt)


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
    for index in range(100):
        platform.register_participant(f"reader-{index}", role="consumer")
    ledger = platform.chain.ledger
    assert ledger.height >= 200
    platform.rank_room("wire-news", "politics")           # the view is at the head

    platform.cast_vote("checker-0", "a-1", True)
    new_block_events = sum(len(tx.events) for tx in ledger.head.transactions)
    yielded = []
    events = Ledger.events

    def counting(self, *args, **kwargs):
        for event in events(self, *args, **kwargs):
            yielded.append(event)
            yield event

    monkeypatch.setattr(Ledger, "events", counting)
    ranked = platform.rank_room("wire-news", "politics")
    assert sorted(r.article_id for r in ranked) == ["a-0", "a-1", "a-2"]
    assert 1 <= len(yielded) <= new_block_events
    assert all(event["_height"] == ledger.height for event in yielded)
    yielded.clear()
    platform.export_audit("a-1")                          # nothing new: nothing resolved
    assert yielded == []


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
