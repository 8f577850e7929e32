"""Platform topic routing and article inclusion proofs."""

import pytest

from repro.chain import BlockchainNetwork, NetworkedChain
from repro.core import TrustingNewsPlatform
from repro.corpus import CorpusGenerator
from repro.corpus.mutations import relay
from repro.errors import PlatformError
from repro.simnet import FixedLatency


@pytest.fixture
def world(platform):
    gen = CorpusGenerator(seed=64)
    fact = gen.factual(topic="sports")
    platform.seed_fact("f-s", fact.text, "league-record", "sports")
    platform.register_participant("espn", role="publisher")
    platform.create_distribution_platform("espn", "espn-wire")
    platform.create_news_room("espn", "espn-wire", "scores", "sports")
    return platform, gen, fact


def test_topic_routing(world):
    platform, gen, fact = world
    train = [gen.factual() for _ in range(160)]
    platform.train_topic_model([a.text for a in train], [a.topic for a in train])
    sports_article = gen.factual(topic="sports")
    topic, confidence = platform.suggest_topic(sports_article.text)
    assert topic == "sports"
    assert confidence > 0.5


def test_suggest_topic_requires_training(world):
    platform, *_ = world
    with pytest.raises(PlatformError, match="train_topic_model"):
        platform.suggest_topic("anything")


def _assert_proves_recording_tx(ledger, proof, article_id):
    """The proof names the block and tx that recorded *article_id*, found
    here the slow way: a scan of every committed transaction."""
    (recording,) = [
        c for c in ledger.transactions()
        if (c.transaction.contract, c.transaction.method) == ("supplychain", "record_node")
        and c.transaction.args["article_id"] == article_id
    ]
    assert proof["tx_id"] == recording.transaction.tx_id
    assert proof["block_height"] == recording.block_height
    assert proof["block_hash"] == ledger.block(recording.block_height).block_hash


def test_prove_article_inclusion(world):
    platform, gen, fact = world
    platform.publish_article("espn", "espn-wire", "scores", "s-1",
                             relay(fact, "espn", 1.0).text, "sports")
    proof = platform.prove_article("s-1")
    assert proof["verified"] is True
    _assert_proves_recording_tx(platform.chain.ledger, proof, "s-1")
    block = platform.chain.ledger.block(proof["block_height"])
    assert block.merkle_root == proof["merkle_root"]
    assert proof["proof"].verify(block.merkle_root)
    # Proof against the wrong root fails.
    other_block = platform.chain.ledger.block(max(0, proof["block_height"] - 1))
    assert not proof["proof"].verify(other_block.merkle_root)


def test_prove_unknown_article(world):
    platform, *_ = world
    with pytest.raises(PlatformError, match="no supply-chain record"):
        platform.prove_article("ghost")


def test_prove_article_over_consensus_and_after_snapshot_recovery():
    """Same answer from a NetworkedChain, and from peers whose ledgers
    were rebuilt from snapshot + log tail (the article sits below the
    snapshot, so its block comes from the archive)."""
    network = BlockchainNetwork(
        n_peers=4, consensus="pbft", block_interval=0.2, latency=FixedLatency(0.01),
        seed=66, storage="sqlite", snapshot_interval=4,
    )
    platform = TrustingNewsPlatform(seed=66, chain=NetworkedChain(network))
    gen = CorpusGenerator(seed=64)
    fact = gen.factual(topic="sports")
    platform.seed_fact("f-s", fact.text, "league-record", "sports")
    platform.register_participant("espn", role="publisher")
    platform.create_distribution_platform("espn", "espn-wire")
    platform.create_news_room("espn", "espn-wire", "scores", "sports")
    for article_id in ("n-1", "n-2", "n-3", "n-4", "n-5"):  # one block each: past a snapshot
        platform.publish_article("espn", "espn-wire", "scores", article_id,
                                 relay(fact, "espn", 1.0).text, "sports")
    before = platform.prove_article("n-1")
    assert before["verified"] is True
    _assert_proves_recording_tx(platform.chain.ledger, before, "n-1")
    with pytest.raises(PlatformError, match="no supply-chain record"):
        platform.prove_article("ghost")
    with pytest.raises(PlatformError, match="no supply-chain record"):
        platform.prove_article("fact:f-s")  # a graph node, but not a recorded article

    network.run_for(2.0)
    for peer in network.peers:
        peer.restart()
        report = peer.store.last_recovery
        assert report.mode == "snapshot+tail" and report.snapshot_height > before["block_height"]
    platform._graph_cache = None  # a reader starting cold on the recovered peers
    after = platform.prove_article("n-1")
    assert after["verified"] is True
    assert {k: v for k, v in after.items() if k != "proof"} == {
        k: v for k, v in before.items() if k != "proof"
    }
    _assert_proves_recording_tx(platform.chain.ledger, after, "n-1")


def test_rank_room_orders_articles(world):
    platform, gen, fact = world
    platform.publish_article("espn", "espn-wire", "scores", "rr-good",
                             relay(fact, "espn", 1.0).text, "sports")
    fake = gen.insertion_fake(relay(fact, "e", 0.0), "espn", 2.0, n_insertions=4)
    platform.publish_article("espn", "espn-wire", "scores", "rr-bad", fake.text, "sports")
    ranked = platform.rank_room("espn-wire", "scores")
    assert [r.article_id for r in ranked][0] == "rr-good"
    assert ranked[0].score > ranked[-1].score
    assert {r.article_id for r in ranked} == {"rr-good", "rr-bad"}


def test_rank_room_empty(world):
    platform, *_ = world
    assert platform.rank_room("espn-wire", "empty-room") == []
