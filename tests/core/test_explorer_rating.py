"""Chain explorer views and ledger-derived source ratings."""

import pytest

from repro.chain.explorer import (
    chain_summary,
    describe_block,
    describe_transaction,
    find_transactions,
)
from repro.core.source_rating import rate_distribution_platform
from repro.corpus import CorpusGenerator
from repro.corpus.mutations import relay


@pytest.fixture
def world(platform):
    gen = CorpusGenerator(seed=71)
    facts = [gen.factual(topic="politics") for _ in range(3)]
    for index, fact in enumerate(facts):
        platform.seed_fact(f"f-{index}", fact.text, "record", "politics")
    # A diligent platform and a content mill.
    platform.register_participant("good-pub", role="publisher")
    platform.create_distribution_platform("good-pub", "good-news")
    platform.create_news_room("good-pub", "good-news", "good-desk", "politics")
    platform.register_participant("mill-pub", role="publisher")
    platform.create_distribution_platform("mill-pub", "mill-news")
    platform.create_news_room("mill-pub", "mill-news", "mill-desk", "politics")
    platform.register_participant("good-journo", role="journalist")
    platform.authenticate_journalist("good-news", "good-journo")
    platform.register_participant("mill-journo", role="journalist")
    platform.authenticate_journalist("mill-news", "mill-journo")
    for index in range(3):
        platform.register_participant(f"rater-{index}", role="checker")
    for index, fact in enumerate(facts):
        platform.publish_article("good-journo", "good-news", "good-desk",
                                 f"good-{index}", relay(fact, "g", float(index)).text, "politics")
        fake = gen.insertion_fake(relay(fact, "x", 0.0), "mill-journo",
                                  float(index), n_insertions=4)
        platform.publish_article("mill-journo", "mill-news", "mill-desk",
                                 f"mill-{index}", fake.text, "politics")
        # Fact checkers weigh in (realistic operation: rankings fuse
        # crowd votes, not provenance alone).
        for rater in range(3):
            platform.cast_vote(f"rater-{rater}", f"good-{index}", True)
            platform.cast_vote(f"rater-{rater}", f"mill-{index}", False)
        platform.rank_article(f"good-{index}")
        platform.rank_article(f"mill-{index}")
    return platform


# -- explorer ----------------------------------------------------------------


def test_chain_summary(world):
    summary = chain_summary(world.chain.ledger)
    assert summary["height"] == summary["blocks"] - 1
    assert summary["transactions"] == summary["valid_transactions"]
    assert summary["transactions_by_contract"]["newsroom"] > 0
    assert summary["head_hash"] == world.chain.ledger.head.block_hash


def test_describe_block(world):
    block = world.chain.ledger.block(1)
    described = describe_block(block)
    assert described["height"] == 1
    assert described["tx_count"] == len(described["transactions"]) == 1
    assert "identity.register" in described["transactions"][0]


def test_describe_transaction(world):
    committed = next(world.chain.ledger.transactions())
    described = describe_transaction(world.chain.ledger, committed.transaction.tx_id)
    assert described["valid"] is True
    assert described["contract"] == committed.transaction.contract
    assert describe_transaction(world.chain.ledger, "ff" * 32) is None


def test_find_transactions_filters(world):
    votes = find_transactions(world.chain.ledger, contract="supplychain",
                              method="record_ranking")
    assert len(votes) == 6
    by_sender = find_transactions(world.chain.ledger,
                                  sender=world.address_of("mill-journo"))
    assert by_sender and all(t["sender"] == world.address_of("mill-journo") for t in by_sender)
    assert find_transactions(world.chain.ledger, contract="nope") == []


def test_find_transactions_limit(world):
    assert len(find_transactions(world.chain.ledger, limit=3)) == 3


# -- source ratings --------------------------------------------------------------


def test_good_platform_rates_green(world):
    rating = rate_distribution_platform(world.chain.ledger, world.graph, "good-news")
    assert rating.articles == 3
    assert rating.false_content_share == 0.0
    assert rating.verified_member_share == 1.0
    assert rating.color == "green"
    assert "good-news" in rating.as_row()


def test_mill_platform_rates_worse(world):
    good = rate_distribution_platform(world.chain.ledger, world.graph, "good-news")
    mill = rate_distribution_platform(world.chain.ledger, world.graph, "mill-news")
    assert mill.composite < good.composite
    assert mill.false_content_share > 0.5
    assert mill.provenance_discipline < good.provenance_discipline


def test_unrated_platform_is_grey(world):
    world.register_participant("fresh", role="publisher")
    world.create_distribution_platform("fresh", "fresh-news")
    rating = rate_distribution_platform(world.chain.ledger, world.graph, "fresh-news")
    assert rating.articles == 0
    assert rating.color == "grey"


def test_rating_reads_each_event_kind_once(platform, monkeypatch):
    """Regression: a room → platform lookup once re-read every
    ``room-created`` event per draft; a draft now names its platform and
    the rating makes one ledger read per kind, none of them per draft."""
    fact = CorpusGenerator(seed=71).factual(topic="politics")
    platform.seed_fact("f-0", fact.text, "record", "politics")
    platform.register_participant("pub", role="publisher")
    platform.create_distribution_platform("pub", "news")
    platform.create_news_room("pub", "news", "desk", "politics")
    platform.register_participant("journo", role="journalist")
    platform.authenticate_journalist("news", "journo")
    for index in range(20):
        platform.publish_article("journo", "news", "desk", f"a-{index}",
                                 relay(fact, "g", float(index)).text, "politics")
    ledger, graph = platform.chain.ledger, platform.graph
    reads = []
    events = ledger.events

    def counting(**filters):
        reads.append(filters["kind"])
        return events(**filters)

    monkeypatch.setattr(ledger, "events", counting)
    rating = rate_distribution_platform(ledger, graph, "news")
    assert rating.articles == 20 and rating.editorial_diligence == 1.0
    assert sorted(reads) == [
        "article-ranked", "article-rejected", "draft-submitted", "identity-verified",
        "journalist-authenticated", "review-started",
    ]


def test_same_named_rooms_on_two_platforms_keep_their_own_drafts(platform):
    """A draft names its platform: two platforms that each own a room
    called "room" are rated on their own articles (the event used to carry
    the room name only, and the first platform to open it got them all)."""
    fact = CorpusGenerator(seed=71).factual(topic="politics")
    platform.seed_fact("f-0", fact.text, "record", "politics")
    for owner, name in (("pub-a", "news-a"), ("pub-b", "news-b")):
        platform.register_participant(owner, role="publisher")
        platform.create_distribution_platform(owner, name)
        platform.create_news_room(owner, name, "room", "politics")
    platform.publish_article("pub-a", "news-a", "room", "a-0", relay(fact, "a", 0.0).text,
                             "politics")
    for index in range(2):
        platform.publish_article("pub-b", "news-b", "room", f"b-{index}",
                                 relay(fact, "b", float(index)).text, "politics")
    ledger, graph = platform.chain.ledger, platform.graph
    assert rate_distribution_platform(ledger, graph, "news-a").articles == 1
    assert rate_distribution_platform(ledger, graph, "news-b").articles == 2
    drafts = list(ledger.events(contract="newsroom", kind="draft-submitted"))
    assert [(e["platform"], e["room"]) for e in drafts] == [
        ("news-a", "room"), ("news-b", "room"), ("news-b", "room")]
