"""Factual database seeding/promotion and the newsroom workflow."""

import pytest

from repro.errors import ContractError, PlatformError


@pytest.fixture
def pub_platform(platform):
    platform.register_participant("acme", role="publisher")
    platform.create_distribution_platform("acme", "acme-news")
    platform.create_news_room("acme", "acme-news", "desk", "politics")
    platform.register_participant("journo", role="journalist")
    platform.authenticate_journalist("acme-news", "journo")
    return platform


# -- factual database ---------------------------------------------------------


def test_seed_fact_and_list(platform):
    platform.seed_fact("f-1", "official text one", "senate-record", "politics")
    platform.seed_fact("f-2", "official text two", "senate-record", "health")
    assert platform.facts() == ["f-1", "f-2"]
    assert platform.facts(topic="health") == ["f-2"]


def test_seed_fact_duplicate_rejected(platform):
    platform.seed_fact("f-1", "text", "src", "politics")
    with pytest.raises(ContractError, match="already recorded"):
        platform.chain.invoke(
            platform.governance, "factualdb", "seed_fact",
            {"fact_id": "f-1", "content_hash": "x", "source": "s", "topic": "politics"},
        )


def test_seed_requires_verified_identity(platform):
    rogue = platform.chain.new_account()
    with pytest.raises(ContractError, match="verified"):
        platform.chain.invoke(
            rogue, "factualdb", "seed_fact",
            {"fact_id": "f-9", "content_hash": "x", "source": "s", "topic": "politics"},
        )


@pytest.fixture
def reported(platform):
    """A platform with one external report, ``a-x``, recorded and unranked,
    by an unverified reader."""
    platform.register_participant("reader", role="consumer", verified=False)
    platform.report_external("reader", "a-x", "the council approved the budget on monday",
                             "politics", source="https://o.example")
    return platform


def _rank(platform, article_id, final_score, signer=None):
    return platform.chain.invoke(
        signer or platform.governance, "supplychain", "record_ranking",
        {"article_id": article_id, "provenance_score": final_score, "ai_score": None,
         "crowd_score": None, "final_score": final_score},
    )


def test_promote_enforces_threshold_on_chain(reported):
    _rank(reported, "a-x", 0.3)
    with pytest.raises(ContractError, match="below promotion threshold"):
        reported.chain.invoke(reported.governance, "factualdb", "promote",
                              {"fact_id": "p-1", "article_id": "a-x"})


def test_only_a_verified_identity_ranks(reported):
    """A ranking is what promotion reads, so an unregistered key (or a
    registered, unverified one) ranking an article 1.0 must not commit:
    it used to, and ``promote_to_factual`` then promoted the article."""
    for forger in (reported.chain.new_account(), reported.account("reader")):
        with pytest.raises(ContractError, match="only verified identities may rank"):
            _rank(reported, "a-x", 1.0, signer=forger)
    with pytest.raises(PlatformError, match="no recorded ranking"):
        reported.promote_to_factual("a-x")
    assert reported.facts() == []


def test_promotion_reads_the_record_and_the_ranking(reported):
    """``promote`` takes a fact id and an article id; the content hash and
    topic come from the article's record and the score from its ranking.
    A verified checker used to promote an article ranked 0.0, or one never
    recorded, by claiming a 0.99 score and an invented hash."""
    reported.register_participant("checker", role="checker")
    checker = reported.account("checker")

    def promote(article_id, **claims):
        return reported.chain.invoke(checker, "factualdb", "promote",
                                     {"fact_id": "p-1", "article_id": article_id, **claims})

    _rank(reported, "a-x", 0.0)
    for article_id in ("a-x", "never-recorded"):
        with pytest.raises(ContractError):
            promote(article_id, content_hash="invented", topic="health", score=0.99)
    reported.report_external("reader", "a-y", "an unranked report about the weather",
                             "climate", source="https://p.example")
    for article_id, refusal in (("a-x", "below promotion threshold"),
                                ("a-y", "has no recorded ranking"),
                                ("never-recorded", "is not recorded")):
        with pytest.raises(ContractError, match=refusal):
            promote(article_id)
    assert reported.facts() == []
    _rank(reported, "a-x", 0.9)
    fact = promote("a-x").return_value
    node = reported.chain.query("supplychain", "get_node", {"article_id": "a-x"})
    assert (fact["content_hash"], fact["topic"], fact["score"], fact["added_by"]) == (
        node["content_hash"], node["topic"], 0.9, checker.address)


# -- newsroom workflow -------------------------------------------------------------


def test_platform_requires_publisher_role(platform):
    platform.register_participant("randomer", role="consumer")
    with pytest.raises(ContractError, match="may not found"):
        platform.create_distribution_platform("randomer", "pirate-news")


def test_platform_requires_verified_identity(platform):
    platform.register_participant("ghost", role="publisher", verified=False)
    with pytest.raises(ContractError, match="verified"):
        platform.create_distribution_platform("ghost", "ghost-news")


def test_duplicate_platform_rejected(pub_platform):
    with pytest.raises(ContractError, match="already exists"):
        pub_platform.create_distribution_platform("acme", "acme-news")


def test_room_only_by_owner(pub_platform):
    pub_platform.register_participant("rival", role="publisher")
    with pytest.raises(ContractError, match="owner"):
        pub_platform.chain.invoke(
            pub_platform.account("rival"), "newsroom", "create_room",
            {"platform_name": "acme-news", "room_name": "hijack", "topic": "politics"},
        )


def test_publish_pipeline_states(pub_platform):
    published = pub_platform.publish_article(
        "journo", "acme-news", "desk", "art-1", "the committee approved the bill.", "politics"
    )
    record = pub_platform.chain.query("newsroom", "get_article", {"article_id": "art-1"})
    assert record["state"] == "published"
    assert record["author"] == pub_platform.address_of("journo")
    assert published.receipt.success


def test_unauthenticated_author_cannot_draft(pub_platform):
    pub_platform.register_participant("outsider", role="journalist")
    with pytest.raises(ContractError, match="not authenticated"):
        pub_platform.publish_article(
            "outsider", "acme-news", "desk", "art-2", "text", "politics"
        )


def test_draft_in_unknown_room_rejected(pub_platform):
    with pytest.raises(ContractError, match="no such room"):
        pub_platform.publish_article("journo", "acme-news", "nowhere", "art-3", "text", "politics")


def test_reject_records_reason(pub_platform):
    journo = pub_platform.account("journo")
    chain = pub_platform.chain
    chain.invoke(journo, "newsroom", "submit_draft",
                 {"article_id": "art-4", "platform_name": "acme-news",
                  "room_name": "desk", "content_hash": "h"})
    chain.invoke(journo, "newsroom", "start_review", {"article_id": "art-4"})
    chain.invoke(pub_platform.account("acme"), "newsroom", "reject",
                 {"article_id": "art-4", "reason": "unverifiable sourcing"})
    record = chain.query("newsroom", "get_article", {"article_id": "art-4"})
    assert record["state"] == "rejected"
    events = [e for e in chain.ledger.events(kind="article-rejected")]
    assert events[0]["reason"] == "unverifiable sourcing"


def test_publish_requires_review_state(pub_platform):
    journo = pub_platform.account("journo")
    chain = pub_platform.chain
    chain.invoke(journo, "newsroom", "submit_draft",
                 {"article_id": "art-5", "platform_name": "acme-news",
                  "room_name": "desk", "content_hash": "h"})
    with pytest.raises(ContractError, match="expected 'in_review'"):
        chain.invoke(pub_platform.account("acme"), "newsroom", "publish",
                     {"article_id": "art-5"})


def test_only_author_starts_review(pub_platform):
    journo = pub_platform.account("journo")
    chain = pub_platform.chain
    chain.invoke(journo, "newsroom", "submit_draft",
                 {"article_id": "art-6", "platform_name": "acme-news",
                  "room_name": "desk", "content_hash": "h"})
    with pytest.raises(ContractError, match="only the author"):
        chain.invoke(pub_platform.account("acme"), "newsroom", "start_review",
                     {"article_id": "art-6"})


def test_unknown_platform_raises_platform_error(platform):
    platform.register_participant("solo", role="journalist")
    with pytest.raises(PlatformError):
        platform.publish_article("solo", "missing", "room", "a", "t", "politics")
