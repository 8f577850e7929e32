"""TrustingNewsPlatform facade: the integrated pipeline."""

import pytest

from repro.corpus import CorpusGenerator
from repro.corpus.mutations import relay
from repro.errors import IdentityError, PlatformError


@pytest.fixture
def world(platform):
    """Platform with facts seeded, a publisher, a journalist, a troll."""
    gen = CorpusGenerator(seed=70)
    facts = [gen.factual(topic="politics") for _ in range(3)]
    for index, fact in enumerate(facts):
        platform.seed_fact(f"f-{index}", fact.text, "public-record", "politics")
    platform.register_participant("acme", role="publisher")
    platform.create_distribution_platform("acme", "acme-news")
    platform.create_news_room("acme", "acme-news", "desk", "politics")
    for name in ("jane", "troll"):
        platform.register_participant(name, role="journalist")
        platform.authenticate_journalist("acme-news", name)
    return platform, gen, facts


def test_publish_links_to_fact_root(world):
    platform, gen, facts = world
    report = relay(facts[0], "jane", 1.0)
    published = platform.publish_article(
        "jane", "acme-news", "desk", "a-1", report.text, "politics"
    )
    assert published.fact_roots == ("f-0",)
    assert published.modification_degree == pytest.approx(0.0)
    assert platform.trace("a-1").traceable


def test_fake_ranks_below_factual(world):
    platform, gen, facts = world
    report = relay(facts[0], "jane", 1.0)
    platform.publish_article("jane", "acme-news", "desk", "a-1", report.text, "politics")
    fake = gen.malicious_derivation(report, "troll", 2.0)
    platform.publish_article("troll", "acme-news", "desk", "a-2", fake.text, "politics")
    factual_rank = platform.rank_article("a-1")
    fake_rank = platform.rank_article("a-2")
    assert factual_rank.score > fake_rank.score
    assert fake_rank.provenance_score < 1.0


def test_crowd_votes_feed_ranking(world):
    platform, gen, facts = world
    platform.publish_article("jane", "acme-news", "desk", "a-1",
                             relay(facts[1], "jane", 1.0).text, "politics")
    for index in range(4):
        platform.register_participant(f"checker-{index}", role="checker")
        platform.cast_vote(f"checker-{index}", "a-1", verdict=index != 0)
    assert platform.crowd_score("a-1") == pytest.approx(0.75)
    ranked = platform.rank_article("a-1")
    assert ranked.crowd_score == pytest.approx(0.75)


def test_crowd_score_none_without_votes(world):
    platform, gen, facts = world
    platform.publish_article("jane", "acme-news", "desk", "a-1",
                             relay(facts[1], "jane", 1.0).text, "politics")
    assert platform.crowd_score("a-1") is None


def test_ranking_recorded_on_chain(world):
    platform, gen, facts = world
    platform.publish_article("jane", "acme-news", "desk", "a-1",
                             relay(facts[0], "jane", 1.0).text, "politics")
    platform.rank_article("a-1")
    recorded = platform.chain.query("supplychain", "get_ranking", {"article_id": "a-1"})
    assert recorded is not None and 0 <= recorded["final_score"] <= 1


def test_promotion_gate(world):
    platform, gen, facts = world
    platform.publish_article("jane", "acme-news", "desk", "a-1",
                             relay(facts[0], "jane", 1.0).text, "politics")
    fake = gen.insertion_fake(relay(facts[0], "x", 0.0), "troll", 1.0, n_insertions=4)
    platform.publish_article("troll", "acme-news", "desk", "a-2", fake.text, "politics")
    # Fact-checkers weigh in against the fake (hybrid gate: provenance
    # alone cannot catch minimal-edit distortions — that is E6's point).
    for index in range(3):
        platform.register_participant(f"gatekeeper-{index}", role="checker")
        platform.cast_vote(f"gatekeeper-{index}", "a-2", verdict=False)
    platform.rank_article("a-1")
    platform.rank_article("a-2")
    platform.promote_to_factual("a-1")
    assert any(f.startswith("promoted-") for f in platform.facts())
    with pytest.raises(PlatformError, match="below promotion threshold"):
        platform.promote_to_factual("a-2")


def test_promotion_requires_prior_ranking(world):
    platform, gen, facts = world
    platform.publish_article("jane", "acme-news", "desk", "a-1",
                             relay(facts[0], "jane", 1.0).text, "politics")
    with pytest.raises(PlatformError, match="no recorded ranking"):
        platform.promote_to_factual("a-1")


def test_promoted_fact_becomes_provenance_root(world):
    platform, gen, facts = world
    platform.publish_article("jane", "acme-news", "desk", "a-1",
                             relay(facts[0], "jane", 1.0).text, "politics")
    platform.rank_article("a-1")
    platform.promote_to_factual("a-1", fact_id="new-fact")
    # A later relay of a-1's text should resolve to the new fact too.
    candidates = platform.index.discover_parents(relay(facts[0], "y", 3.0).text, max_parents=5)
    assert any(c.article_id == "fact:new-fact" for c in candidates)


def test_ai_scores_attached_when_trained(world, trained_scorer):
    platform, gen, facts = world
    platform.scorer = trained_scorer
    fake = gen.malicious_derivation(relay(facts[2], "x", 0.0), "troll", 1.0)
    published_fake = platform.publish_article("troll", "acme-news", "desk", "a-9",
                                              fake.text, "politics")
    published_real = platform.publish_article("jane", "acme-news", "desk", "a-10",
                                              relay(facts[2], "jane", 4.0).text, "politics")
    assert published_fake.ai_score is not None
    assert published_fake.ai_score > published_real.ai_score


def test_accountability_via_platform(world):
    platform, gen, facts = world
    report = relay(facts[0], "jane", 1.0)
    platform.publish_article("jane", "acme-news", "desk", "a-1", report.text, "politics")
    fake = gen.malicious_derivation(report, "troll", 2.0)
    platform.publish_article("troll", "acme-news", "desk", "a-2", fake.text, "politics")
    platform.register_participant("relayer", role="journalist")
    platform.authenticate_journalist("acme-news", "relayer")
    laundered = relay(fake, "relayer", 3.0)
    platform.publish_article("relayer", "acme-news", "desk", "a-3", laundered.text, "politics")
    assert platform.accountable_author("a-3") == platform.address_of("troll")


def test_stats_reflect_activity(world):
    platform, gen, facts = world
    platform.publish_article("jane", "acme-news", "desk", "a-1",
                             relay(facts[0], "jane", 1.0).text, "politics")
    stats = platform.stats()
    assert stats["articles"] == 1
    assert stats["facts"] == 3
    assert stats["blocks"] > 0
    assert stats["transactions"] >= stats["blocks"]


def test_duplicate_account_name_rejected(platform):
    platform.register_participant("dup", role="consumer")
    with pytest.raises(IdentityError):
        platform.register_participant("dup", role="consumer")


def test_unknown_account_raises(platform):
    with pytest.raises(IdentityError):
        platform.account("nobody")


def test_graph_cache_invalidates(world):
    platform, gen, facts = world
    # The graph follows the ledger: the same object grows in place, so
    # the count is taken before the write, not read off a held graph.
    nodes_before = platform.graph.number_of_nodes()
    platform.publish_article("jane", "acme-news", "desk", "a-1",
                             relay(facts[0], "jane", 1.0).text, "politics")
    assert platform.graph.number_of_nodes() > nodes_before
    assert "a-1" in platform.graph
