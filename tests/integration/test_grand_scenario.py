"""Grand scenario: the entire platform lifecycle in one narrative test.

charter -> newsroom -> facts -> publishing (text + media) -> cascade on
chain -> botnet planted and detected -> votes -> ranking -> promotion ->
conduct enforcement -> experts -> analytics -> audit -> proofs.

Every stage asserts invariants; the final section audits the whole
ledger.  This is the closest thing to "running the paper".
"""

import random

import numpy as np
import pytest

from repro.core import (
    TrustingNewsPlatform,
    account_report,
    bot_scores,
    detect_bot_rings,
    topic_statistics,
)
from repro.corpus import CorpusGenerator
from repro.corpus.mutations import relay
from repro.errors import ContractError
from repro.ml import capture_signal, tamper_signal
from repro.social import (
    CascadeRunner,
    bind_agents,
    interconnect,
    make_botnet,
    make_population,
    scale_free_follow_graph,
)


@pytest.fixture(scope="module")
def grand():
    platform = TrustingNewsPlatform(seed=7777)
    gen = CorpusGenerator(seed=7777)
    rng = random.Random(7777)
    np_rng = np.random.default_rng(7777)

    # --- governance: chartered platform -----------------------------------
    platform.register_participant("founder", role="publisher")
    for index in range(3):
        platform.register_participant(f"board-{index}", role="checker")
        # board members double as conduct adjudicators later
    platform.petition_platform("founder", "the-ledger", "charter text", quorum=3)
    for index in range(3):
        platform.review_petition(f"board-{index}", "the-ledger", approve=True)
    assert platform.finalize_petition("the-ledger") == "approved"
    platform.create_distribution_platform("founder", "the-ledger")
    platform.create_news_room("founder", "the-ledger", "desk", "elections")

    # --- ground truth + publishing (text + media) --------------------------
    fact = gen.factual(topic="elections")
    platform.seed_fact("cert-1", fact.text, "election-board", "elections")
    platform.register_participant("reporter", role="journalist")
    platform.authenticate_journalist("the-ledger", "reporter")
    signal = capture_signal(np_rng)
    platform.register_media("reporter", "clip-1", signal, "count footage")
    report = relay(fact, "reporter", 1.0)
    published = platform.publish_article(
        "reporter", "the-ledger", "desk", "story-1", report.text, "elections",
        media=[("clip-1", signal)],
    )
    tampered, _ = tamper_signal(signal, np_rng, n_segments=6)
    platform.register_participant("hack", role="journalist")
    platform.authenticate_journalist("the-ledger", "hack")
    fake = gen.insertion_fake(report, "hack", 2.0, n_insertions=4)
    platform.publish_article(
        "hack", "the-ledger", "desk", "story-2", fake.text, "elections",
        media=[("clip-1", tampered)],
    )

    # --- social cascade with a planted farm, recorded on-chain -------------
    graph = scale_free_follow_graph(250, seed=7778)
    agents = make_population(250, rng, bot_fraction=0.0)
    bind_agents(graph, agents)
    farm = make_botnet(agents, size=6, rng=rng, ring_id="farm")
    interconnect(graph, farm)
    runner = CascadeRunner(
        graph, CorpusGenerator(seed=7779),
        on_share=lambda event, article: platform.ingest_share(event, article, "elections"),
    )
    seed_share = runner.corpus.relay_derivation(fake, farm[0].agent_id, 0.0)

    class _Seed:
        agent_id = farm[0].agent_id
        parent_article_id = "story-2"
        op = "relay"

    platform.ingest_share(_Seed(), seed_share, "elections")
    start = next(n for n, a in graph.nodes(data=True) if a["agent"] is farm[0])
    cascade = runner.run([(start, seed_share)], n_rounds=7)

    # --- crowd verdicts -----------------------------------------------------
    for index in range(3):
        platform.cast_vote(f"board-{index}", "story-1", True)
        platform.cast_vote(f"board-{index}", "story-2", False)
    return platform, cascade, farm, agents, published


def test_rankings_and_promotion(grand):
    platform, *_ = grand
    good = platform.rank_article("story-1")
    bad = platform.rank_article("story-2")
    assert good.score > 0.85 > bad.score
    platform.promote_to_factual("story-1", fact_id="promoted-story-1")
    assert "promoted-story-1" in platform.facts()
    from repro.errors import PlatformError

    with pytest.raises(PlatformError):
        platform.promote_to_factual("story-2")


def test_cascade_recorded_and_traceable(grand):
    platform, cascade, *_ = grand
    assert cascade.events, "cascade must have propagated"
    graph = platform.graph
    for event in cascade.events:
        assert event.article_id in graph
    leaf = cascade.events[-1].article_id
    trace = platform.trace(leaf)
    assert trace.traceable and trace.root == "fact:cert-1"


def test_farm_detected_from_ledger(grand):
    platform, cascade, farm, agents, _ = grand
    rings = detect_bot_rings(cascade.events)
    detected = set().union(*rings) if rings else set()
    planted = {agent.agent_id for agent in farm}
    assert len(detected & planted) >= len(planted) - 1
    scores = bot_scores(cascade.events)
    for agent_id in detected & planted:
        assert scores[agent_id] > 0.6


def test_conduct_suspension_end_to_end(grand):
    platform, *_ = grand
    hack_address = platform.address_of("hack")
    for index in range(3):
        platform.chain.invoke(
            platform.account("board-0"), "conduct", "file_report",
            {"report_id": f"grand-r{index}", "accused": hack_address,
             "article_id": "story-2", "category": "fake-news", "stake": 1.0},
        )
        platform.chain.invoke(
            platform.governance, "conduct", "adjudicate",
            {"report_id": f"grand-r{index}", "upheld": True},
        )
    with pytest.raises(ContractError, match="suspended"):
        platform.publish_article("hack", "the-ledger", "desk", "story-3",
                                 "more fabrications", "elections")


def test_analytics_and_expert_views(grand):
    platform, cascade, farm, agents, _ = grand
    stats = {s.topic: s for s in topic_statistics(platform.graph)}
    assert stats["elections"].articles > 10
    assert 0 < stats["elections"].traceable_share <= 1.0
    reporter = account_report(platform.graph, platform.address_of("reporter"))
    assert reporter.articles == 1 and reporter.mean_provenance > 0.9
    hack = account_report(platform.graph, platform.address_of("hack"))
    assert hack.mean_modification > reporter.mean_modification


def test_audit_and_proofs(grand):
    platform, *_ = grand
    audit = platform.export_audit("story-2")
    assert audit["accountable_author"] == platform.address_of("hack")
    assert len(audit["votes"]) == 3
    proof = platform.prove_article("story-2")
    assert proof["verified"] is True
    # Tampering with the proof must fail verification.
    assert not proof["proof"].verify("0" * 64)


def test_whole_ledger_audits_clean(grand):
    platform, *_ = grand
    assert platform.chain.ledger.verify_chain()
    stats = platform.stats()
    # LocalChain: one block per invocation, the four steps of a publish in one.
    published = sum(1 for _ in platform.chain.ledger.events(
        contract="newsroom", kind="article-published"))
    assert published >= 2 and stats["transactions"] == stats["blocks"] + 3 * published
    assert stats["articles"] >= 3
