"""E8 — §VI expert identification from ledger history.

Workload: 8 topics, 16 planted experts (2 per topic, consistently
fact-rooted and faithful), 120 casual accounts and 12 bot content
mills.  Experts report seeded facts through ``report_external``;
casuals share good-faith derivations (relays, quotes, digests) and
mills share insertion fakes of expert articles through
``ingest_share``.  Every record carries its text and claims no link, so
the graph is the one every reader's fold derives.  Measures
precision/recall of the suggested per-topic panels against the planted
ground truth, which the generator knows by construction.
"""

from __future__ import annotations

import random

from benchmarks.conftest import emit
from repro.core import ExpertFinder, TrustingNewsPlatform, build_supply_chain_graph
from repro.corpus import TOPICS, CorpusGenerator
from repro.social.cascade import ShareEvent

EXPERTS_PER_TOPIC = 2
CASUALS = 120
MILLS = 12


def _build():
    platform = TrustingNewsPlatform(seed=800)
    gen = CorpusGenerator(seed=800)
    rng = random.Random(801)

    def share(name, article, parent, topic):
        event = ShareEvent(time=article.timestamp, round_index=0, agent_id=name,
                           source_agent_id=parent.author, article_id=article.article_id,
                           parent_article_id=parent.article_id, op=article.op)
        platform.ingest_share(event, article, topic)

    planted: dict[str, set[str]] = {}
    counter = 0
    expert_articles: dict[str, list] = {}
    for topic in TOPICS:
        planted[topic.name] = set()
        facts = [gen.factual(topic=topic.name) for _ in range(6)]
        for index, fact in enumerate(facts):
            platform.seed_fact(f"fact-{topic.name}-{index}", fact.text, "public-record",
                               topic.name)
        for expert_index in range(EXPERTS_PER_TOPIC):
            name = f"expert-{topic.name}-{expert_index}"
            planted[topic.name].add(name)
            platform.register_participant(name, role="creator", verified=False)
            for fact in facts:
                article = gen.relay_derivation(fact, name, 0.0).with_id(f"exp-{counter}")
                counter += 1
                platform.report_external(name, article.article_id, article.text, topic.name,
                                         source="public-record")
                expert_articles.setdefault(topic.name, []).append(article)
    # Casual users: a couple of good-faith shares each.
    for casual_index in range(CASUALS):
        topic = rng.choice(TOPICS).name
        name = f"casual-{casual_index}"
        for _ in range(rng.randint(1, 3)):
            parent = rng.choice(expert_articles[topic])
            article = gen.benign_derivation(parent, name, 1.0, pool=expert_articles[topic])
            share(name, article.with_id(f"cas-{counter}"), parent, topic)
            counter += 1
    # Content mills: prolific, heavily mutated output.
    for mill_index in range(MILLS):
        topic = rng.choice(TOPICS).name
        name = f"mill-{mill_index}"
        for _ in range(10):
            parent = rng.choice(expert_articles[topic])
            article = gen.insertion_fake(parent, name, 2.0)
            share(name, article.with_id(f"mill-{counter}"), parent, topic)
            counter += 1
    return platform, planted


def _evaluate(platform, planted):
    graph = build_supply_chain_graph(platform.chain.ledger)
    finder = ExpertFinder(graph, min_articles=2)
    address_to_name = {kp.address: name for name, kp in platform.accounts.items()}
    true_positive = false_positive = false_negative = 0
    per_topic = []
    for topic, experts in planted.items():
        panel = {address_to_name.get(a, a) for a in finder.suggest_panel(topic, k=EXPERTS_PER_TOPIC)}
        hits = len(panel & experts)
        true_positive += hits
        false_positive += len(panel) - hits
        false_negative += len(experts) - hits
        per_topic.append((topic, hits, len(experts)))
    precision = true_positive / max(1, true_positive + false_positive)
    recall = true_positive / max(1, true_positive + false_negative)
    return precision, recall, per_topic


def test_e8_expert_identification(benchmark):
    platform, planted = _build()
    precision, recall, per_topic = benchmark.pedantic(
        _evaluate, args=(platform, planted), rounds=1, iterations=1
    )
    rows = [
        f"planted: {EXPERTS_PER_TOPIC} experts x {len(planted)} topics among "
        f"{CASUALS} casual accounts and {MILLS} content mills",
        f"panel precision={precision:.2f} recall={recall:.2f}",
        "per-topic hits: " + ", ".join(f"{t}:{h}/{n}" for t, h, n in per_topic),
    ]
    emit(benchmark, "E8 — ledger-mined expert panels vs planted ground truth", rows)
    assert precision >= 0.9
    assert recall >= 0.9
